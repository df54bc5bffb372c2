(** Driver test benches.

    One helper builds the circuit every experiment shares — ramp input,
    inverter, arbitrary load — and runs the transient.  The cell
    characterization runner, the reference ("HSPICE substitute") waveforms,
    and the device-level tests all go through here so they agree on bias
    conventions: a {e rising} driver output is produced by a {e falling}
    input ramp of the given 0–100 % transition time. *)

module Netlist = Rlc_circuit.Netlist
module Waveform = Rlc_waveform.Waveform

type result = {
  input : Waveform.t;
  output : Waveform.t;
  engine : Rlc_circuit.Engine.result;
  out_node : Netlist.node;
  vdd_node : Netlist.node;
}

val falling_input : Tech.t -> t0:float -> slew:float -> float -> float
(** [falling_input tech ~t0 ~slew t]: holds at [vdd] until [t0], then ramps
    linearly to 0 over [slew] seconds.  Drives a rising output edge. *)

val rising_input : Tech.t -> t0:float -> slew:float -> float -> float

type edge = Rise | Fall
(** Direction of the {e driver output} transition. *)

type bench = {
  netlist : Netlist.t;
  input : Netlist.node;
  output : Netlist.node;
  vdd_node : Netlist.node;
  record_nodes : Netlist.node list option;  (** [None]: every node *)
  until : Rlc_circuit.Engine.crossing list option;
  t_stop : float;
}
(** A built bench, not yet run: its netlist, its observation nodes and
    what a run of it records, stops at and runs to.  A caller that steps
    it on a compiled handle keeps only the nodes and lets the netlist go
    once the handle holds its values. *)

val build :
  ?t_stop:float ->
  ?t0:float ->
  ?edge:edge ->
  ?record:(unit -> Netlist.node list) ->
  ?until:(input:Netlist.node -> output:Netlist.node -> Rlc_circuit.Engine.crossing list) ->
  tech:Tech.t ->
  size:float ->
  input_slew:float ->
  load:(Netlist.t -> Netlist.node -> unit) ->
  unit ->
  bench
(** Build [input ramp -> inverter -> load], as {!drive} describes. *)

val drive :
  ?obs:Rlc_obs.Obs.t ->
  ?dt:float ->
  ?t_stop:float ->
  ?adaptive:Rlc_circuit.Engine.adaptive ->
  ?t0:float ->
  ?edge:edge ->
  ?record:(unit -> Netlist.node list) ->
  ?until:(input:Netlist.node -> output:Netlist.node -> Rlc_circuit.Engine.crossing list) ->
  tech:Tech.t ->
  size:float ->
  input_slew:float ->
  load:(Netlist.t -> Netlist.node -> unit) ->
  unit ->
  result
(** {!build}, then simulate the bench with
    {!Rlc_circuit.Engine.transient}.  Defaults:
    [dt = 0.25 ps], [t0 = 10 ps], [edge = Rise],
    [t_stop = t0 + 4 * input_slew + 1 ns].  The [load] callback attaches
    arbitrary elements to the driver output node (pure capacitance, RLC
    ladder, ...); pass [fun _ _ -> ()] for an unloaded driver.

    [record], evaluated after [load] has attached its elements, names the
    extra nodes whose waveforms must be stored (input, output, and vdd are
    always kept).  When omitted every node is recorded — for long ladder
    loads that is O(nodes × steps) memory, so observers that only read a
    few probe nodes should pass the list.

    [until], evaluated after [load] with the bench's input and output
    nodes, is forwarded to {!Rlc_circuit.Engine.transient}: the run stops
    once every crossing it lists has happened, so the returned waveforms
    are a prefix that is only good for first-crossing measurements of
    exactly those crossings.

    [obs] and [adaptive] are forwarded to {!Rlc_circuit.Engine.transient};
    the input ramp's corners ([t0] and [t0 + input_slew]) are declared as
    breakpoints so the adaptive stepper lands on them exactly. *)

val cap_load : float -> Netlist.t -> Netlist.node -> unit
(** Ready-made pure-capacitance load (skipped entirely when the value is
    non-positive, so 0 fF is a legal table index). *)
