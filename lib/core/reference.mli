(** Reference ("HSPICE substitute") simulations.

    Two circuits back every experiment:
    - {!simulate}: transistor-level inverter driving the discretized line —
      the ground truth the model is scored against;
    - {!replay_pwl}: the modeled one-/two-ramp waveform as an ideal source
      driving the same line — step 5 of the paper's flow, used to validate
      the far-end response of the model (Figure 6 right). *)

module Waveform = Rlc_waveform.Waveform
module Line = Rlc_tline.Line

type t = {
  input : Waveform.t;
  near : Waveform.t;  (** driver output = line driving point *)
  far : Waveform.t;
  vdd : float;
  t_in50 : float;  (** absolute time of the input 50 % crossing *)
}

val default_t_stop : t0:float -> input_slew:float -> line:Line.t -> float
(** The default simulation window of {!simulate}:
    [t0 + input_slew + max(2 ns, 20 tf)], where [tf] is the line's time of
    flight — wide enough that the slowest Table-1 ramp settles and far-end
    50 %/90 % crossings always exist. *)

val simulate :
  ?obs:Rlc_obs.Obs.t ->
  ?dt:float ->
  ?t_stop:float ->
  ?adaptive:Rlc_circuit.Engine.adaptive ->
  ?n_segments:int ->
  tech:Rlc_devices.Tech.t ->
  size:float ->
  input_slew:float ->
  line:Line.t ->
  cl:float ->
  unit ->
  t
(** Rising-output bench: falling input ramp, inverter of the given size,
    ladder, load cap.  Defaults: [dt = 0.25 ps],
    [t_stop = 30 ps + slew + max(2 ns, 20 tf)].  [adaptive] switches the
    engine to LTE-controlled stepping ([dt] is then unused); the returned
    waveforms sit on the adaptive grid.  Fixed-step, its transient is a
    one-lane pass of the engine's Newton kernel, as each characterization
    point's is. *)

val replay_pwl :
  ?obs:Rlc_obs.Obs.t ->
  ?dt:float ->
  ?t_stop:float ->
  ?adaptive:Rlc_circuit.Engine.adaptive ->
  ?n_segments:int ->
  pwl:Rlc_waveform.Pwl.t ->
  line:Line.t ->
  cl:float ->
  unit ->
  Waveform.t * Waveform.t
(** [(near, far)] for the ideal-source replay, on the {e same time axis as
    the input PWL} (for a {!Driver_model} waveform: t = 0 at the input 50 %
    crossing), so model far-end measurements compare directly against
    {!far_delay} of a transistor-level run.  The replay runs through the
    {!Rlc_circuit.Engine.Compiled.cached} handle cache:
    same-shape ladder replays after the first restamp values into the
    compiled structure instead of recompiling. *)

type replay = { vdd : float; pwl : Rlc_waveform.Pwl.t; line : Line.t; cl : float }
(** One far-end replay: {!far_timing}'s arguments of the same names. *)

val far_timings :
  ?obs:Rlc_obs.Obs.t ->
  ?dt:float ->
  ?adaptive:Rlc_circuit.Engine.adaptive ->
  replay array ->
  (float * float, exn) result array
(** {!far_timing} of every replay, in order, each [Ok] bit for bit what
    the single call gives, or [Error] what it would raise.  The replays
    run in batches of {!Rlc_circuit.Engine.Compiled.max_lanes} through
    {!Rlc_circuit.Engine.Compiled.run_lanes}, each member on its own
    lane's {!Rlc_circuit.Engine.Compiled.cached} handle, so replays whose
    ladders share a structure step in lock-step; each stops at its own
    90 % crossing, and only the far node is recorded.  A failing replay
    fails alone. *)

val far_timing :
  ?obs:Rlc_obs.Obs.t ->
  ?dt:float ->
  ?adaptive:Rlc_circuit.Engine.adaptive ->
  vdd:float ->
  pwl:Rlc_waveform.Pwl.t ->
  line:Line.t ->
  cl:float ->
  unit ->
  float * float
(** [(t50, slew)]: the first rising 50 % crossing of {!replay_pwl}'s far
    end (on the PWL's time axis, so for a {!Driver_model} waveform it is the
    stage delay) and its 10–90 slew — bit for bit what measuring the full
    replay gives — with the replay stopped as soon as the far end has
    crossed 10, 50 and 90 % of [vdd].  The far-end step 5 of the paper's
    flow, shared by {!Rlc_sta} and the full-design flow; {!far_timings} of
    a batch of one, raising its [Error].  Raises [Invalid_argument] when the far end never
    completes 10–90 inside the window. *)

(* Measurements (conventions of DESIGN.md §4, all on the rising edge). *)

val near_delay : t -> float
(** Input 50 % -> driver output 50 %. *)

val near_slew : t -> float
(** 10–90 at the driver output. *)

val far_delay : t -> float
val far_slew : t -> float

type bench_case = {
  size : float;  (** driver size, X *)
  input_slew : float;
  line : Line.t;
  cl : float;
}
(** One transistor-level bench of {!simulated_far_delays}: {!simulate}'s
    arguments of the same names. *)

val simulated_far_delays :
  ?obs:Rlc_obs.Obs.t ->
  ?dt:float ->
  ?adaptive:Rlc_circuit.Engine.adaptive ->
  tech:Rlc_devices.Tech.t ->
  bench_case array ->
  (float, exn) result array
(** [far_delay (simulate ...)] of every bench, in order, each [Ok] bit for
    bit what the run alone gives, or [Error] what it would raise (a
    {!Rlc_circuit.Engine.Newton_diverged} with an empty [within], or a
    far end that never crossed 50 %), with each transistor-level
    transient stopped once the input and the far end have both crossed
    50 % -- the check a sizing search needs, at a fraction of the window.
    The benches run in batches of {!Rlc_circuit.Engine.Compiled.max_lanes}
    through {!Rlc_circuit.Engine.Compiled.run_lanes}, each on its own
    lane's {!Rlc_circuit.Engine.Compiled.cached} handle, so benches of one
    ladder structure step as Newton lanes in lock-step.  Each netlist is
    dropped once its handle holds its values.  [obs] records the engine's
    spans and counters, as for any run. *)

