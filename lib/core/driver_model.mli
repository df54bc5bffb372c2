(** The paper's driver output model (Sections 3–5): the full modeling flow
    from (cell table, line parasitics, load) to a one- or two-ramp output
    waveform.

    Flow (paper Section 5):
    + fit the driving-point admittance moments (Eq. 3);
    + fit the driver on-resistance from the characterized tables at total
      capacitance and compute the breakpoint [f = Z0/(Z0 + Rs)] (Eq. 1);
    + iterate Ceff1 against the cell table to convergence -> [Tr1]
      (Eqs. 4/5);
    + screen inductance significance (Eq. 9) using [Tr1];
    + if significant: iterate Ceff2 -> [Tr2] (Eqs. 6/7), stretch it for the
      plateau [Tr2' = Tr2 + (2 tf - Tr1)/(1 - f)] (Eq. 8), and emit the
      two-ramp waveform; otherwise re-iterate a single Ceff with [f = 1] and
      emit one ramp.

    The model waveform lives on an absolute time axis whose origin is the
    {e input} 50 % crossing; its 50 % crossing equals the table delay at the
    governing effective capacitance, so delay and slew can be measured on it
    exactly like on a simulated waveform. *)

module Table = Rlc_liberty.Table
module Line = Rlc_tline.Line
module Pade = Rlc_moments.Pade
module Pwl = Rlc_waveform.Pwl
module Waveform = Rlc_waveform.Waveform

type iteration = { value : float; ramp : float; iterations : int; converged : bool }
(** One converged Ceff fixed point: the capacitance, its table ramp time,
    and solver diagnostics. *)

type plateau_mode =
  | Stretch_tr2
      (** Eq. 8: absorb the plateau by shifting where the second ramp
          completes — the paper's recommended treatment ("works better when
          the plateau smears out", the common case). *)
  | Flat_step
      (** the paper's alternative: insert an explicit flat step of duration
          [2 tf - Tr1] between the two ramps (better when a clearly flat
          plateau exists). *)

type rc_tail = {
  t_switch : float;  (** time (from ramp start) where the tail takes over *)
  v_switch : float;  (** voltage at the tangency point *)
  tau : float;  (** [Rs * Ctot] *)
}
(** The gate-resistor tail of Qian/Pullela/Pillage (the paper's reference
    [11]), used when an RC-like load exhibits strong resistive shielding:
    the one-ramp output follows the table ramp up to the tangency point and
    then decays exponentially toward the supply with [tau = Rs Ctot]. *)

type shape =
  | One_ramp of { ceff : iteration; tail : rc_tail option }
  | Two_ramp of {
      ceff1 : iteration;
      ceff2 : iteration;
      tr2_new : float;  (** effective second ramp: Eq. 8 under
          [Stretch_tr2], the raw converged [Tr2] under [Flat_step] *)
      plateau : float;  (** [max 0 (2 tf - Tr1)] *)
      plateau_mode : plateau_mode;
    }

type t = {
  shape : shape;
  f : float;  (** voltage breakpoint (Eq. 1); 1.0 for one-ramp outputs *)
  rs : float;
  z0 : float;
  tf : float;
  pade : Pade.t;
  screen : Screen.verdict;
  delay_50 : float;  (** input 50 % -> modeled output 50 % *)
  vdd : float;
  pwl : Pwl.t;  (** the output waveform; t = 0 is the input 50 % crossing *)
}

type mode =
  | Auto  (** follow the Eq. 9 screen *)
  | Force_two_ramp  (** used by benches to tabulate both models everywhere *)
  | Force_one_ramp

val model :
  ?obs:Rlc_obs.Obs.t ->
  ?mode:mode ->
  ?plateau:plateau_mode ->
  ?rc_tail:bool ->
  cell:Table.cell ->
  edge:Rlc_waveform.Measure.edge ->
  input_slew:float ->
  line:Line.t ->
  cl:float ->
  unit ->
  t
(** [plateau] defaults to {!Stretch_tr2} (Eq. 8).  [rc_tail] (default
    [false]) enables the gate-resistor exponential tail on one-ramp outputs
    when the tangency point falls above 50 % of the swing.

    [obs] (default disabled) records each Ceff fixed point as a
    ["ceff.solve"] span whose args carry the stage (["ceff1"], ["ceff2"],
    or ["ceff_f1"]), the iteration count, and the convergence flag;
    counters ["ceff.iterations_run"] / ["ceff.converged"] /
    ["ceff.unconverged"]; and the normalized iterate trajectory as the
    ["ceff.trajectory_f"] histogram.  Note ["ceff.iterations_run"] counts
    {e every} fixed point run, including the Ceff1 probe a one-ramp model
    discards, so it is an upper bound on {!total_iterations}. *)

val model_pade :
  ?obs:Rlc_obs.Obs.t ->
  ?mode:mode ->
  ?plateau:plateau_mode ->
  ?rc_tail:bool ->
  cell:Table.cell ->
  edge:Rlc_waveform.Measure.edge ->
  input_slew:float ->
  pade:Pade.t ->
  line:Line.t ->
  cl:float ->
  unit ->
  t
(** Like {!model} but with the admittance fit supplied by the caller instead
    of being re-fitted from [line] — the cache-friendly entry point for a
    full-design flow, where the fit comes from an extracted SPEF tree
    ({!Rlc_moments.Pade.of_tree}) and identical bus-bit loads share one
    canonical [pade].  [line] only supplies the transmission-line quantities
    ([Z0], time of flight, total R/C) consumed by the breakpoint (Eq. 1) and
    the inductance screen (Eq. 9); for a non-uniform net pass its
    total-R/L/C equivalent line.  The model is a pure function of
    (cell, edge, input_slew, pade, line, cl), which is what makes results
    cacheable across repeated nets. *)

val total_iterations : t -> int
(** Ceff fixed-point iterations spent building this model (Ceff1 + Ceff2 for
    two-ramp shapes) — the cost a result cache avoids on a hit. *)

val single_ceff_variant : t -> cell:Table.cell -> edge:Rlc_waveform.Measure.edge ->
  input_slew:float -> f:float -> iteration
(** Re-run the single-Ceff iteration of an existing model at another charge
    fraction ([f = 0.5] and [f = 1.0] reproduce the two curves of the
    paper's Figure 3). *)

val output_waveform : ?n:int -> ?t_end:float -> t -> Waveform.t
(** Sample the model PWL (normalized rising 0 -> vdd). *)

val model_delay : t -> float
(** = [delay_50]. *)

val model_slew_10_90 : t -> float
(** Measured on the PWL geometry. *)

val transition_end : t -> float
(** Time (on the model axis) at which the waveform completes. *)

val pp : Format.formatter -> t -> unit
