(** Gate-level static timing over multi-stage RLC paths.

    Demonstrates the paper's "library compatible" claim end to end: each
    stage's driver is reduced to its one-/two-ramp model from the NLDM
    tables, the modeled waveform is replayed through the stage's line
    (linear circuit only — no transistor simulation inside the timing loop),
    and the far-end 50 % time and slew feed the next stage.  Per the paper's
    Section 3 observation, far-end waveforms show no plateau, so a single
    ramp (the measured far-end slew) is a faithful hand-off to the next
    cell arc.

    Stages alternate output edges like a real inverter chain; the edge
    selects the rise or fall table arc, and waveforms are handled in the
    normalized rising domain (electrically symmetric for the mirrored
    edge). *)

module Line = Rlc_tline.Line

type stage = {
  size : float;  (** driver strength, X multiplier *)
  line : Line.t;  (** the net this stage drives *)
}

type stage_result = {
  stage : stage;
  edge : Rlc_waveform.Measure.edge;  (** output edge direction *)
  model : Rlc_ceff.Driver_model.t;
  input_slew : float;  (** slew presented at this stage's input *)
  stage_delay : float;  (** stage input 50 % -> far-end 50 % *)
  near_delay : float;  (** stage input 50 % -> driver output 50 % *)
  far_slew : float;  (** 10-90 at the far end *)
  arrival : float;  (** cumulative arrival time at the far end *)
}

type path_result = {
  stages : stage_result list;
  total_delay : float;  (** path input 50 % -> last far end 50 % *)
}

val analyze :
  ?dt:float ->
  ?tech:Rlc_devices.Tech.t ->
  ?pool:Rlc_parallel.Pool.t ->
  input_slew:float ->
  sink_cl:float ->
  stage list ->
  path_result
(** Requires at least one stage.  Intermediate stage loads are the input
    capacitance of the next stage's driver; the final stage sees
    [sink_cl].  A stage size not yet characterized is characterized on
    [pool] (see {!Rlc_liberty.Characterize.cell_res}).  Raises on bad
    inputs ([Invalid_argument]) or an engine failure; embedders that must
    not die should use {!analyze_res}. *)

val analyze_res :
  ?dt:float ->
  ?tech:Rlc_devices.Tech.t ->
  ?pool:Rlc_parallel.Pool.t ->
  input_slew:float ->
  sink_cl:float ->
  stage list ->
  (path_result, Rlc_errors.Error.t) result
(** {!analyze} with the user-reachable exits converted to typed errors:
    [Invalid_argument] (empty path, incomplete far end) becomes
    {!Rlc_errors.Error.Bad_request}, engine failures become
    {!Rlc_errors.Error.Internal}. *)

val other_edge : Rlc_waveform.Measure.edge -> Rlc_waveform.Measure.edge
(** Inverting-stage edge alternation. *)

val clamp_slew : float -> float
(** Clamp a slew into the characterized table range (10–400 ps) before a
    table lookup. *)

val handoff_slew : far_slew:float -> float
(** The stage hand-off convention shared by {!analyze} and the full-design
    flow ({!Rlc_flow}): far-end waveforms carry no plateau (paper Section 3),
    so the next arc receives a single ramp — the measured 10–90 far-end slew
    extrapolated to full swing ([/. 0.8]) and clamped by {!clamp_slew}. *)

val estimate_far_delay : Rlc_ceff.Driver_model.t -> line:Line.t -> cl:float -> float
(** Replay-free estimate (for sorting / pruning, not signoff): near-end
    50 % plus the two-moment transfer-function delay of the line
    ({!Rlc_tline.Transfer.delay_50_estimate}), which degrades gracefully
    from the RC scaled-Elmore regime to the time-of-flight bound on
    inductive lines. *)

val pp_path : Format.formatter -> path_result -> unit
