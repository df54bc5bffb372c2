(** Coupled victim/aggressor cluster assembly and transient simulation.

    A cluster is the victim net plus the aggressors that survived the
    {!Noise} screen.  Each member net is reduced to its total-R/L/C
    equivalent uniform line (the same reduction {!Rlc_flow.Design} feeds the
    inductance screen) and discretized into an [n_segments] RLC ladder; the
    lumped victim-aggressor coupling capacitance is distributed evenly
    between corresponding segment nodes, exactly as
    {!Rlc_tline.Coupled_ladder} distributes it for two lines.  Nodes are
    allocated interleaved across members segment by segment so the nodal
    matrix stays banded.

    Driver representation follows {!Rlc_ceff.Reference.replay_pwl}: a
    switching member's near end is forced with its driver-model PWL (an
    ideal replacement for the fitted output waveform), while a quiet member
    is held at ground through its fitted on-resistance [rs].
    Aggressor-aggressor coupling inside a cluster is ignored — it is second
    order for the victim's waveform and keeps clusters pairwise-shaped. *)

type member = {
  line : Rlc_tline.Line.t;  (** total-R/L/C equivalent uniform line *)
  drive : Rlc_waveform.Pwl.t option;
      (** [Some pwl] forces the near end with the waveform; [None] holds the
          near end quiet through [rs] *)
  rs : float;  (** driver on-resistance, used when [drive = None], Ohm *)
  cl : float;  (** far-end lumped load, F *)
}

val default_segments : int
(** 40: enough for the flight-time accuracy the noise/delay measurements
    need while keeping a cluster transient cheap. *)

val simulate :
  ?obs:Rlc_obs.Obs.t ->
  ?n_segments:int ->
  ?until:(float * Rlc_waveform.Waveform.direction) list ->
  ?until_peak:bool ->
  ?horizon:float ->
  dt:float ->
  victim:member ->
  aggressors:(member * float) list ->
  unit ->
  Rlc_waveform.Waveform.t
(** Build the coupled cluster — victim plus [(aggressor, cc_total)] pairs —
    run a fixed-step transient, and return the {e victim far-end} waveform
    on the caller's time axis (drives are internally shifted so the engine's
    DC point sees the quiescent state, then shifted back, as in
    [replay_pwl]).  The stop time covers every drive's end plus ten flight
    times of the slowest member.  Deterministic: a pure function of the
    arguments, independent of worker scheduling.

    [until] lists [(level, direction)] crossings of the {e victim's far
    end} and stops the run once each has happened, under the prefix
    contract of {!Rlc_circuit.Engine.Compiled.run}'s [until]: the returned
    waveform is bit-identical to the start of the full run and holds each
    listed crossing's first occurrence, and a crossing that never happens
    gives the full run.  Pass only the first crossings the caller reads
    ({!Rlc_waveform.Measure.t_frac} and friends); a caller that reads
    anything else of the waveform — a later crossing, the settled value —
    must omit [until] (the default, the full window).

    [until_peak] (default [false]) stops the run once the victim far end's
    running maximum is proved final, under the energy-bound contract of
    {!Rlc_circuit.Engine.Compiled.run}'s [until_peak]: the returned waveform
    is a bit-identical prefix of the full run and its [Waveform.v_max] has
    the full run's bits.  A noise-peak reader passes it; a cluster whose
    drives are all PWLs and whose members are linear meets the engine's
    preconditions, so the run ends a few hundred steps after the last
    drive goes flat and the ringing has decayed under the peak.

    [horizon] (default: none) ends the run at the first step at or past
    time [horizon] on the caller's axis when that comes before the full
    window's end; a horizon past the end changes nothing, one before the
    first sample still takes one step.  The waveform is a bit-identical
    prefix of the full run, like [until]'s.  A caller that needs the
    waveform only up to a known time passes it.

    A cluster is linear, so its far end is the sum of the responses to
    each drive's moves from its initial value; {!worst_crossing} screens
    with that.

    It is {!simulate_batch} of one run. *)

type run = {
  victim : member;
  aggressors : (member * float) list;  (** [(aggressor, cc_total)] *)
  until : (float * Rlc_waveform.Waveform.direction) list;
  until_peak : bool;
  horizon : float option;
}
(** One cluster transient: {!simulate}'s arguments of the same names. *)

val simulate_batch :
  ?obs:Rlc_obs.Obs.t -> ?n_segments:int -> dt:float -> run array -> Rlc_waveform.Waveform.t array
(** The victim far ends of the runs, in order, each bit for bit
    [simulate ?obs ?n_segments ~until ~until_peak ?horizon ~dt ~victim
    ~aggressors ()] alone, with its exceptions (every run's arguments are
    checked before any runs).  Runs go in consecutive groups of
    {!Rlc_circuit.Engine.Compiled.max_lanes}, run [j] of a group on lane
    [j] of the compiled-handle cache; the engine steps a group's runs of
    one cluster structure in lock-step
    ({!Rlc_circuit.Engine.Compiled.run_lanes}).  Each run's netlist is
    dropped once its handle holds the values, so a group keeps only its
    handles alive while it steps. *)

val worst_crossing :
  ?obs:Rlc_obs.Obs.t ->
  ?n_segments:int ->
  dt:float ->
  vdd:float ->
  victim:member ->
  aggressors:(member * float) list ->
  float array ->
  (float, float) result
(** [worst_crossing ~dt ~vdd ~victim ~aggressors offsets] is the latest
    far-end 50 % rising crossing of the victim
    ({!Rlc_waveform.Measure.t_frac}) over the runs that shift every
    aggressor drive by each offset in [offsets] (non-empty): [Ok] with the
    same bits as the maximum over one [simulate ~until] run per offset, or
    [Error off] with the first offset in array order whose run never
    reaches 50 % of [vdd], the one a loop over every offset would stop at.

    Only the offsets that can still be the worst are simulated.  Two
    screen runs -- the victim switching against aggressors held at their
    initial level, stopped at the victim's 90 % crossing, and the victim
    held while the aggressors switch unshifted, run for as long as any
    shift of the first one needs -- superpose into every offset's far end.
    A margin of [1e-3 * vdd] around the 50 % level brackets each offset's
    crossing; an offset is run when its bracket reaches past the latest
    lower end of any bracket, or when the screen's windows cannot resolve
    it.  Runs are checked in array order, each one's samples against the
    superposition: a gap over half the margin runs every remaining offset
    (a fallback).  Arrays of three offsets or fewer run every offset, as
    two screen runs would cost more.

    [obs] counts ["xtalk.alignment_sweeps"] (runs at an offset) with their
    steps in ["xtalk.alignment_steps"], ["xtalk.screen_runs"] with their
    steps in ["xtalk.screen_steps"], and ["xtalk.screen_fallbacks"]; the
    engine's own spans and counters cover every run.

    It is {!worst_crossings} of one sweep. *)

type sweep = {
  victim : member;
  aggressors : (member * float) list;
  offsets : float array;
}
(** One alignment sweep: {!worst_crossing}'s arguments of the same names. *)

val worst_crossings :
  ?obs:Rlc_obs.Obs.t ->
  ?n_segments:int ->
  dt:float ->
  vdd:float ->
  sweep array ->
  (float, float) result array
(** Each sweep's {!worst_crossing}, in order and bit for bit, stepping the
    sweeps' transients together.  Sweeps go in consecutive groups of
    {!Rlc_circuit.Engine.Compiled.max_lanes}, sweep [j] of a group on lane
    [j] of the compiled-handle cache for every one of its runs, so they
    restamp only sources and keep their factorization and DC point.  A
    group runs in phases, each one batch over its sweeps
    ({!simulate_batch}'s lock-step): every screened sweep's first screen
    run; then its second, whose window comes from the first; then every
    offset the screen marks, speculatively, one per sweep and pass (every
    offset of a sweep of three or fewer).  Then each sweep is walked in
    offset order, as {!worst_crossing} describes: a run that disagrees
    with the screen runs that sweep's remaining offsets alone (the
    fallback), and a run that never reaches 50 % first runs the unrun
    offsets before it, so the error names the first such offset in array
    order.

    The runs are the ones each sweep alone would make, so every
    ["xtalk.*"] counter, ["engine.transients"] and ["engine.steps"] read
    what one {!worst_crossing} per sweep reads, except on a sweep that
    ends in an [Error]: its speculative runs past the failing offset also
    count in ["xtalk.alignment_sweeps"] and ["xtalk.alignment_steps"] and
    the engine's counters.  ["engine.handle.hits"] and
    ["engine.handle.misses"] do move: each lane of a group holds its own
    handle.  Every sweep's arguments are checked first: a negative
    coupling capacitance, [n_segments < 1] or [dt <= 0] raises
    [Invalid_argument], as in {!simulate}. *)
