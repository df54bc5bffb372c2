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
    contract of {!Rlc_circuit.Engine.transient}'s [until]: the returned
    waveform is bit-identical to the start of the full run and holds each
    listed crossing's first occurrence, and a crossing that never happens
    gives the full run.  Pass only the first crossings the caller reads
    ({!Rlc_waveform.Measure.t_frac} and friends); a caller that reads
    anything else of the waveform — a later crossing, the settled value —
    must omit [until] (the default, the full window).

    [until_peak] (default [false]) stops the run once the victim far end's
    running maximum is proved final, under the energy-bound contract of
    {!Rlc_circuit.Engine.transient}'s [until_peak]: the returned waveform
    is a bit-identical prefix of the full run and its [Waveform.v_max] has
    the full run's bits.  A noise-peak reader passes it; a cluster whose
    drives are all PWLs and whose members are linear meets the engine's
    preconditions, so the run ends a few hundred steps after the last
    drive goes flat and the ringing has decayed under the peak. *)
