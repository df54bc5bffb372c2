(** Piecewise-linear voltage sources.

    The model's output — a saturated ramp or the paper's two-ramp waveform —
    is represented as a PWL source so it can both be measured (via
    {!to_waveform}) and replayed into the circuit engine as an ideal driver
    replacement for far-end evaluation (Section 3, step 5 of the paper). *)

type t
(** Breakpoints [(t, v)] with strictly increasing times; the source holds the
    first value before the first breakpoint and the last value after the
    last. *)

val of_points : (float * float) list -> t
(** Raises [Invalid_argument] on fewer than one point or non-increasing
    times. *)

val points : t -> (float * float) list
val eval : t -> float -> float
val shift_time : float -> t -> t

val ramp : t0:float -> v0:float -> v1:float -> transition:float -> t
(** Saturated ramp starting at [t0], swinging [v0 -> v1] linearly over
    [transition] seconds. *)

val two_ramp :
  t0:float -> vdd:float -> f:float -> tr1:float -> tr2:float -> t
(** The paper's Eq. 2 waveform for a rising transition starting at [t0]:
    first ramp of full-swing time [tr1] up to the breakpoint voltage
    [f * vdd] (reached at [t0 + f*tr1]), then a second ramp of full-swing
    time [tr2] from the breakpoint to [vdd] (reached at
    [t0 + f*tr1 + (1-f)*tr2]).  Requires [0 < f <= 1]; with [f = 1] this
    degenerates to a single ramp of time [tr1]. *)

val falling : vdd:float -> t -> t
(** Mirror a rising 0->vdd source into a falling vdd->0 one. *)

val to_waveform : ?n:int -> ?t_end:float -> t -> Waveform.t
(** Sample on [n] (default 256, at least 2, else [Invalid_argument])
    uniform points from the first breakpoint to the end, plus every
    breakpoint up to the end, repeats dropped; [t_end] extends the final
    hold value past the last breakpoint. *)

val end_time : t -> float
val pp : Format.formatter -> t -> unit
