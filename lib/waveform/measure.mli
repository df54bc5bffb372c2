(** Timing measurements with pinned conventions.

    The paper reports "delay" and "slew" without pinning thresholds; this
    module fixes the conventions used throughout the repo (documented in
    DESIGN.md §4) so model and reference are always measured identically:

    - delay: 50 % of the input transition to 50 % of the output transition;
    - slew: t(90 %) - t(10 %) of the output transition;
    - auxiliary thresholds (20/80, 50/90) are exposed for the driver
      on-resistance fit and for table generation. *)

type edge = Waveform.direction = Rising | Falling

val t_frac : Waveform.t -> vdd:float -> edge:edge -> frac:float -> float option
(** First time the waveform crosses [frac * vdd] in the direction matching
    [edge] (for [Falling], the crossing of [(1 - frac)] of the swing, i.e.
    [frac] of the transition's progress). *)

val t_frac_exn : Waveform.t -> vdd:float -> edge:edge -> frac:float -> float

val level_of_frac : vdd:float -> edge:edge -> frac:float -> float
(** The voltage {!t_frac} looks for: [frac * vdd] on a rising edge,
    [(1 - frac) * vdd] on a falling one.  Lets a caller name the crossing
    it will measure before the waveform exists (an engine early stop). *)

val slew : Waveform.t -> vdd:float -> edge:edge -> lo:float -> hi:float -> float option
(** [slew w ~vdd ~edge ~lo ~hi] = t(hi) - t(lo) in transition progress. *)

val slew_10_90 : Waveform.t -> vdd:float -> edge:edge -> float option
val slew_20_80 : Waveform.t -> vdd:float -> edge:edge -> float option

val full_swing_of_slew : lo:float -> hi:float -> float -> float
(** Extrapolate a measured partial slew to the equivalent full-swing ramp
    time: [slew / (hi - lo)].  E.g. a 20-80 slew extrapolates by 1/0.6. *)

val delay_50 : input:Waveform.t -> output:Waveform.t -> vdd:float ->
  input_edge:edge -> output_edge:edge -> float option
(** 50 % input crossing to first 50 % output crossing. *)

val rel_error : actual:float -> model:float -> float
(** [(model - actual) / actual]; sign convention matches the paper's Table 1
    (positive = model overestimates). *)

val pct_error : actual:float -> model:float -> float
