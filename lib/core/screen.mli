(** Inductance-significance screen (paper Eq. 9, after Deutsch and
    Ismail/Friedman/Neves).

    All four criteria must hold for transmission-line treatment:
    - the fan-out load is small against the line: [CL << C·l];
    - the line is not overdamped: [R·l <= 2 Z0];
    - the driver is strong: [Rs < Z0];
    - the {e driver output} initial ramp beats the round trip:
      [Tr1 < 2 tf].

    The paper's refinement over Ismail et al. is the last criterion: it uses
    the output initial-ramp time obtained from the Ceff1 iteration rather
    than the input transition time, because inductive behaviour tracks the
    driver's output edge rate.

    The thresholds are fixed: [CL <= 0.3 C·l], [R·l <= 2 Z0],
    [Rs < Z0] and [Tr1 < 2 tf]. *)

type verdict = {
  cl_ok : bool;
  rl_ok : bool;
  rs_ok : bool;
  tr_ok : bool;
  significant : bool;  (** conjunction of the four *)
  cl_ratio : float;
  rl_over_z0 : float;
  rs_over_z0 : float;
  tr1_over_tf : float;
}

val evaluate : line:Rlc_tline.Line.t -> cl:float -> rs:float -> tr1:float -> verdict

val evaluate_input_slew :
  line:Rlc_tline.Line.t -> cl:float -> rs:float -> input_slew:float -> verdict
(** The Ismail/Friedman/Neves criterion the paper argues against: same
    checks, but the time-of-flight condition compares the {e input}
    transition time instead of the driver-output initial ramp.  Exposed for
    the ablation bench, which counts how often the two screens disagree and
    shows that the output-based rule tracks actual waveform morphology
    (Section 5's argument, citing [8]). *)

val pp : Format.formatter -> verdict -> unit
