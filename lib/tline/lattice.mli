(** Lossless bounce (lattice) diagram.

    Analytic oracle for the transmission-line intuition behind the paper's
    two-ramp model (Section 2): a step source of magnitude [vs] behind
    resistance [rs] launches an initial step [vs * Z0 / (Z0 + Rs)] — the
    paper's Eq. 1 breakpoint — and the near end then stays flat for one round
    trip [2 tf] until the far-end reflection returns.  Used in tests to pin
    the breakpoint and plateau duration produced by the transient engine, and
    in the documentation examples. *)

type t

val create : vs:float -> rs:float -> z0:float -> tf:float -> t
(** A line with an open far end (reflection coefficient 1, the on-chip
    case with a small receiver).  [rs >= 0], [z0 > 0], [tf > 0]. *)

val gamma_source : t -> float
val initial_step : t -> float
(** [vs * z0 / (z0 + rs)] — Eq. 1 of the paper times [vs]. *)

val near_end_voltage : t -> float -> float
(** Ideal near-end (driving point) voltage at time [t] (step applied at
    [t = 0]); piecewise constant with jumps at [2 k tf]. *)

val far_end_voltage : t -> float -> float
(** Ideal far-end voltage; jumps at odd multiples of [tf]. *)

val near_end_steps : t -> n:int -> (float * float) list
(** First [n] near-end levels as [(arrival_time, level)] pairs, starting with
    [(0, initial step)]. *)
