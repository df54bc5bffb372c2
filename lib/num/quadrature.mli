(** Numerical integration.

    The test suite uses adaptive Simpson quadrature of the exact
    inverse-Laplace driver current as an independent oracle for the Ceff
    closed forms (Eqs. 4-7); the waveform layer uses the trapezoid rule on
    sampled data. *)

val simpson_adaptive : ?rel_tol:float -> (float -> float) -> a:float -> b:float -> float
(** Adaptive Simpson integration of [f] over [\[a, b\]] to [rel_tol]
    (default [1e-10]), with an absolute error floor of [1e-300] and at
    most 30 levels of bisection. *)

val trapezoid_sampled : float array -> float array -> float
(** [trapezoid_sampled ts ys] integrates samples [(ts.(i), ys.(i))]; times
    must be non-decreasing.  Raises [Invalid_argument] on length mismatch or
    fewer than two samples. *)

val simpson_fixed : (float -> float) -> a:float -> b:float -> n:int -> float
(** Composite Simpson with [n] (rounded up to even) subintervals. *)
