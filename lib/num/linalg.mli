(** Dense linear algebra: LU factorization with partial pivoting.

    Used by the general nodal-analysis path of the circuit engine (arbitrary
    topologies, small systems).  Banded networks such as ladders use
    {!Banded} instead. *)

type mat = float array array
(** Row-major dense matrix; rows must share one length. *)

type lu
(** Factorization [P A = L U] of a square matrix. *)

val make : int -> int -> float -> mat
val identity : int -> mat
val dim : mat -> int * int
val copy_mat : mat -> mat
val mat_vec : mat -> float array -> float array
val transpose : mat -> mat

exception Singular of int
(** Raised (with the offending pivot column) when a pivot's magnitude is
    below [1e-13]. *)

val lu_factor : mat -> lu
(** Factor a copy of the matrix. *)

val lu_factor_in_place : mat -> lu
(** Like {!lu_factor} but destroys (and shares storage with) its argument —
    for callers that already hold a scratch copy, e.g. the engine's Newton
    iteration matrix. *)

val lu_solve : lu -> float array -> float array

val lu_solve_into : lu -> float array -> float array -> unit
(** [lu_solve_into lu b x] solves into the preallocated [x] without
    allocating; [b] is left intact and must not alias [x]. *)

val solve : mat -> float array -> float array
(** [solve a b] factors and solves in one shot. *)

val determinant : lu -> float

val residual_norm : mat -> float array -> float array -> float
(** [residual_norm a x b] is [max_i |(Ax - b)_i|]; test helper. *)
