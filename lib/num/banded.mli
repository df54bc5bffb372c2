(** Banded LU factorization without pivoting.

    General RLC tree netlists produce nodal matrices whose bandwidth, after
    breadth-first node numbering, is small; this solver keeps their transient
    cost at O(n·bw²) instead of O(n³).  Companion-model nodal matrices are
    diagonally dominant, which justifies the pivot-free elimination (a
    vanishing pivot still raises {!Singular}). *)

type t
(** Mutable banded matrix of dimension [n] with [bw] sub- and
    super-diagonals. *)

exception Singular of int

val create : n:int -> bw:int -> t
val dim : t -> int
val bandwidth : t -> int

val get : t -> int -> int -> float
val set : t -> int -> int -> float -> unit
(** [set m i j v] with [|i - j| > bw] raises [Invalid_argument]. *)

val add : t -> int -> int -> float -> unit
(** Accumulate [v] into entry [(i, j)]; the stamping primitive. *)

val index : t -> int -> int -> int
(** [index m i j] is where entry [(i, j)] lives in {!data}; an entry
    outside the band raises [Invalid_argument].  Positions depend only on
    the dimension and bandwidth. *)

val data : t -> float array
(** The band storage itself, shared, not copied: a stamper that adds into
    the same entries many times finds their positions once with {!index}
    and writes here, with no lookup or allocation per entry. *)

val clear : t -> unit
val copy : t -> t

val blit : src:t -> dst:t -> unit
(** Copy [src]'s entries into [dst] without allocating; dimension and
    bandwidth must match. *)

val mat_vec : t -> float array -> float array

val factor : t -> unit
(** Destructive in-place LU: the strict lower band is overwritten with the
    elimination multipliers so {!solve_factored} can replay the
    factorization against any number of right-hand sides (the matrix must
    not be re-stamped afterwards).  Raises {!Singular} on a vanishing
    pivot (absolute value below 1e-300), naming its row.  It is the
    one-lane case of {!factor_lanes}. *)

val factor_lanes : t array -> int -> int array -> unit
(** [factor_lanes ts k piv] factors [ts.(l)] in place on every lane
    [l < k], each bit for bit what [factor ts.(l)] does alone: every lane
    does the same floating-point operations in the same order, column by
    column, with the columns of independent lanes interleaved so that
    their division chains overlap.  [piv.(l)] is set to [-1], or to the
    row of lane [l]'s vanishing pivot, where [factor] would raise
    {!Singular}; that lane stops there, partly eliminated, and the other
    lanes are unaffected.  The [k] matrices must share dimension and
    bandwidth and [piv] must hold [k] entries, otherwise
    [Invalid_argument]; entries of [ts] and [piv] past [k] are ignored. *)

val solve_factored : t -> float array -> unit
(** Overwrite the right-hand side with the solution, using a matrix already
    processed by {!factor}.  O(n·bw) per call versus O(n·bw²) for a fresh
    factorization — the transient engine's factor-once fast path.  It is
    the one-lane case of {!solve_factored_lanes}. *)

val solve_factored_lanes : t array -> float array array -> int -> unit
(** [solve_factored_lanes ts bs k] overwrites [bs.(l)] with the solution
    for [ts.(l)] on every lane [l < k], each bit for bit what
    [solve_factored ts.(l) bs.(l)] gives alone: every lane does the same
    floating-point operations in the same order, interleaved row by row so
    that the division chains of independent lanes overlap.  Forward
    substitution subtracts row i's terms f(i, r) b(r) for r from i - bw up
    to i - 1 and skips a zero multiplier, the sequence a column-by-column
    elimination applies to b(i), signs of zero included; back substitution
    subtracts row i's terms in column order, then divides by the pivot.
    Bandwidth 1 and, on systems larger than their band, bandwidths 2 and 3
    run those loops unrolled (the ladders of a flow and the coupled
    clusters of a crosstalk analysis), with the same operations in the
    same order, so every width gives the general loops' bits.  The [k]
    matrices must share dimension and bandwidth, each right-hand side must
    match that dimension, and no two lanes may share a right-hand side;
    otherwise [Invalid_argument] (sharing is not checked).  Entries of [ts]
    and [bs] past [k] are ignored. *)

val solve_in_place : t -> float array -> unit
(** Factor destructively and overwrite the right-hand side with the
    solution ({!factor} followed by {!solve_factored}). *)

val solve : t -> float array -> float array

val to_dense : t -> Linalg.mat
