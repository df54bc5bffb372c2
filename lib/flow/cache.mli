(** Concurrent string-keyed result cache with input canonicalization.

    The Ceff↔Tr fixed point is a pure function of (cell, edge, input slew,
    load admittance, line constants, sink load), so repeated bus bits — and
    warm re-runs of a design — can share one solve.  Keys are strings built
    from {e quantized} inputs, and callers must feed the {e same quantized
    values} into the solve itself: that way two nets that collide on a key
    compute bit-identical results, making reports independent of which
    domain populated the cache first (the [--jobs 1] vs [--jobs N]
    determinism guarantee).

    On a concurrent miss both domains compute (the solve runs outside the
    lock); the first insert wins and the duplicate result — equal by
    construction — is dropped.

    The cache is {e sharded}: keys hash-partition across [shards]
    independent tables, each behind its own mutex, so concurrent service
    requests sharing one session cache contend only on same-shard keys
    instead of one global lock.  Hit/miss/length queries aggregate over
    shards; {!shard_stats} exposes the per-shard breakdown (the sums
    always reconcile with {!hits}/{!misses}/{!length}). *)

type 'a t

val default_shards : int
(** 16 — comfortably more shards than plausible worker domains. *)

val create : ?shards:int -> unit -> 'a t
(** [shards] (default {!default_shards}) is clamped to at least 1 and
    rounded up to a power of two. *)

val find_or_add : 'a t -> string -> (unit -> 'a) -> 'a * bool
(** [find_or_add t key compute] returns [(value, hit)].  [compute] runs
    outside the lock on a miss. *)

val find : 'a t -> string -> 'a option
(** Lookup only: counts a hit or a miss exactly as {!find_or_add} does,
    but a miss leaves the table unchanged.  For callers that keep what
    they compute themselves (an incremental retime holds its solves in
    its resident result), so serving edits does not grow the cache. *)

val hits : 'a t -> int
val misses : 'a t -> int
val length : 'a t -> int

val shards : 'a t -> int
(** The shard count actually in use (power of two). *)

type shard_stat = { s_length : int; s_hits : int; s_misses : int }

val shard_stats : 'a t -> shard_stat array
(** Per-shard (length, hits, misses), index-aligned with the partition;
    each field sums to the corresponding aggregate query. *)

val clear : 'a t -> unit

(** {2 Canonicalization helpers} *)

val quantize : float -> float
(** Round to 9 significant decimal digits by a [%.8e] round-trip; total
    order preserved, NaN/inf pass through.  Nine digits comfortably
    exceeds extraction noise while collapsing bit-identical bus parasitics
    emitted with different float garbage. *)

val quantize_slew : float -> float
(** Snap a slew to a 0.1 ps grid: slews arriving from upstream stages
    differ in the last ulps even for symmetric bus bits, so a coarser
    deterministic grid is what makes their cache keys collide. *)

val same_bits : float -> float -> bool
(** Bit-pattern equality: tells [-0.] from [0.] and matches a NaN only
    with the same NaN.  Reuse checks compare floats with it, so a reused
    value's inputs are the previous ones exactly, not merely [=]. *)
