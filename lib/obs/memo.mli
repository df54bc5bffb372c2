(** A bounded, domain-safe memo table: the one cache abstraction.  The Ceff
    result cache, the characterized-cell store, the compiled transient
    handles and the daemon's resident designs are all memos.

    Keys are hashed with [Hashtbl.hash] and compared with [compare], so
    they must hold no functions.  They partition across a power-of-two
    number of shards by the hash's high bits (a shard's table picks its
    buckets by the low bits); each shard has its own mutex.

    Each shard holds at most [capacity] entries: inserting a new key into
    a full shard first evicts that shard's least recently used entry.  A
    use is an insert, a {!replace}, or a hit.

    A memo created with a [weight] also bounds each shard's total weight:
    an insert evicts least recently used entries until the new one fits
    under [max_weight], and an entry heavier than [max_weight] on its own
    is not stored at all (the caller still has its value).

    First insert wins: {!find_or_add} computes a missing value outside the
    lock, so two callers that miss one key at once both compute, and the
    later one gets the earlier one's value.  The memo is meant for pure
    computations, whose two values are equal.

    Hits, misses and evictions only ever grow; {!clear} leaves them. *)

type ('k, 'v) t

type stats = {
  entries : int;
  capacity : int;  (** the bound on [entries] *)
  hits : int;
  misses : int;
  evictions : int;  (** entries dropped to keep a shard within its bounds *)
  weight : int;  (** the entries' total weight; [0] for a memo without one *)
}

val create :
  ?shards:int -> ?weight:('k -> 'v -> int) -> ?max_weight:int -> capacity:int -> unit -> ('k, 'v) t
(** [shards] (default 1) is rounded up to a power of two, within
    [\[1, 65536\]]; [capacity] bounds each shard and is at least 1.
    [weight] (default: every entry weighs 0) is taken once, when an entry
    is stored; [max_weight] (default [max_int]) bounds each shard's sum of
    it. *)

val find_or_add : ('k, 'v) t -> 'k -> (unit -> 'v) -> 'v * bool
(** [(value, hit)].  On a miss, [compute] runs outside the lock and one
    miss is counted when it returns, also for a caller that lost the race
    to insert.  If [compute] raises, nothing is counted or stored. *)

val find : ?valid:('v -> bool) -> ('k, 'v) t -> 'k -> 'v option
(** Counts a hit or a miss; a miss stores nothing.  With [valid], a value
    is a hit only if [valid] accepts it: [valid] runs outside the lock, and
    a value it refuses counts as a miss and stays stored until a {!replace}
    or an eviction drops it. *)

val replace : ('k, 'v) t -> 'k -> 'v -> unit
(** Binds the key, evicting until it fits.  A value over [max_weight]
    leaves the key unbound.  Counts no hit or miss. *)

val remove : ('k, 'v) t -> 'k -> bool
(** [true] when the key was present.  Not an eviction. *)

val fold : ('k -> 'v -> 'a -> 'a) -> ('k, 'v) t -> 'a -> 'a
(** Over a snapshot of each shard, taken under its lock; [f] runs outside
    every lock, in no particular order. *)

val clear : ('k, 'v) t -> unit
(** Drops every entry; the counters keep their values. *)

val stats : ('k, 'v) t -> stats
(** The sum of {!shard_stats}. *)

val shard_stats : ('k, 'v) t -> stats array
(** One record per shard, in shard order. *)
