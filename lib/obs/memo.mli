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
  evictions : int;  (** entries dropped to keep a shard within its bound *)
}

val create : ?shards:int -> capacity:int -> unit -> ('k, 'v) t
(** [shards] (default 1) is rounded up to a power of two, within
    [\[1, 65536\]]; [capacity] bounds each shard and is at least 1. *)

val find_or_add : ('k, 'v) t -> 'k -> (unit -> 'v) -> 'v * bool
(** [(value, hit)].  On a miss, [compute] runs outside the lock and one
    miss is counted when it returns, also for a caller that lost the race
    to insert.  If [compute] raises, nothing is counted or stored. *)

val find : ('k, 'v) t -> 'k -> 'v option
(** Counts a hit or a miss; a miss stores nothing. *)

val replace : ('k, 'v) t -> 'k -> 'v -> unit
(** Binds the key, evicting if it is new and its shard is full.  Counts
    no hit or miss. *)

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
