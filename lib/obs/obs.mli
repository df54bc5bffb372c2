(** Domain-safe instrumentation: counters, value histograms, and spans.

    A sink is either enabled ({!create}) or the shared disabled {!null}.
    Every operation on a disabled sink reduces to a single branch — no
    clock reads, no allocation — so instrumented code paths stay
    bit-identical and speed-neutral when observability is off.

    Enabled sinks buffer per domain (via [Domain.DLS]) and merge at
    {!snapshot}, so worker domains in [Rlc_parallel.Pool] record without
    lock contention.  Snapshot after the instrumented work has quiesced
    (pool drained or joined). *)

type t
(** An instrumentation sink. *)

val create : ?spans:bool -> unit -> t
(** A fresh enabled sink.  Its epoch is the creation time; span start
    timestamps are relative to it.

    [~spans:false] keeps counters and histograms live but makes every span
    operation ({!start}/{!finish}/{!time}) a no-op.  Counters and
    histograms occupy one slot per distinct name regardless of traffic,
    but spans are retained until {!snapshot} — memory proportional to the
    number recorded — so a long-running daemon that only feeds a telemetry
    window should record spans only when a trace sidecar will consume
    them.  Default [true]. *)

val null : t
(** The shared disabled sink: every operation is a no-op. *)

val enabled : t -> bool

val spans_enabled : t -> bool
(** Whether this sink records spans: enabled and created with
    [~spans:true].  [false] for {!null}. *)

val now : unit -> float
(** Wall-clock seconds ([Unix.gettimeofday]).  The repo has no monotonic
    clock dependency; durations are clamped to [>= 0]. *)

(** {1 Counters} *)

val add : t -> string -> int -> unit
val incr : t -> string -> unit

(** {1 Value histograms}

    Each observed value updates count/sum/min/max and a 32-bucket log2
    histogram (bucket [i] covers [[2^i, 2^(i+1)) ns] for durations in
    seconds; any positive unit works, buckets are just log2-spaced). *)

val observe : t -> string -> float -> unit

(** {1 Ambient trace id}

    A per-domain trace id (one process-wide slot, independent of any sink).
    While installed, every span recorded by {!finish}/{!time} — in any
    library layer — carries a [("trace", id)] arg, so all spans belonging
    to one served request can be filtered out of a merged Chrome trace.
    [Rlc_parallel.Pool] snapshots the publisher's ambient trace per batch
    and re-installs it around each worker's drain, exactly like the
    ambient deadline. *)

val with_trace : string option -> (unit -> 'a) -> 'a
(** [with_trace (Some id) f] runs [f] with [id] as the calling domain's
    ambient trace id, restoring the previous value afterwards (also on
    exceptions).  [with_trace None f] clears it for the extent of [f]. *)

val current_trace : unit -> string option
(** The calling domain's ambient trace id, if any. *)

(** {1 Spans} *)

val start : t -> float
(** Timestamp to later pass to {!finish}.  Returns [0.] when disabled. *)

val finish : t -> ?args:(string * string) list -> string -> float -> unit
(** [finish t ~args name t0] records a span from [t0] (a {!start} result)
    to now.  No-op when disabled. *)

val time : t -> ?args:(string * string) list -> string -> (unit -> 'a) -> 'a
(** [time t name f] runs [f] inside a span.  Exception-safe: a raising
    [f] still records the span, with an ["error"] arg, then re-raises. *)

(** {1 Per-request layer split}

    A per-domain tally of wall time by layer name (one process-wide slot,
    independent of any sink, like the trace id).  A server installs one
    around each request to say where that request's time went even when
    its sink records no spans. *)

val with_split : (unit -> 'a) -> 'a * (string * float) list
(** [with_split f] runs [f] with a fresh split installed on the calling
    domain and returns [f]'s value with the seconds {!layer} charged to
    each name while it ran, in first-charged order (names never charged
    are absent).  The previous split is restored afterwards. *)

val layer : t -> string -> (unit -> 'a) -> 'a
(** [layer t name f] is [time t name f] that also charges its wall time
    to the calling domain's split, when one is installed (also when [f]
    raises).  Without a split and with spans off it reads no clock. *)

(** {1 Snapshot} *)

type span = {
  sp_name : string;
  sp_tid : int;  (** recording domain id *)
  sp_start : float;  (** seconds since the sink's epoch *)
  sp_dur : float;  (** seconds, [>= 0] *)
  sp_args : (string * string) list;
}

type stat_summary = {
  count : int;
  sum : float;
  min : float;
  max : float;
  buckets : int array;  (** length {!n_buckets} *)
}

type metrics = {
  m_counters : (string * int) list;  (** name-sorted, summed over domains *)
  m_stats : (string * stat_summary) list;  (** name-sorted, merged *)
  m_spans : span list;  (** sorted by (tid, start, longest-first) *)
}

val n_buckets : int

val snapshot : t -> metrics
(** Merge all per-domain buffers.  Call after instrumented work has
    quiesced; concurrent recording during a snapshot is not torn (each
    buffer is read whole) but may be partially missed. *)

val snapshot_light : t -> metrics
(** Like {!snapshot} but skips the span merge ([m_spans] is [[]]).  Cost is
    O(distinct metric names), independent of how many spans have been
    recorded — suitable for a periodic telemetry ticker that runs for the
    life of a daemon. *)

(** {1 Histogram estimation} *)

module Histogram : sig
  val bucket_lo : int -> float
  (** Lower bound of log2 bucket [i] in seconds ([0.] for bucket 0, which
      also absorbs sub-nanosecond values). *)

  val bucket_hi : int -> float
  (** Exclusive upper bound of log2 bucket [i] in seconds ([2^(i+1)] ns). *)

  val quantile : stat_summary -> float -> float
  (** [quantile s q] estimates the [q]-quantile ([0. <= q <= 1.], clamped)
      of the observed distribution from its log2 buckets: walk the
      cumulative counts to rank [q * count], interpolate linearly inside
      the landing bucket, clamp to the exact [[s.min, s.max]].  Worst-case
      relative error is bounded by the factor-2 bucket width.  Returns
      [nan] when [s.count = 0]. *)
end

val counter : metrics -> string -> int
(** Merged value of a counter, [0] if never incremented. *)

val span_total : metrics -> string -> int * float
(** [(occurrences, total seconds)] over all spans with that name. *)
