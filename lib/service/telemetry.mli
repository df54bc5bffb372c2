(** Live serving telemetry: bodies of the [metrics] and [health] responses.

    Assembled purely from the session's atomic accounting, the server's
    queue gauges, and the rolling {!Rlc_obs.Window} fed by the listener's
    ticker — never from the span buffers, so building a response is cheap
    and safe to do inline on the listener even under overload.  Counters
    sourced from the window are at most one tick stale;
    [service_requests_total] in the Prometheus text comes from the session
    atomics and is exact. *)

type server_info = {
  workers : int;
  queue_capacity : int;
  queue_depth : int;
  reads : Rlc_obs.Memo.stats;  (** the server's read memo *)
}

val high_water : int -> int
(** Readiness threshold for the admission queue: [ceil(0.8 * capacity)],
    at least 1.  [health] reports not-ready once the depth reaches it. *)

(** Every cache block of the [stats] and [metrics] responses ([cache],
    [characterization], [handles], [designs], [reads]) starts with the
    same five fields, [{entries, capacity, hits, misses, evictions}],
    written by one helper over {!Rlc_obs.Memo.stats}. *)

val cache_json : Session.stats -> Rlc_obs.Memo.stats array -> Json.t
(** The Ceff cache block, plus [shards]: a list of per-shard
    [{entries, hits, misses}]. *)

val designs_json : Session.design_store_stats -> Json.t
(** The design-store block, plus [handles] (= [entries]) and [nets]. *)

val reads_json : Rlc_obs.Memo.stats -> Json.t
(** The server's read-memo block, plus [bytes]: the source bytes and
    response bodies it holds. *)

val metrics_fields :
  session:Session.t ->
  server:server_info ->
  window:Rlc_obs.Window.t ->
  unit ->
  (string * Json.t) list
(** The [metrics] response body: [uptime_s], exact [totals], per-kind
    counters, a [window] block (req/s, timeout/rejection rates, cache hit
    ratio, p50/p95/p99 ms via {!Rlc_obs.Obs.Histogram.quantile}, worker
    utilization), [server] gauges, the four cache blocks ([cache] with
    per-shard stats, [characterization] with [stores], [handles],
    [designs] — ECO store pressure for [top] — and [reads]), and the full Prometheus
    text exposition under ["prometheus"].  Window-derived floats are [nan] (rendered as JSON [null]) when the
    window lacks data — fewer than two samples, or no traffic.  The
    window's req/s and latency quantiles exclude [metrics]/[health]
    scrapes (the server never feeds them into ["service.requests"] or
    ["service.request_s"]), so a frequent scraper cannot dominate them;
    scrapes still show in the per-kind counters and exact totals. *)

val health_fields :
  session:Session.t ->
  server:server_info ->
  window:Rlc_obs.Window.t ->
  unit ->
  (string * Json.t) list
(** The [health] response body: [alive] (always [true]), [ready], and the
    individual [checks] — pool up ({!Session.is_closed} false), queue
    depth below {!high_water}, and no deadline storm (more than half the
    window's requests expiring) in the current window. *)

val prometheus :
  stats:Session.stats ->
  shards:Rlc_obs.Memo.stats array ->
  designs:Session.design_store_stats ->
  server:server_info ->
  window:Rlc_obs.Window.t ->
  unit ->
  string
(** The Prometheus text exposition alone ([# HELP]/[# TYPE] metadata,
    counters, gauges, and log2-bucketed histograms with cumulative [le]
    buckets, [_sum], [_count] and [+Inf]).  Each cache [c] in [cache],
    [char], [handle], [designs] and [reads] has [service_c_entries] and
    [service_c_capacity] gauges and [service_c_hits_total],
    [service_c_misses_total] and [service_c_evictions_total] counters;
    [service_reads_bytes] is the read memo's {!reads_json} [bytes]. *)
