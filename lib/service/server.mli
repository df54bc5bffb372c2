(** The daemon's request loop: {!Protocol} lines in, {!Protocol} lines
    out, one {!Session} underneath.

    Requests are served in order {e per connection} and in isolation — a
    request that fails in {e any} way (malformed JSON, oversized line, bad
    design, an exception from the numeric layers, an exceeded time budget)
    produces a typed error response and the daemon keeps serving.

    {b Concurrency.}  The Unix-socket transport multiplexes every client
    through one listener: decoded requests enter a bounded admission
    queue and [workers] domains drain it, writing each response back on
    its originating connection.  A connection has at most one request in
    flight at a time, so responses arrive in request order per client
    while different clients' requests run concurrently.  When the queue
    is full, admission fails immediately with the wire-stable [timeout]
    error code — overload is a fast typed rejection, not unbounded
    latency.  Pipe mode ({!serve_channels}) stays strictly serial.

    {b Request scope.}  The per-request wall-clock budget (default
    {!default_timeout_s}, overridable per request with ["timeout_ms"]) is
    a per-request {!Rlc_errors.Deadline}, checked when a queued request
    reaches a worker (entries that expired while waiting are answered
    without running).  The server installs it with
    {!Rlc_errors.Deadline.with_ambient} around dispatch, and the request's
    trace id with {!Rlc_obs.Obs.with_trace} around dispatch and encoding;
    the pool carries both into its worker domains, and the engine's step
    loops poll the deadline.  Nothing between takes either as an
    argument.  Expiry surfaces as the same [timeout] error the old
    ITIMER_REAL/SIGALRM mechanism produced, but works with any [jobs]
    count and any number of concurrent requests.

    {b Failures.}  One function builds every failure line — a line that
    does not decode, an oversized line, a full queue, expiry while queued,
    the shutdown drain, and a request that fails while running.  It counts
    the failure in the session totals, logs it, and echoes the request's
    {!Protocol.envelope}: its ["id"] and schema tag whenever the line
    parsed as a JSON object, {!Protocol.no_envelope} otherwise. *)

(** {b Served reads.}  A [flow] or [xtalk] answer is a pure function of
    its source bytes, its fields and the session's config, so each server
    keeps a read memo (an {!Rlc_obs.Memo}, per server, never shared): the
    key is every source (inline text, or a file path) with [size],
    [slew_ps], [required_ps], [dt_ps] and the xtalk knobs — not the
    envelope, not [timeout_ms]; the value is the exact bytes the answer
    was computed from and the encoded response body
    ({!Protocol.ok_body}).  A repeat streams each named file through a
    reusable per-domain buffer and compares it byte for byte with the
    stored bytes; only if every file matches (one that cannot be opened,
    or differs in any byte, is a miss) does it write {!Protocol.ok_prefix}
    of its own envelope, the stored body and the newline, as separate
    pieces, allocating nothing that grows with the answer.  A miss reads
    each file once and times exactly those bytes.  Only a warm run is
    stored, one whose every net was a Ceff-cache hit, with exactly the
    bytes it timed; so a hit answers what a run on the warm cache
    answers ([cache_hits] = [nets], [cache_misses] = 0,
    [iterations_spent] = 0); on a fresh session with no other traffic a
    read's second send is its first warm run.  Errors are never stored.  A
    request that does not use the Ceff cache ({!Session.uses_cache})
    neither looks the memo up nor fills it.
    The memo's bounds are constants (DESIGN.md §3): 64 entries and 8 MiB
    of stored bytes; an answer heavier than 8 MiB is answered but not
    stored.  The [stats] and [metrics] responses carry its [reads] block
    ({!Telemetry.reads_json}). *)

(** {b Incremental designs.}  Under the ["rlc-service/2"] schema the
    daemon is a long-lived incremental timer: [design_load] times a design
    cold and keeps it resident in the session's bounded LRU store,
    [flow_delta] re-times only the edited nets' fan-out cones (answering
    with the flow fields plus [retimed_nets]/[reused_nets]), and
    [design_unload] drops the handle.  Deltas to one handle serialize;
    different handles run concurrently on the worker pool.  v1 request
    lines are answered byte-for-byte as before — responses echo the
    request's schema tag. *)

type t

val default_timeout_s : float
(** 60 seconds. *)

val default_workers : int
(** 1 — serial service, the right default for the benched 1-core box. *)

val default_queue_capacity : int
(** 64 queued requests. *)

val default_tick_period_s : float
(** 1 second between telemetry window samples. *)

val create :
  ?timeout_s:float ->
  ?max_request_bytes:int ->
  ?workers:int ->
  ?queue_capacity:int ->
  ?backlog:int ->
  ?slow_ms:float ->
  ?slow_channel:out_channel ->
  ?tick_period_s:float ->
  Session.t ->
  t
(** Wrap a session.  [timeout_s <= 0] or [infinity] disables the request
    timeout; [max_request_bytes] defaults to
    {!Protocol.default_max_bytes}.  [workers] (default
    {!default_workers}) is the number of executor domains spawned by
    {!serve_unix}; [queue_capacity] (default {!default_queue_capacity})
    bounds the admission queue; [backlog] is the kernel listen queue and
    defaults to [queue_capacity].  All three are clamped to at least 1.

    [slow_ms] turns on the slow-request log: any request whose execution
    wall time reaches the threshold (so [~slow_ms:0.] logs every request)
    emits one JSON line on [slow_channel] (default [stderr]) with fields
    [slow_request], [trace], [kind], [queue_wait_ms], [wall_ms], [ok],
    [worker] (executor domain index, [-1] for requests served on the
    serving loop itself), [cache_hits] when the response carries it,
    [memo] on a [flow] or [xtalk] line ([true] when the read memo
    answered it), and the request's split of [wall_ms] over the daemon's
    own layers:
    [ingest_ms] ({!Rlc_flow.Design.ingest}), [render_ms] (the report,
    {!Rlc_flow.Report.json_string}) and [encode_ms] (the response body),
    each [0] when the request did not run that layer (a read-memo hit runs
    none of them).  The same three run
    as ["design.ingest"], ["report.render"] and ["service.encode"] spans
    inside ["service.request"] when the session's sink records spans.

    [tick_period_s] (default {!default_tick_period_s}) is the telemetry
    ticker period of the 60-sample rolling window; it only matters when
    the session's obs sink is enabled.  The session is borrowed: closing it after the serve loop
    returns is the caller's job. *)

val window : t -> Rlc_obs.Window.t
(** The rolling telemetry window the serve loop's ticker feeds — what the
    [metrics]/[health] kinds read; exposed for embedders (e.g. the bench)
    that want the same digest without a socket round-trip. *)

val stop : t -> unit
(** Ask the serve loop to exit after in-flight requests (what the
    [SIGTERM] handler calls).  Safe from any domain: wakes the listener's
    select via its self-pipe. *)

val stopped : t -> bool

val handle_line : t -> string -> string * [ `Continue | `Stop ]
(** Serve exactly one request line and return the one-line response
    (without the trailing newline) plus whether the caller should keep
    serving ([`Stop] after a [shutdown] request).  Never raises; this is
    the transport-free core the tests and the bench drive directly.  It
    joins the response's pieces into one string; the two transports write
    them one after another. *)

val serve_channels : t -> in_channel -> out_channel -> unit
(** Pipe mode: read request lines until EOF, a [shutdown] request, or
    {!stop}; write one flushed response line each.  Blank lines are
    skipped.  Strictly serial.  Installs the [SIGTERM]/[SIGPIPE]
    handlers. *)

val serve_unix : t -> path:string -> unit
(** Unix-domain-socket mode: bind [path] (an existing socket file is
    replaced), listen with the configured [backlog], and serve many
    clients concurrently — listener select loop, bounded admission queue,
    [workers] executor domains (see the module doc).  [EINTR] from
    [accept]/[select]/[read]/[write] is retried or drained cleanly, so a
    SIGTERM-time signal cannot escape as [Unix_error].  A [shutdown]
    request (or {!stop}, or SIGTERM) stops admission, drains in-flight
    work, answers anything still queued with a typed [timeout], joins the
    workers, and unlinks the socket file on the way out.

    With [obs] enabled on the session, serving records
    ["service.connections"], ["service.admitted"],
    ["service.rejected_queue_full"], ["service.rejected_expired"],
    ["service.timeouts"], ["service.requests"] and per-kind
    ["service.requests.<kind>"] counters, ["service.queue_depth"] /
    ["service.queue_wait_s"] / ["service.request_s"] histograms, and a
    ["service.request"] span per executed request (args: worker id,
    request kind, trace id).  Inline [metrics]/[health] scrapes are
    excluded from ["service.requests"] and ["service.request_s"] — the
    window's req/s and latency quantiles measure real work, not scraper
    overhead — but still appear in their per-kind counters and in the
    exact session totals.  A trace id is minted per request at
    admission and installed ambiently for its whole execution, so every
    span the request records — down through flow, pool batches, and the
    engine — carries a [("trace", id)] arg.  The listener also samples
    the obs counters into the rolling telemetry {!window} every
    [tick_period_s]; the [metrics] and [health] kinds are answered inline
    by the listener (never queued), so they keep responding while the
    admission queue is saturated. *)
