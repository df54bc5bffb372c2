(** A resident timing session — the redesigned embedding API.

    One value of type {!t} owns everything that is worth keeping warm
    between requests: the technology, the characterization store
    (populated on first use, shared process-wide), the cross-request Ceff
    result cache ({!Rlc_flow.Flow.create_cache}), a running
    {!Rlc_parallel.Pool} of worker domains, and a bounded store of
    resident incrementally timed designs ({!design_load} /
    {!flow_delta}), each store an {!Rlc_obs.Memo}.  The CLI's one-shot
    [flow] command and the {!Server} both drive this module — the same ingest, the same
    {!Request.t}, the same {!Rlc_flow.Report.json_string} — which is what
    guarantees the daemon's report payloads are byte-identical to the
    CLI's.

    Every operation returns [(_, Error.t) result]; the raising entry points
    of the lower layers are confined behind it.

    No operation takes a deadline or a trace id: each runs under the
    caller's ambient ones.  An embedder bounds a call by running it inside
    [with_ambient] of an {!Rlc_errors.Deadline.t}, and expiry escapes as
    {!Rlc_errors.Deadline.Expired}.  The {!Server} installs a deadline
    and a trace id around each request and answers expiry as
    [timeout]. *)

module Config : sig
  type t = {
    tech : Rlc_devices.Tech.t;  (** default {!Rlc_devices.Tech.c018} *)
    jobs : int;
        (** worker domains of the resident pool; default 1 (the benched
            1-core container).  Request budgets are deadline-based
            ({!Rlc_errors.Deadline}) and work at any [jobs] count — the
            pool propagates the ambient deadline into its batches. *)
    dt : float;  (** default replay timestep, 0.5 ps *)
    use_cache : bool;  (** default true *)
    default_size : float;  (** spec-less flow driver size, default 75X *)
    default_slew : float;  (** spec-less primary slew, default 100 ps *)
    design_capacity : int;
        (** resident designs kept by the store, default 8 (clamped to at
            least 1); loading beyond it evicts the least-recently-used
            handle (a use is a load or a delta) *)
    obs : Rlc_obs.Obs.t;  (** default disabled *)
  }

  val default : t
end

type t

val create : ?config:Config.t -> unit -> t
(** Start a session: spawns the pool ([jobs - 1] domains) and creates an
    empty shared cache.  Characterization happens lazily on first use
    unless {!warm} is called. *)

val config : t -> Config.t
val close : t -> unit
(** Shut the pool down.  Idempotent; the session must not be used after. *)

val is_closed : t -> bool
(** Whether {!close} has run — i.e. the pool is no longer up.  The server's
    [health] readiness check reads this. *)

val with_session : ?config:Config.t -> (t -> 'a) -> 'a
(** [create], run, [close] (also on exceptions). *)

(** {2 Operations} *)

val ingest :
  t ->
  ?spef_name:string ->
  ?spec:string ->
  ?spec_name:string ->
  ?size:float ->
  ?slew:float ->
  spef:string ->
  unit ->
  (Rlc_flow.Design.t, Error.t) result
(** Parse SPEF (and spec, when given) text into a levelized design.
    [spef_name]/[spec_name] label {!Error.Parse} errors with the file the
    text came from, so messages render as [file:line: message].  Without a
    spec, every net becomes a primary input driven at [size] (default
    [Config.default_size]) and [slew] (default [Config.default_slew]). *)

type xtalk_request = { threshold : float; budget : float; alignments : int }
(** Crosstalk knobs as fractions of VDD plus the alignment-grid size —
    the subset of {!Rlc_xtalk.Xtalk.Config.t} a client may set; the pool,
    obs sink, and timestep always come from the session. *)

val default_xtalk : xtalk_request
(** {!Rlc_xtalk.Xtalk.Config.default}'s threshold (0.05), budget (0.25) and
    alignments (9). *)

(** The whole per-request knob surface of a flow as one typed record —
    what used to be eight optional arguments.  The CLI one-shot path, the
    v1 [flow] kind and the v2 [design_load] kind all decode into this, so
    byte-identity of their reports is structural.  Every field but
    [progress] is an input the answer depends on.  Build requests with
    [{ Request.default with required = Some ... }]. *)
module Request : sig
  type t = {
    required : float option;  (** required time (seconds): adds slack *)
    use_cache : bool option;  (** default [Config.use_cache] *)
    dt : float option;  (** default [Config.dt] *)
    adaptive : Rlc_circuit.Engine.adaptive option;
        (** LTE-controlled stepping; part of the cache key *)
    progress : Rlc_obs.Progress.t option;
    xtalk : xtalk_request option;  (** run crosstalk analysis when set *)
  }

  val default : t
  (** Everything [None] — session defaults throughout. *)
end

type flow_outcome = {
  result : Rlc_flow.Flow.result;
  xtalk : Rlc_xtalk.Xtalk.result option;
      (** present when the request asked for crosstalk analysis *)
  report : string;
      (** {!Rlc_flow.Report.json_string} of [result] — the exact payload
          the CLI writes with [--json]; includes the [xtalk] fragment when
          the analysis ran *)
  report_escaped : string list option;
      (** [report] as {!Json.escape} escapes it, in pieces whose
          concatenation is [Json.escape report] — present for
          {!design_load} and {!flow_delta}, whose handle keeps each report
          entry escaped ({!Rlc_flow.Report.json_escaped}), so a delta
          escapes only the entries it re-rendered; [None] for {!flow}. *)
}

val uses_cache : t -> Request.t -> bool
(** Whether a flow of [req] looks up and fills the session's Ceff cache:
    [req.use_cache], or the session's [Config.use_cache] when it is
    absent. *)

val flow : t -> Request.t -> Rlc_flow.Design.t -> (flow_outcome, Error.t) result
(** Run the full-design flow on the session's pool against the session's
    shared cache (so a repeated design is all cache hits; the per-run
    hit/miss deltas are in [result.stats]).  See {!Request.t} for the
    knobs.  The session is safe to drive from several server worker
    domains at once: the cache is sharded, the pool accepts concurrent
    batches, and request accounting is atomic. *)

(** {2 Incremental designs (ECO)} *)

val design_load :
  t ->
  ?spef_name:string ->
  ?spec:string ->
  ?spec_name:string ->
  ?size:float ->
  ?slew:float ->
  req:Request.t ->
  spef:string ->
  unit ->
  (string * flow_outcome, Error.t) result
(** Parse, ingest, and cold-time a design ({!Rlc_flow.Flow.time}), keep it
    resident, and return its handle (["d1"], ["d2"], ...) plus the full
    cold outcome.  The request — minus its [progress] sink — is stored
    with the handle and governs every subsequent {!flow_delta}, so a
    handle's reports always come from one consistent configuration.
    Loading beyond [Config.design_capacity] evicts the least-recently-used
    handle. *)

val flow_delta :
  t ->
  handle:string ->
  Rlc_flow.Delta.t ->
  (flow_outcome * Rlc_flow.Flow.delta_stats, Error.t) result
(** Apply an ECO delta to a resident design ({!Rlc_flow.Flow.retime}): only
    the changed nets, their fan-out cones, and (when the handle was loaded
    with [xtalk]) coupling partners of changed nets are re-solved; the
    rest keep their ingest records, cache keys and solves wherever those
    inputs are provably the previous ones.  Re-solves are looked up in the
    session's Ceff cache but never inserted, so deltas leave
    [stats.cache.entries] where {!design_load} left it.  The report copies
    each net entry from the handle's previous report when the entry's
    inputs are unchanged ({!Rlc_flow.Report.entries}); the summary is
    recomputed.  The returned report is byte-identical to a cold run of
    the edited design under the handle's configuration.  Deltas to one
    handle are serialized; different handles proceed concurrently.  An
    unknown handle is {!Error.Bad_request}. *)

val design_unload : t -> string -> (unit, Error.t) result
(** Drop a resident design.  Unknown handles are {!Error.Bad_request}. *)

val case :
  t ->
  ?slew_ps:float ->
  ?cl_ff:float ->
  length_mm:float ->
  width_um:float ->
  size:float ->
  unit ->
  (Rlc_ceff.Evaluate.case, Error.t) result
(** Build a single-net case from geometry ({!Rlc_ceff.Evaluate.case}). *)

val sweep_case :
  t -> ?dt:float -> Rlc_ceff.Evaluate.case -> (Rlc_ceff.Evaluate.comparison, Error.t) result
(** Model-vs-reference scoring of one case (a Figure-7 sweep cell). *)

val screen : t -> Rlc_ceff.Evaluate.case -> (Rlc_ceff.Driver_model.t, Error.t) result
(** Run the paper's model once and return it; the Eq. 9 inductance verdict
    is [model.screen]. *)

val warm : t -> float list -> (unit, Error.t) result
(** Pre-characterize driver sizes into the memo table, so the first
    request doesn't pay the characterization transient.  Like
    {!screen}, {!sweep_case} and every flow, it characterizes on the
    session's own pool (a [jobs = 1] session inline), and records its
    counters and ["pool.batch"] spans into [config.obs]. *)

(** {2 Accounting} *)

type stats = {
  uptime_s : float;
  requests_served : int;
  requests_failed : int;
  cache : Rlc_obs.Memo.stats;  (** the session's Ceff cache *)
}

type design_store_stats = {
  ds_store : Rlc_obs.Memo.stats;  (** [entries] are the resident handles *)
  ds_nets : int;  (** nets held across all resident designs *)
}

val note : t -> ok:bool -> unit
(** Count one finished request (the server calls this once per line). *)

val stats : t -> stats

val design_stats : t -> design_store_stats
(** Design-store pressure, surfaced by the [stats]/[metrics] responses so
    [top] can show a v2 daemon's resident-design footprint. *)

val shard_stats : t -> Rlc_obs.Memo.stats array
(** Per-shard stats of the session's Ceff cache, index-ordered — the
    telemetry layer surfaces these in the [stats] and [metrics]
    responses. *)
