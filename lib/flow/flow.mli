(** The parallel full-design timing flow.

    Levels run in order; within a level the nets are independent, fanned
    out over a {!Rlc_parallel.Pool} of OCaml domains in chunks of
    min(8, ⌈nets / jobs⌉), one job each, so every domain gets work.  A job
    canonicalizes each net's inputs ({!Cache.quantize} on the admittance
    fit and line constants, {!Cache.quantize_slew} on the input slew),
    consults the Ceff result cache once per net, and runs the paper's model
    ({!Rlc_ceff.Driver_model.model_pade}) for each miss; it then replays
    the misses' modeled waveforms through their nets as one batch
    ({!Rlc_ceff.Reference.far_timings}, so same-structure replays step in
    lock-step lanes) and inserts them.  A net whose key an earlier net of
    the chunk holds is looked up after those inserts.  Far-end slews hand
    off to the next level exactly as {!Rlc_sta.analyze} hands off between
    stages of a path ({!Rlc_sta.handoff_slew}, edge alternation
    included).

    A cold run and a {!retime} are one pass; a retime adds a previous
    state to reuse from.

    Determinism: every per-net quantity in {!net_result} is a pure function
    of the canonicalized inputs, and results are stored by net id — so
    reports are byte-identical for any [jobs] count.  Cache hit/miss
    counters and wall times {e do} depend on scheduling and are only
    surfaced through {!stats} / logs, never through report payloads.

    Request scope: {!run_cfg}, {!time} and {!retime} take no deadline or
    trace id.  They run under the caller's ambient deadline
    ({!Rlc_errors.Deadline.ambient}) and trace id
    ({!Rlc_obs.Obs.current_trace}), which the pool carries into its
    worker domains; the serial phases poll the deadline at level
    boundaries and before each chunk, and the replay engine inside its
    step loops.  Expiry
    raises {!Rlc_errors.Deadline.Expired}.  With nothing installed,
    nothing expires and spans carry no trace. *)

type solve = {
  model : Rlc_ceff.Driver_model.t;
  stage_delay : float;  (** driver-input 50 % -> far-end 50 % (replayed) *)
  far_slew : float;  (** 10–90 at the far end of the replayed waveform *)
  iterations : int;  (** Ceff fixed-point iterations of this solve *)
}

type net_result = {
  net : Design.net;
  edge : Rlc_waveform.Measure.edge;  (** driver output edge *)
  input_slew : float;  (** quantized slew presented at the driver input *)
  solve : solve;
  arrival : float;  (** cumulative arrival at the net's far end, s *)
}

type phase = { p_name : string; p_seconds : float }

type stats = {
  n_nets : int;
  n_levels : int;
  n_inductive : int;  (** Eq. 9 verdicts (deterministic) *)
  n_two_ramp : int;
  iterations_total : int;  (** sum of per-net solve iterations (deterministic) *)
  cache_hits : int;
      (** this run's own Ceff cache lookups, none of a concurrent run's;
          scheduling-dependent, never reported in JSON/CSV *)
  cache_misses : int;
  char_hits : int;
      (** characterization-store hits and misses: process-wide
          {!Rlc_liberty.Characterize.stats} deltas over the run, so unlike
          the Ceff counts they include any concurrent request's; they stay
          out of report payloads *)
  char_misses : int;
  char_stores : int;  (** the store's [entries] delta over the run *)
  iterations_spent : int;  (** iterations this run actually ran = sum over its solves *)
  jobs_used : int;
      (** worker domains actually used, after clamping the request to the
          machine's core count; surfaced in the human summary only *)
  phases : phase list;  (** wall time per phase, in execution order; empty for a retime *)
}

type result = { design : Design.t; results : net_result array; stats : stats }

type cache = (string, solve) Rlc_obs.Memo.t

val create_cache : unit -> cache
(** A cache that can be shared across {!run_cfg} invocations (warm
    re-timing), including across {e concurrent} requests of a resident
    [Rlc_service.Session]: 16 shards of at most 1,024 solves each. *)

(** The whole knob surface of a flow run as one record, replacing the old
    eight-optional-argument {!run} convention.  Build configurations with
    [{ Config.default with dt = ... }]. *)
module Config : sig
  type flow_config = {
    dt : float;  (** replay timestep, seconds; default 0.5 ps *)
    adaptive : Rlc_circuit.Engine.adaptive option;
        (** when set, far-end replays run under LTE-controlled adaptive
            stepping ([dt] is then unused by the engine).  The parameters
            are folded into the Ceff cache key, so a shared cache never
            mixes fixed-step and adaptive solves. *)
    jobs : int option;
        (** worker domains of the process-wide resident pool the run uses
            ({!Rlc_parallel.Pool.borrow}); [None] means
            {!Rlc_parallel.Pool.default_jobs}; requests beyond the core
            count are clamped (see [stats.jobs_used]).  Ignored when
            [pool] is given. *)
    use_cache : bool;  (** default true *)
    cache : cache option;
        (** share a cache across runs; [None] creates a fresh one per run *)
    obs : Rlc_obs.Obs.t;  (** default {!Rlc_obs.Obs.null} (disabled) *)
    progress : Rlc_obs.Progress.t option;
    pool : Rlc_parallel.Pool.t option;
        (** borrow a caller-owned pool: the run uses it as-is and leaves it
            running (the service daemon's warm pool).  [None] (default)
            uses the process-wide resident pool of [jobs] domains. *)
  }

  type t = flow_config

  val default : t
end

val fails_alone : exn -> bool
(** Whether an exception belongs to one net's solve or search alone:
    anything but {!Rlc_errors.Deadline.Expired}, which ends the whole
    run.  The flow's chunk solver and [Optimize]'s rounds keep such a
    failure as that net's outcome. *)

val map_lanes :
  ?obs:Rlc_obs.Obs.t -> Rlc_parallel.Pool.t -> 'a array -> ('a array -> 'b array) -> 'b array
(** [map_lanes pool items f] applies [f] to consecutive chunks of
    [items], one pool job a chunk, and returns its results (one per item)
    in item order.  A chunk is as wide as the lanes a transient batch can
    fill with every domain busy: [Engine.Compiled.max_lanes], or
    [items / jobs] rounded up when that is fewer.  The flow's level
    solves and {!solve_batch} chunk this way. *)

val solve_batch :
  Config.t ->
  pool:Rlc_parallel.Pool.t ->
  tech:Rlc_devices.Tech.t ->
  (Design.net * Rlc_waveform.Measure.edge * float) array ->
  (solve, exn) Stdlib.result array
(** Evaluate driver-size candidates: each [(net, edge, input_slew)] is a
    net's interconnect with its driver at [net.size] (the caller's
    candidate), canonicalized and solved exactly as the flow solves its
    own nets (same quantization, same cache keys via [Config.cache] when
    [use_cache]), through the flow's chunk solver: look up, model the
    misses, replay them as one lane batch, insert.  Chunks are one
    [pool] job each, as wide as the flow's: [Engine.Compiled.max_lanes],
    or fewer when that would leave a domain idle.  Each result is a pure
    function of its quantized inputs, so sweeps built on it are
    jobs-independent, and a later flow at the chosen size hits the same
    cache entries.  No per-net telemetry.  Each outcome is the
    candidate's own: [Error] carries what solving it alone would raise;
    an expired deadline aborts the batch. *)

val run_cfg : Config.t -> Design.t -> result
(** Run the flow cold under a {!Config.t}: the solve pass with nothing to
    reuse, inserting every miss into the cache.  Cells for every driver
    size are characterized up front, one size after another, each as one
    batch of its grid points on the run's pool (the store is shared and
    only read during the solve fan-out).

    [Config.obs] (default disabled) records a ["flow.net"] span (args: net
    name, level, [cache] hit/miss, Ceff iteration count, waveform shape;
    it covers the lookup and, on a miss, the model, while the chunk's
    replay batch runs after every such span of the chunk)
    and the counters ["flow.nets"], ["flow.cache.hits"]/["flow.cache.misses"],
    ["flow.ceff_iterations"] (per-net solve iterations, cached or not —
    on a cold run sums to [stats.iterations_total]) and
    ["flow.ceff_iterations_run"] (solves actually run — sums to
    [stats.iterations_spent]) for every net the pass looks up or solves,
    in a {!retime} too.  Only a cold run records the
    ["flow.characterize"] / ["flow.solve"] / ["flow.arrivals"] phase spans
    and a ["flow.level"] span per timing level.  The sink is also
    forwarded to the pool, the driver model, and the replay engine.
    Telemetry stays out of {!Report} payloads by construction.

    [Config.progress] (default none) is reported the cumulative
    finished-net count after each level completes. *)

(** A stateful timed design: the levelized design, its per-net results
    (which carry the handoff slews), the canonical cache key each net
    solved under, and the sources + configuration that produced them —
    everything {!retime} needs to re-time an edit incrementally. *)
module Timed : sig
  type t

  val result : t -> result
  (** The full flow result; always equal to what a cold {!run_cfg} of the
      current (post-delta) sources would produce. *)

  val design : t -> Design.t
end

val time :
  ?tech:Rlc_devices.Tech.t ->
  Config.t ->
  spef:Rlc_spef.Spef.t ->
  spec:Spec.t ->
  unit ->
  (Timed.t, Rlc_errors.Error.t) Stdlib.result
(** Cold-load a design: {!Design.ingest} the sources, run the full flow
    under the configuration ({!run_cfg} — which may raise exactly as it
    does standalone: {!Rlc_errors.Deadline.Expired} on budget expiry,
    [Invalid_argument]/[Failure] from the engine), and capture the state
    {!retime} needs.  Ingest failures are {!Rlc_errors.Error.Bad_request}.
    The configuration is stored and reused by every subsequent {!retime}
    of this handle. *)

type delta_stats = { retimed : int; reused : int }
(** Per-delta accounting: [retimed] nets were re-solved (dirty cone plus
    any safety fallbacks), [reused] nets kept their previous solve;
    [retimed + reused] always equals the design's net count. *)

val retime :
  ?xtalk_victims:bool ->
  Timed.t ->
  Delta.t ->
  (Timed.t * delta_stats, Rlc_errors.Error.t) Stdlib.result
(** Apply a {!Delta.t} and re-time incrementally.  The edited sources are
    re-ingested against the previous design and its resident index
    ({!Design.ingest_resident} [~prev]), which on a delta's sources costs
    the edit rather than the design: a net keeps its ingest record only
    when its block, driver size, primary slew, connectivity and loads are
    provably unchanged.  The
    directly changed nets, their downstream fan-out cones through the
    levelized graph, and (when [xtalk_victims], i.e. the handle runs
    crosstalk analysis) the coupling partners of changed nets — under both
    the old and the edited coupling graph — are dirtied and re-solved on
    the configured pool.  Every other net keeps its stored solve and
    cache key, without recomputing the key, when its record is the kept
    one and its edge and quantized input slew are bit-equal to the
    previous run's (the key is a function of exactly these and the stored
    configuration); a clean net failing that check is re-solved, so
    correctness never depends on the dirty set being tight.  Handoff slews
    at the cone frontier come from the reused results, exactly as a cold
    run would hand them off.

    Re-solves take {!run_cfg}'s per-net step, but look the configured
    cache up ({!Rlc_obs.Memo.find}) without inserting: the returned handle holds
    what they computed, so a stream of deltas leaves a shared cache at the
    size the cold load left it, while an edit that restores a loaded value
    is still answered from it.  With the cache on, the result's
    [cache_hits + cache_misses] is [retimed].

    The returned {!Timed.t} replaces the old handle; its {!Timed.result}
    — and hence any {!Report} rendered from it — is byte-identical to a
    cold run of the edited sources under the same configuration.  Like
    {!run_cfg}, it runs under the caller's ambient deadline and trace id.

    Obs: one ["flow.delta"] span (args: net/changed/retimed/reused
    counts), ["flow.retimed"] / ["flow.reused"] counters, and {!run_cfg}'s
    per-net span and counters for each re-solved net.

    Errors: delta validation failures ({!Delta.apply}) and edited designs
    that no longer ingest are {!Rlc_errors.Error.Bad_request}; the engine
    raises as in {!run_cfg}. *)

val critical_path : result -> net_result list
(** The worst-arrival net and its fan-in chain, source first.  Ties break
    toward the lowest net id (deterministic). *)
