(** The parallel full-design timing flow.

    Levels run in order; within a level every net is an independent job
    fanned out over a {!Rlc_parallel.Pool} of OCaml domains.  Each job canonicalizes its
    inputs ({!Cache.quantize} on the admittance fit and line constants,
    {!Cache.quantize_slew} on the input slew), consults the Ceff result
    cache, and on a miss runs the paper's model
    ({!Rlc_ceff.Driver_model.model_pade}) followed by the far-end replay of
    the modeled waveform through the net.  Far-end slews hand off to the
    next level exactly as {!Rlc_sta.analyze} hands off between stages of a
    path ({!Rlc_sta.handoff_slew}, edge alternation included).

    A cold run and a {!retime} are one pass; a retime adds a previous
    state to reuse from.

    Determinism: every per-net quantity in {!net_result} is a pure function
    of the canonicalized inputs, and results are stored by net id — so
    reports are byte-identical for any [jobs] count.  Cache hit/miss
    counters and wall times {e do} depend on scheduling and are only
    surfaced through {!stats} / logs, never through report payloads. *)

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
      (** characterization-memo hits/misses/stores: process-wide
          {!Rlc_liberty.Characterize.stats} deltas over the run, so unlike
          the Ceff counts they include any concurrent request's; they stay
          out of report payloads *)
  char_misses : int;
  char_stores : int;
  iterations_spent : int;  (** iterations this run actually ran = sum over its solves *)
  jobs_used : int;
      (** worker domains actually used, after clamping the request to the
          machine's core count; surfaced in the human summary only *)
  phases : phase list;  (** wall time per phase, in execution order; empty for a retime *)
}

type result = { design : Design.t; results : net_result array; stats : stats }

val create_cache : unit -> solve Cache.t
(** A cache that can be shared across {!run_cfg} invocations (warm
    re-timing), including across {e concurrent} requests of a resident
    [Rlc_service.Session] — it is sharded ({!Cache.create}) so parallel
    requests contend per shard, not on one global lock. *)

(** The whole knob surface of a flow run as one record, replacing the old
    eight-optional-argument {!run} convention.  Build configurations with
    [{ Config.default with dt = ... }] or the [with_*] helpers. *)
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
    cache : solve Cache.t option;
        (** share a cache across runs; [None] creates a fresh one per run *)
    quantize_digits : int;  (** cache-key significant digits; default 9 *)
    slew_grid : float;  (** cache-key slew grid, seconds; default 0.1 ps *)
    obs : Rlc_obs.Obs.t;  (** default {!Rlc_obs.Obs.null} (disabled) *)
    progress : Rlc_obs.Progress.t option;
    pool : Rlc_parallel.Pool.t option;
        (** borrow a caller-owned pool: the run uses it as-is and leaves it
            running (the service daemon's warm pool).  [None] (default)
            uses the process-wide resident pool of [jobs] domains. *)
    deadline : Rlc_errors.Deadline.t option;
        (** per-request wall-clock budget; when set, the run installs it
            as the ambient deadline for its whole extent — serial phases
            check it at level boundaries, pooled jobs inherit it across
            domains (the pool snapshots the publisher's ambient deadline
            per batch), and the replay engine polls it inside its step
            loops.  Expiry raises {!Rlc_errors.Deadline.Expired}; the
            service maps that onto the wire-stable [Timeout] error.
            [None] (default) disables all checks. *)
    trace : string option;
        (** request trace id; when set, the run installs it as the ambient
            {!Rlc_obs.Obs.with_trace} for its whole extent, so every span
            recorded during the run — including those from pool worker
            domains, which inherit it through the batch snapshot — carries
            a [("trace", id)] arg.  Purely observational: never appears in
            reports.  [None] (default) leaves spans untagged. *)
  }

  type t = flow_config

  val default : t
  val with_jobs : int -> t -> t
  val with_cache : solve Cache.t -> t -> t
  val with_adaptive : Rlc_circuit.Engine.adaptive -> t -> t
end

val solve_sized :
  Config.t ->
  tech:Rlc_devices.Tech.t ->
  net:Design.net ->
  size:float ->
  edge:Rlc_waveform.Measure.edge ->
  input_slew:float ->
  solve
(** Evaluate one driver-size candidate on a net's interconnect: the net with
    its driver resized to [size], canonicalized and solved exactly as the
    flow solves its own nets (same quantization, same cache keys via
    [Config.cache] when [use_cache]).  The result is a pure function of the
    quantized inputs, so sweeps built on it are jobs-independent; a
    subsequent full flow at the chosen size hits the same cache entries.
    Same per-net step as the flow, without its per-net telemetry.
    May raise as {!run_cfg} does (engine failures, deadline expiry). *)

val with_run : Config.t -> (unit -> 'a) -> 'a
(** Run [f] under [cfg]'s [deadline] and [trace], installed ambiently as
    every flow run installs them. *)

val run_cfg : Config.t -> Design.t -> result
(** Run the flow cold under a {!Config.t}: the solve pass with nothing to
    reuse, inserting every miss into the cache.  Cells for every driver
    size are characterized up front in the calling domain (the memo table
    is shared, read-only during fan-out).

    [Config.obs] (default disabled) records a ["flow.net"] span (args: net
    name, level, [cache] hit/miss, Ceff iteration count, waveform shape)
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
    The configuration (including any [deadline]/[trace]) is stored and
    reused by every subsequent {!retime} of this handle, except that each
    retime call supplies its own deadline and trace. *)

type delta_stats = { retimed : int; reused : int }
(** Per-delta accounting: [retimed] nets were re-solved (dirty cone plus
    any safety fallbacks), [reused] nets kept their previous solve;
    [retimed + reused] always equals the design's net count. *)

val retime :
  ?deadline:Rlc_errors.Deadline.t ->
  ?trace:string ->
  ?xtalk_victims:bool ->
  Timed.t ->
  Delta.t ->
  (Timed.t * delta_stats, Rlc_errors.Error.t) Stdlib.result
(** Apply a {!Delta.t} and re-time incrementally.  The edited sources are
    re-ingested against the previous design ({!Design.ingest} [~prev]), so
    a net keeps its ingest record only when its block, driver size,
    primary slew, connectivity and loads are provably unchanged.  The
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
    cache up ({!Cache.find}) without inserting: the returned handle holds
    what they computed, so a stream of deltas leaves a shared cache at the
    size the cold load left it, while an edit that restores a loaded value
    is still answered from it.  With the cache on, the result's
    [cache_hits + cache_misses] is [retimed].

    The returned {!Timed.t} replaces the old handle; its {!Timed.result}
    — and hence any {!Report} rendered from it — is byte-identical to a
    cold run of the edited sources under the same configuration.
    [deadline]/[trace] scope this call only (installed ambiently, exactly
    as {!run_cfg} installs its own).

    Obs: one ["flow.delta"] span (args: net/changed/retimed/reused
    counts), ["flow.retimed"] / ["flow.reused"] counters, and {!run_cfg}'s
    per-net span and counters for each re-solved net.

    Errors: delta validation failures ({!Delta.apply}) and edited designs
    that no longer ingest are {!Rlc_errors.Error.Bad_request}; the engine
    raises as in {!run_cfg}. *)

val critical_path : result -> net_result list
(** The worst-arrival net and its fan-in chain, source first.  Ties break
    toward the lowest net id (deterministic). *)
