(** Cell characterization: generate NLDM tables with the circuit engine.

    This plays the role of the foundry's SPICE characterization runs — each
    grid point is one transient of (ramp input -> inverter -> pure
    capacitance), measured with the shared {!Rlc_waveform.Measure}
    conventions.  Results are memoized per (size, technology, grid) because
    the effective-capacitance iterations hit the same cell repeatedly. *)

type grid = {
  slews : float array;  (** input transitions, seconds *)
  caps : float array;  (** load capacitances, farads *)
}

val default_grid : grid
(** 7 slews (20–300 ps) x 8 caps (20 fF – 3.2 pF), covering the paper's
    sweep (input slews 50–200 ps, line caps 0.2–1.8 pF). *)

val min_size : float
val max_size : float
(** The driver sizes {!cell_res} characterizes: 5.2X to 1,000X.  Every
    size the flows, examples and benchmarks use lies in 10-300X; 5.2X is
    the smallest size measured to characterize on {!default_grid} (at
    5.1X the 3.2 pF point's output never completes its 10-90 % swing), so
    a smaller cell could not be characterized anyway. *)

val cell_res :
  ?obs:Rlc_obs.Obs.t ->
  ?pool:Rlc_parallel.Pool.t ->
  ?grid:grid ->
  Rlc_devices.Tech.t ->
  size:float ->
  (Table.cell, Rlc_errors.Error.t) result
(** Characterize both output arcs of an inverter of the given size.
    Results are memoized in one process-wide store keyed by (size,
    technology, grid values) and shared across domains; repeated calls are
    free, and a sizing sweep over N candidate sizes pays for each size
    once.  [obs] bumps ["char.hits"] / ["char.misses"] (the same totals
    are always available via {!stats}).

    A miss runs both arcs' grid points (2 x 7 slews x 8 caps = 112 on the
    default grid) as one {!Rlc_parallel.Pool.map} batch on [pool], which
    records its ["pool.batch"] span into [obs].  [pool] defaults to
    [Rlc_parallel.Pool.borrow ()], the process-wide resident pool of the
    machine's recommended size; a caller that already holds a pool should
    pass it, so characterization never runs on a second pool beside the
    run's (a one-domain pool runs the points inline).  A hit costs a
    lookup whatever the pool.  Every point is an independent fresh
    transient, so the tables are bit-identical on any pool.

    The user-reachable exits are typed: a size outside
    [[min_size, max_size]] (NaN included) is
    {!Rlc_errors.Error.Bad_request}, answered before the store is looked
    up, so it costs no characterization and counts no miss; a grid point
    whose waveform never completes or whose Newton iteration diverges is
    {!Rlc_errors.Error.Internal}.  When several points fail, the error is
    the one of the point a serial run would reach first (rise before
    fall, then slews, then caps, each in grid order): the pool
    re-raises its lowest-index failure.  The batch still runs every
    point, so a size whose every point fails pays for all of them. *)

val stats : unit -> Rlc_obs.Memo.stats
(** The store's counters since start, over every technology, grid and
    domain.  The store is a one-shard {!Rlc_obs.Memo} of 1,024 cells
    (about 5 KB each), least recently used evicted first.  Two domains
    that miss the same cell at once both characterize it and both count
    a miss; the first to finish stores it. *)

val clear_cache : unit -> unit
(** Drop every stored cell; the counters keep running. *)

val characterize_point_res :
  Rlc_devices.Tech.t -> size:float -> edge:Rlc_devices.Testbench.edge ->
  input_slew:float -> cap:float -> (float * float * float * float, Rlc_errors.Error.t) result
(** One grid point: [(delay_50, slew_10_90, slew_20_80, tail_50_90)].
    Exposed so tests can compare table lookups against direct simulation. *)
