(** Coupled-net crosstalk analysis over a completed flow run: screen every
    victim/aggressor pair with the {!Noise} closed form, simulate only the
    survivors as coupled {!Cluster}s, and report per-victim noise peaks and
    delay push-out versus the isolated timing.

    This is the paper's screen-then-simulate architecture applied to
    coupling instead of inductance: the cheap closed-form test dismisses
    most pairs with a number, and the expensive coupled transient runs only
    where that number says it matters.

    Determinism: the analysis is a pure function of the flow result (itself
    jobs-independent), the design's coupling graph, and the configuration.
    Screened-vs-simulated classification, every reported number, and the
    JSON fragment are byte-identical across worker counts; the pool only
    changes wall-clock time. *)

module Config : sig
  type t = {
    threshold : float;
        (** screen level as a fraction of VDD: a pair whose closed-form
            estimate stays below [threshold * vdd] is dismissed *)
    budget : float;
        (** noise budget as a fraction of VDD: a simulated victim peak at or
            above [budget * vdd] is a violation (reported like negative
            slack by the CLI) *)
    alignments : int;
        (** points of the symmetric aggressor-alignment grid swept for the
            worst delay push-out, in [1 .. max_alignments]; 1 means aligned
            starts only.  Grids nest: the [2n-1]-point grid contains every
            point of the [n]-point grid, so the worst case is monotone in
            the grid size. *)
    n_segments : int;  (** ladder segments per cluster member *)
    dt : float;  (** fixed step of the cluster transients, s *)
    jobs : int option;  (** worker domains when no [pool] is borrowed *)
    pool : Rlc_parallel.Pool.t option;  (** borrowed resident pool, used as-is *)
    obs : Rlc_obs.Obs.t;
  }

  val default : t
  (** threshold 0.05, budget 0.25, 9 alignments, 40 segments, dt 0.5 ps,
      no pool, observability off. *)
end

type pair = {
  victim : int;  (** net id of the quiet side of this ordered pair *)
  aggressor : int;  (** net id of the switching side *)
  cc : float;  (** lumped coupling capacitance, F *)
  est : Noise.estimate;  (** the closed-form screen number *)
  screened : bool;  (** dismissed without simulation *)
}

type victim_result = {
  victim : int;
  pairs : pair list;  (** this victim's ordered pairs, aggressor id ascending *)
  noise_est : float;  (** worst closed-form estimate over the pairs, V *)
  simulated : bool;  (** at least one pair survived the screen *)
  noise_sim : float option;
      (** simulated victim far-end noise peak with every surviving
          aggressor switching together, V *)
  isolated_delay : float;  (** the flow's isolated stage delay, s *)
  coupled_delay : float option;
      (** worst far-end 50 % delay over the alignment sweep, with surviving
          aggressors switching opposite to the victim, s *)
  pushout : float option;  (** [coupled_delay - isolated_delay], s *)
  violation : bool;  (** [noise_sim >= budget * vdd] *)
}

type stats = {
  n_pairs : int;  (** ordered victim/aggressor pairs examined *)
  n_screened : int;  (** pairs dismissed by the closed form *)
  n_simulated : int;  (** pairs that reached a coupled simulation *)
  n_alignment_sims : int;
      (** alignment grid points evaluated for the delay sweep: [alignments]
          per simulated victim.  Not a transient count: the sweep simulates
          only the points its screen cannot dismiss (see {!analyze}). *)
  n_violations : int;  (** victims whose simulated peak broke the budget *)
}

type result = {
  vdd : float;
  threshold : float;  (** fraction of VDD, as configured *)
  budget : float;
  alignments : int;
  victims : victim_result array;  (** nets with couplings, victim id ascending *)
  stats : stats;
}

val max_alignments : int
(** 257, the largest accepted {!Config.t} [alignments]: a nested grid size
    (9, 17, 33, ..., 257) that bounds the work one analysis can ask for. *)

val analyze : ?config:Config.t -> Rlc_flow.Flow.result -> result
(** Screen every ordered pair of the design's coupling graph, then simulate
    each victim that kept at least one aggressor: one cluster transient with
    the victim quiet for the noise peak, plus the worst delay over
    [alignments] start offsets of the aggressors, which switch opposite to
    the victim ({!Cluster.worst_crossing}).  A grid of three points or
    fewer runs one transient per point.  A larger one runs two screen
    transients, whose superposition stands for every offset, plus one
    transient per offset that can still be the worst -- typically one or
    two; on [xtalk_bus] 16 victims ran 16 instead of 144 -- and every
    remaining offset if a run disagrees with the screen.  The reported
    delay is always a real run's, with the bits of the maximum over one
    transient per offset.  Clusters are scheduled on the level-parallel
    domain pool ({!Config.t} [pool]/[jobs]) in chunks: the victims with
    survivors, grouped by cluster shape (member count) in victim order,
    two to a chunk (a constant: each lane keeps its cluster's compiled
    handle alive while the chunk steps, and wider chunks were not faster
    beyond the spread).  The chunks depend only on the design and the
    configuration, not on the pool.  A chunk is one pool job: its
    noise runs step as lanes of one batch ({!Cluster.simulate_batch}), then
    its alignment sweeps phase by phase ({!Cluster.worst_crossings}), each
    victim on its own lane throughout.  The flow's Ceff cache is not
    consulted or touched.

    The noise run stops once an energy bound proves the victim far end's
    peak final ({!Cluster.simulate}'s [until_peak]), typically a few
    hundred steps after the aggressors' drives end; the reported peak is
    bit-identical to a full-window run's.  An alignment run reads only the
    victim far end's first 50 % crossing, so it stops right after it
    ({!Cluster.simulate}'s [until]); the reported delays are bit-identical
    to full-window runs.

    Raises [Invalid_argument] when [alignments] is outside
    [1 .. max_alignments] or [threshold]/[budget] is negative, NaN or
    infinite (a NaN budget would otherwise pass every peak), and
    [Failure] naming the victim and the aggressor offset when a victim's
    far end never reaches 50 % of VDD in an alignment run.  Every victim
    gets an outcome before any is raised, an exception of a chunk's
    batched runs counting as each of its victims', and the one raised is
    the first failing victim's in id order, as with one job per victim.

    Worst-casing conventions: aggressor drives are the isolated driver-model
    PWLs regardless of the logical edge the flow assigned (noise assumes all
    aggressors rise together against a low victim; delay assumes they all
    fall against the rising victim — standard sign-off pessimism).

    [obs] records ["xtalk.screen"] / ["xtalk.victim"] spans (one
    ["xtalk.victim"] span a chunk, its [victims] arg naming them), counters
    ["xtalk.pairs_screened"], ["xtalk.pairs_simulated"],
    ["xtalk.alignment_sweeps"] (transients run at an offset),
    ["xtalk.screen_runs"] and ["xtalk.screen_fallbacks"] (victims whose
    sweep ran every offset after a disagreement), the engine steps actually
    taken by the noise runs (["xtalk.noise_steps"]), the screen runs
    (["xtalk.screen_steps"]) and the alignment runs
    (["xtalk.alignment_steps"]) -- all stop early, so none is a full
    window, and together they are every engine step of the analysis --
    and the per-victim governing noise (mV) as the ["xtalk.noise_mv"]
    histogram. *)

val json_fragment : Rlc_flow.Design.t -> result -> string
(** Render the result as a JSON object (net names resolved through the
    design), formatted to sit under the ["xtalk"] key of
    {!Rlc_flow.Report.json_string} at its indentation.  Deterministic and
    byte-identical across worker counts.  Raises [Failure] naming the
    field when a number to print is NaN or infinite, as the report
    renderers do. *)

val summary : Rlc_flow.Design.t -> Format.formatter -> result -> unit
(** Human summary mirroring {!Rlc_flow.Report.summary}: screen rate, then
    one line per simulated victim with noise and push-out. *)
