(** Transient and DC analysis.

    Pure nodal formulation: reactive elements become trapezoidal
    conductance + history current-source companion models, nonlinear
    devices are handled with Newton iteration inside every timestep, and
    the linear solve uses a banded factorization sized to the netlist's
    natural bandwidth (dense LU fallback), so uniform-ladder transients
    cost O(nodes) per step.

    The transient solver is split compile → factor → step: for a fixed
    step size the companion conductance stamps are time-invariant, so
    linear circuits assemble and factor the system matrix once per step
    size and each step only rebuilds the right-hand side (O(n·bw) instead
    of O(n·bw²) per step).  Nonlinear circuits pre-stamp the constant
    linear part once and copy it per Newton iteration; their devices
    evaluate into buffers the solver state owns ({!Netlist.nonlinear}),
    so a Newton iteration allocates nothing.  The fast path
    produces bit-identical waveforms to per-step reassembly, which remains
    available via [~reassemble_per_step:true].

    Every transient runs on a {!Compiled.handle}: {!Compiled.run} is the
    one transient path, and {!transient} runs it on a freshly compiled
    handle.  Banded fixed-step runs go through two step kernels, one for
    linear and one for Newton circuits, which {!Compiled.run_lanes} feeds
    several handles at once; {!Compiled.run} is their one-lane case.  The
    Newton kernel's iteration is also the adaptive stepper's.

    Unchecked array access is confined to the per-step passes (sources,
    right-hand side, scatter, commit, the Newton update) and
    {!Rlc_num.Banded}'s factorization and solves, and indexes only with
    arrays that compiling a handle built and bounds-checked. *)

module Waveform = Rlc_waveform.Waveform

exception Newton_diverged of { t : float; within : string list }
(** Newton iteration did not converge at time [t] (seconds; [0.] is the
    DC operating point).  Newton converges once no unknown moves by 1e-9 V
    or more, clamps each unknown's update to 0.5 V per iteration, and gives
    up after 60 iterations.  [within] names what was being simulated,
    outermost first, as callers add it with {!within} (a net, a driver
    size); the engine itself leaves it empty.  A registered printer renders
    it as ["Engine: Newton failed to converge at t=... s (...)"], the text
    [Printexc.to_string] and the service's [internal] error message
    show. *)

val within : string -> (unit -> 'a) -> 'a
(** [within what f] is [f ()], with [what] prepended to the [within] of a
    {!Newton_diverged} that escapes it. *)

type adaptive = {
  dt_min : float;  (** smallest step (ladder rung 0), seconds *)
  dt_max : float;  (** largest step; the ladder tops out at the largest
                       [dt_min * 2^k <= dt_max] *)
  ltol : float;  (** per-step local-truncation-error budget, volts *)
}
(** Parameters of the LTE-controlled adaptive stepper.  Step sizes are
    quantized to the ladder [h = dt_min * 2^k] so the factorization of the
    companion system is built once per rung and reused for every step taken
    at that rung; [h] grows through flat regions (two consecutive accepts
    with the error estimate under [ltol]/4 climb one rung) and drops a rung
    on rejection.  Rung-0 steps are never rejected — [dt_min] is the
    accuracy floor. *)

val default_adaptive : ?dt_min:float -> ?dt_max:float -> ?ltol:float -> unit -> adaptive
(** [dt_min = 0.25 ps], [dt_max = 256 * dt_min], [ltol = 10 mV].  The
    10 mV per-step budget is calibrated on the Table-1 sweep: accumulated
    delay/slew deviation from fixed-step stays under 0.2 % (the acceptance
    bar is 1 %) while flat tails coarsen by two extra rungs; pass
    [~ltol:1e-3] for waveform-tracking work. *)

type result

type crossing = Netlist.node * float * Waveform.direction
(** [(node, level, direction)]: [node]'s voltage crossing [level] volts in
    [direction], detected between consecutive accepted samples exactly as
    {!Waveform.crossings} detects it. *)

val transient :
  ?obs:Rlc_obs.Obs.t ->
  ?record_nodes:Netlist.node list ->
  ?until:crossing list ->
  ?until_peak:Netlist.node ->
  ?reassemble_per_step:bool ->
  ?adaptive:adaptive ->
  dt:float ->
  t_stop:float ->
  Netlist.t ->
  result
(** [transient ... netlist] is {!Compiled.run} [...] on
    [Compiled.compile ?obs netlist]: one run on a fresh handle, with the
    same arguments, results and exceptions. *)

val times : result -> float array
val voltage : result -> Netlist.node -> Waveform.t
(** Raises [Invalid_argument] if the node was excluded by [record_nodes]. *)

val is_recorded : result -> Netlist.node -> bool
val voltage_at : result -> Netlist.node -> float -> float
val newton_total : result -> int
val newton_worst : result -> int
val steps : result -> int

val steps_rejected : result -> int
(** Adaptive mode: step attempts rolled back by the LTE control (0 for
    fixed-step runs). *)

val refactors : result -> int
(** Adaptive mode: companion-system assemblies/factorizations the run
    performed — one per ladder rung or breakpoint-clamped offcut step size
    the handle held no current solver state for (0 for fixed-step runs).  Ladder
    reuse working means this stays far below {!steps}. *)

val dc_operating_point : Netlist.t -> float array
(** Newton DC solution (capacitors open, inductors shorted through 1 mOhm)
    with sources evaluated at [t = 0].  Returns the voltage of every node,
    indexed by node id. *)

(** Compile-once transient handles for candidate sweeps.

    Sweep-scale workloads (driver sizing, repeater insertion, Ceff model
    iteration) run thousands of transients over the {e same} circuit
    topology with different element values or input sources.  A handle
    amortizes everything that depends only on topology: compile (node
    ordering, bandwidth analysis, element slots), per-step-size solver
    states with their factorizations, and the DC operating point.  {!run}
    on a reused handle is bit-identical to a run on a fresh one (as
    {!transient} makes) for the equivalent netlist — same floats through
    the same step cores in the same order — so callers can adopt it
    without moving any accuracy goalposts. *)
module Compiled : sig
  type handle

  val compile : ?obs:Rlc_obs.Obs.t -> Netlist.t -> handle
  (** Compile the netlist into a reusable handle (records the usual
      ["engine.compile"] span).  The handle is not thread-safe: its solver
      scratch is mutated by every {!run}; keep one per domain (or use
      {!cached}, which hands a handle only to the domain that built it). *)

  val restamp : handle -> Netlist.t -> unit
  (** Write the netlist's element values into the handle's existing
      structure — no allocation on the value path.  The new netlist must
      match the compiled topology exactly (same node count, same element
      kinds/nodes in insertion order, same forced nodes); a mismatch raises
      [Invalid_argument] and leaves the handle needing a successful restamp
      (or rebuild) before reuse.  Source and nonlinear closures are always
      swapped in; a change to a matrix-affecting value (resistance,
      capacitance, inductance, coupling matrix) drops the cached solver
      states and the DC point, while source-only restamps keep them all. *)

  val run :
    ?obs:Rlc_obs.Obs.t ->
    ?record_nodes:Netlist.node list ->
    ?until:crossing list ->
    ?until_peak:Netlist.node ->
    ?reassemble_per_step:bool ->
    ?adaptive:adaptive ->
    dt:float ->
    t_stop:float ->
    handle ->
    result
  (** Runs the DC operating point at [t = 0], then steps the handle's
      current element values to [t_stop] with the trapezoidal rule.
      Raises {!Newton_diverged} if Newton fails to converge at any
      timestep.  This is the engine's one argument check: [t_stop], and
      [dt] for fixed-step runs, must be positive and finite, else
      [Invalid_argument].

      Solver states are cached on the handle per step size (fixed-step
      states and adaptive rung/offcut states share the cache), and the DC
      operating point is reused whenever the circuit is linear and every
      source's value at [t = 0] is bit-identical to the cached solve's.  A
      linear circuit whose every source is +0.0 at [t = 0] takes the
      all-+0.0 point without a solve: the point {!dc_operating_point}
      solves for it, bit for bit, when every element value is positive,
      as {!Netlist} requires.  A run stopped early by [until] or
      [until_peak] leaves the handle fully reusable: every run restarts its
      companion history from the DC point.

      A linear fixed-step run that starts from the all-+0.0 state, and
      whose first step, with every source +0.0, leaves that state
      unchanged, repeats its all-zero sample for each later step whose
      sources are all still +0.0 (a replay's lead-in before its waveform
      starts) instead of solving it.  The repeated steps are bit for bit
      the steps solving them gives, since a step is a function of the
      state and the sources.  They count in {!steps} and ["engine.steps"]
      like any other, and in ["engine.steps_repeated"] too.  Newton and
      [adaptive] runs step every step.

      [obs] (default disabled) records ["engine.dc_solve"] /
      ["engine.factor"] / ["engine.step_loop"] spans (the step-loop span
      carries [steps], [newton_total], the solver [path] and [lanes] as
      args) plus ["engine.transients"] / ["engine.steps"] /
      ["engine.newton_iters"] counters, and ["engine.steps_repeated"]
      when a run repeated steps.  Only phase boundaries are instrumented — the per-step inner loops are
      untouched, so results and speed are identical when disabled.

      [record_nodes] restricts waveform storage to the listed nodes
      (default: every node).  Recording all nodes costs O(nodes × steps)
      memory, which dominates for long ladders whose observers only ever
      read input/near/far; {!voltage} on an unrecorded node raises
      [Invalid_argument].

      [until] stops the run after the first step (under [adaptive], the
      first accepted step) at which every listed crossing has happened,
      and returns that prefix: its times and samples are bit-identical to
      the first samples of the run without [until], and it contains each
      listed crossing's {e first} occurrence.  The contract is valid only
      for callers that read first crossings — {!Rlc_waveform.Measure}'s
      [t_frac], [slew] and [delay_50] — and list every (node, level,
      direction) they read; anything else (later crossings, overshoot,
      settled values) may lie past the stop.  When a listed crossing never
      happens, or [until] is omitted or empty, the run is exactly the full
      one, failure messages included.  The step-loop span's [steps] arg
      and the ["engine.steps"] counter count the steps actually taken.  A
      node out of range raises [Invalid_argument].

      [until_peak] stops the run once the node's running maximum is
      provably the maximum of the whole run, and returns that prefix:
      bit-identical to the start of the full run, with a {!Waveform.v_max}
      whose bits equal the full run's.  The proof is an energy bound.  Once
      every source holds its final value (from {!Netlist.flat_after}, read
      from the netlist of the latest {!restamp}), the circuit's stored
      energy W = 1/2 sum C (v - v^)^2 + 1/2 sum L i^2 about its final DC
      point v^ cannot rise under trapezoidal steps, so no later sample
      exceeds v^ + sqrt (2 W / C_g), where C_g is the node's capacitance
      to ground or to forced nodes.  About every 16 steps the bound is
      formed from the companion histories, and the run stops when it
      clears the running maximum by a margin of 1e-3 of the peak's
      excursion above v^ plus a 1e-9 relative rounding floor.  The margin
      dwarfs the rounding of the steps and of v^, solved with capacitors
      open and inductors as the DC model's 1 mOhm shorts.  The run keeps
      its full window (the contract still holds, trivially) whenever a
      precondition fails: a nonlinear device or a current source is
      present, a forced source is a {!Netlist.force_voltage} closure
      rather than a {!Netlist.force_pwl}, an inductor carries DC current
      at v^ (its short would misplace v^), a node is reachable only
      through capacitors (v^ is then singular with capacitors open), the
      watched node is forced or has no capacitance to ground or to a
      forced node, or the run is [adaptive] (which ignores [until_peak]).
      With [until] as well, the run stops once both conditions hold.  A
      fixed-step node out of range raises [Invalid_argument].

      [reassemble_per_step] (default [false]) disables the factor-once
      fast path and rebuilds + refactors the full system at every step
      (and every Newton iteration), as the engine did before the
      compile/factor/step split.  The two paths produce bit-identical
      waveforms; the slow path is kept as the golden reference for
      equivalence tests, with its own device stamping and Newton update
      (the [Float.max]/[Float.min] form the step kernels' comparisons
      replace), so it checks theirs.

      [adaptive] switches to LTE-controlled variable time steps (see
      {!adaptive}); [dt] is then unused and the recorded waveforms sit on
      the adaptive (non-uniform) grid.  Every breakpoint declared on the
      netlist's forced sources ({!Netlist.force_voltage} /
      {!Netlist.force_pwl}) that falls inside [(0, t_stop)] is landed on
      exactly, as is [t_stop] itself, so source kinks are never stepped
      over; landing on a kink restarts the stepper at [dt_min].  It needs
      a positive, finite [dt_min], [dt_max >= dt_min] and [ltol > 0] (NaN
      fails each) and excludes [reassemble_per_step]; otherwise
      [Invalid_argument].  With [obs] enabled the step-loop span
      additionally carries [rejected] and [refactors] args, accepted step
      sizes feed the ["engine.step_size_ns"] histogram (values in
      nanoseconds), and ["engine.steps_rejected"] / ["engine.refactors"]
      counters accumulate.  The fixed-step path is completely untouched
      by this option. *)

  type lane = {
    handle : handle;
    t_stop : float;
    record_nodes : Netlist.node list;
    until : crossing list;  (** [[]]: run to [t_stop] *)
    until_peak : Netlist.node option;  (** [None]: no peak watch *)
  }
  (** One run of a {!run_lanes} batch: {!run}'s arguments of the same
      names, on its own handle. *)

  val max_lanes : int
  (** 8: the most runs the kernel interleaves, and the number of {!cached}
      lanes.  Each lane of a batch keeps its handle alive while the batch
      steps, so callers size their batches by system size: the flow's
      80-unknown replay ladders go eight to a batch, crosstalk clusters
      (160 unknowns and up) two ([Rlc_xtalk.Xtalk.analyze]). *)

  val run_lanes :
    ?obs:Rlc_obs.Obs.t ->
    ?adaptive:adaptive ->
    dt:float ->
    lane array ->
    (result, exn) Stdlib.result array
  (** The lanes' outcomes, in lane order: each is bit for bit what
      [run ?obs ?adaptive ~dt ~t_stop ~record_nodes ~until ?until_peak
      handle] gives on its own (times, samples, step and Newton counts),
      [Ok] its result, or [Error] the {!Newton_diverged} or
      [Rlc_num.Banded.Singular] / [Rlc_num.Linalg.Singular] that run would
      raise, with that run's own [t] and an empty [within] for the caller
      to extend.  A failing lane leaves the batch alone; the others run to
      their ends.  Any other exception (an expired deadline, a bad
      argument) aborts the batch.  Each lane keeps its own element values,
      sources, DC point, factorization, [until] and [until_peak] watches
      and trace, and stops once its own conditions hold or at [t_stop].

      A lane's [until_peak] watch is {!run}'s: the noise runs of a
      crosstalk analysis batch with it.

      Fixed-step lanes whose systems are banded with the same size and
      bandwidth -- runs of one netlist structure -- step together,
      [max_lanes] at a time in lane order, linear lanes with linear lanes
      and Newton lanes with Newton lanes.  Linear lanes interleave their
      banded substitutions row by row; a lane repeating an all-zero step
      (see {!run}) leaves the interleaving for that step.  Newton lanes set their sources and
      right-hand sides, then iterate in lock-step: each iteration copies
      every still-iterating lane's base system, stamps its devices,
      factors and substitutes the lanes interleaved
      ({!Rlc_num.Banded.factor_lanes},
      {!Rlc_num.Banded.solve_factored_lanes}) and moves each lane's nodes;
      a lane that has converged leaves the iteration and commits its
      step.  A lane that stops leaves the interleaving.  Dense systems and
      [adaptive] runs step one lane at a time.  Each pass records one
      ["engine.step_loop"] span, its [steps] the sum over its lanes, its
      [path] ["linear-fast"] or ["newton-fast"] and [lanes] their number;
      the counters count lanes.  No handle may appear in two lanes
      ([Invalid_argument]). *)

  val cached : ?obs:Rlc_obs.Obs.t -> ?lane:int -> Netlist.t -> handle
  (** A handle for this topology from one process-wide {!Rlc_obs.Memo} of
      256, keyed by the calling domain, [lane] (default 0, below
      {!max_lanes}, else [Invalid_argument]) and the structure, so a handle
      goes back only to the domain that built it and a batch's lanes each
      get their own: an existing one restamped to the netlist's values, or
      a new one compiled and cached.  Counts in {!cache_stats} and, with
      [obs], in ["engine.handle.hits"] / ["engine.handle.misses"].  Key
      collisions are caught by {!restamp}'s structural validation and fall
      back to a rebuild, so a hit is always structurally sound. *)

  val cache_stats : unit -> Rlc_obs.Memo.stats
  (** Of {!cached}, across all domains since start. *)

  val clear_cache : unit -> unit
  (** Drop every domain's cached handles; the counters keep running. *)
end
