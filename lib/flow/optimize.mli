(** Sweep-scale timing optimization over the full-design flow.

    {!run} cold-times the design, propagates the worst endpoint deficit
    backward through the timing graph (a net's stage delay sits on the
    arrival path of every endpoint downstream, so it should help recover
    the worst violation in its fanout cone, not just its own slack), and
    then walks the levels forward, searching per-net fixes for every net
    whose deficit is not already covered by fan-in fixes:

    - {b driver resize} first — ascending candidate sizes, each evaluated
      through the same ladder the flow itself uses: a replay-free screen
      ({!Rlc_sta.Sta.estimate_far_delay}, self-calibrated against the net's
      known base delay) dismisses hopeless candidates, survivors get the
      full Ceff-model solve ({!Flow.solve_batch}, shared cache), and
      marginal inductive winners escalate — rarely — to a transistor-level
      transient ({!Rlc_ceff.Reference.simulated_far_delays}) before being
      trusted.  When no size meets the target, the search still takes the
      best recovery the ladder offers (smallest size within 2 % of the best
      solved stage delay) rather than leaving the deficit untouched;
    - {b repeater insertion} as the fallback (the
      [examples/repeater_insertion.ml] grid over stage count x size via
      {!Rlc_sta.Sta.analyze}), reported as a recommendation since it edits
      topology, which a {!Delta.t} cannot apply.

    A level's searches run in rounds.  The level first characterizes the
    ladder sizes it prices, one after another, each as one batch on the
    run's pool, and prices every net's ladder (one pool job a net).  Each
    round then takes every open search's next candidate past its screened
    ones, solves them all as one {!Flow.solve_batch} (lane batches of up
    to [Engine.Compiled.max_lanes] replays, one pool job each), escalates
    the marginal winners as one batch of Newton lanes, and hands each
    search its outcomes; a search closes on a confirmed winner or an
    exhausted ladder.  Every search takes exactly the decisions a search
    of its net alone would take — it is a pure function of the base
    results and its candidates — so fixes, counts and reports are
    byte-identical for any jobs count.

    The chosen resizes are applied as one {!Delta.t} and verified with an
    incremental {!Flow.retime} — [after] is byte-identical to a cold run of
    the edited sources.  The search polls
    {!Rlc_errors.Deadline.check_ambient} between rounds (and the engine
    inside its step loops), so a served/budgeted optimize times out as a
    wire-stable [timeout].  A net whose pricing, solve or escalation
    raises ends its search with that exception (an escalation's
    {!Rlc_circuit.Engine.Newton_diverged} names the net and size in its
    [within]); once the level's rounds are done, the first failing net in
    level order raises it, at any jobs count. *)

type fix_kind =
  | Resize of { to_size : float }
  | Repeaters of { stages : int; size : float; est_delay : float }
      (** recommendation only: estimated end-to-end delay of the best
          (stages x size) configuration; not applied by the final retime *)
  | Unfixable

type net_fix = {
  f_net : Design.net;
  f_edge : Rlc_waveform.Measure.edge;
  f_slack_before : float;  (** [required - arrival] in the base flow, s *)
  f_slack_after : float;  (** same net in the verified post-fix flow *)
  f_residual : float;
      (** deficit this net had to recover locally: the worst violation in
          its fanout cone (itself included), net of fan-in fixes — so a
          net can be searched, and resized, while its own slack is
          positive *)
  f_stage_before : float;
  f_stage_after : float;
      (** winning candidate's solved stage delay (resize), estimated path
          delay (repeaters), or [f_stage_before] (unfixable) *)
  f_candidates : int;  (** full candidate evaluations paid for *)
  f_screened : int;  (** candidates dismissed by the replay-free screen *)
  f_escalations : int;  (** transistor-level verifications run *)
  f_fix : fix_kind;
}

type stats = {
  o_nets : int;
  o_violations_before : int;
  o_violations_after : int;
  o_resized : int;
  o_repeaters : int;
  o_unfixable : int;
  o_candidates : int;  (** deterministic (pure search), reportable *)
  o_screened : int;
  o_escalations : int;
  o_char_hits : int;
      (** characterization / compiled-handle cache deltas for this run:
          scheduling-dependent, surfaced in the human summary only *)
  o_char_misses : int;
  o_handle_hits : int;
  o_handle_misses : int;
  o_jobs_used : int;
  o_seconds : float;  (** wall clock; summary only *)
}

type t = {
  required : float;
  before : Flow.result;
  after : Flow.result;  (** verified flow with all resizes applied *)
  fixes : net_fix array;  (** searched (violating) nets, level/id order *)
  delta : Delta.t;  (** the applied driver resizes *)
  stats : stats;
}

val default_sizes : float list
(** The candidate driver-size ladder: 25–300X.  Only sizes strictly above
    a net's current size are tried for it. *)

val run :
  ?tech:Rlc_devices.Tech.t ->
  ?sizes:float list ->
  ?repeaters:bool ->
  ?max_stages:int ->
  required:float ->
  Flow.Config.t ->
  spef:Rlc_spef.Spef.t ->
  spec:Spec.t ->
  unit ->
  (t, Rlc_errors.Error.t) result
(** Optimize the design against the [required] arrival time (seconds).
    [sizes] (default {!default_sizes}) is the resize ladder, [repeaters]
    (default true) enables the insertion fallback with up to [max_stages]
    (default 4) repeater stages.  A [Config.cache] is installed when absent
    so the sweep and the verification retime share solves.  Errors are the
    flow's own (ingest, delta application).  The run takes no deadline:
    like {!Flow.run_cfg} it runs under the caller's ambient one, whose
    expiry raises {!Rlc_errors.Deadline.Expired}. *)
