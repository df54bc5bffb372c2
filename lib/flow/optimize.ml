(* Sweep-scale timing optimization: per-net negative-slack fixes searched
   with the screen -> Ceff model -> (rarely) transistor-escalation ladder,
   batched over the domain pool, verified by an incremental retime of the
   chosen resizes.

   Determinism: every candidate evaluation is a pure function of the base
   flow's (quantized) per-net results and the candidate size — the search
   never reads scheduling-dependent state — so fixes, counts, and reports
   are byte-identical for any jobs count.  The shared Ceff cache only
   dedupes identical pure solves (first insert wins on equal values). *)

module Measure = Rlc_waveform.Measure
module Driver_model = Rlc_ceff.Driver_model
module Screen = Rlc_ceff.Screen
module Reference = Rlc_ceff.Reference
module Characterize = Rlc_liberty.Characterize
module Line = Rlc_tline.Line
module Sta = Rlc_sta.Sta
module Pool = Rlc_parallel.Pool
module Obs = Rlc_obs.Obs
module Deadline = Rlc_errors.Deadline
module Engine = Rlc_circuit.Engine
module Memo = Rlc_obs.Memo

let src = Logs.Src.create "rlc.optimize" ~doc:"sweep-scale timing optimization"

module Log = (val Logs.src_log src : Logs.LOG)

type fix_kind =
  | Resize of { to_size : float }
  | Repeaters of { stages : int; size : float; est_delay : float }
  | Unfixable

type net_fix = {
  f_net : Design.net;
  f_edge : Measure.edge;
  f_slack_before : float;
  f_slack_after : float;
  f_residual : float;
  f_stage_before : float;
  f_stage_after : float;
  f_candidates : int;
  f_screened : int;
  f_escalations : int;
  f_fix : fix_kind;
}

type stats = {
  o_nets : int;
  o_violations_before : int;
  o_violations_after : int;
  o_resized : int;
  o_repeaters : int;
  o_unfixable : int;
  o_candidates : int;
  o_screened : int;
  o_escalations : int;
  o_char_hits : int;
  o_char_misses : int;
  o_handle_hits : int;
  o_handle_misses : int;
  o_jobs_used : int;
  o_seconds : float;
}

type t = {
  required : float;
  before : Flow.result;
  after : Flow.result;
  fixes : net_fix array;
  delta : Delta.t;
  stats : stats;
}

let default_sizes = [ 25.; 37.5; 50.; 75.; 100.; 125.; 150.; 200.; 300. ]

(* Per-net search outcome before the final verification retime. *)
type search = {
  s_fix : fix_kind;
  s_stage_after : float;
  s_candidates : int;
  s_screened : int;
  s_escalations : int;
}

(* The replay-free screen, self-calibrated: the estimate's model bias is
   measured on the current size (where the true replayed stage delay is
   known from the base flow) and divided out of every candidate estimate.
   A candidate whose corrected prediction still exceeds the target by 30 %
   is dismissed without paying for the replay.  Wrongly screening a
   workable candidate only moves the answer to the next (larger) size —
   deterministically — so the margin trades sweep time, not soundness. *)
let screen_margin = 1.3

let estimate_delay ~obs ~pool ~tech ~(net : Design.net) ~size ~edge ~input_slew =
  match Characterize.cell_res ~obs ~pool tech ~size with
  | Error e -> failwith (Rlc_errors.Error.message e)
  | Ok cell ->
      let model =
        Driver_model.model_pade ~obs ~cell ~edge ~input_slew ~pade:net.Design.pade
          ~line:net.Design.eq_line ~cl:net.Design.cl ()
      in
      Sta.estimate_far_delay model ~line:net.Design.eq_line ~cl:net.Design.cl

(* How close to the target a winner must be to escalate, and the
   tolerance its transistor-level delay must meet (see [rounds]). *)
let escalation_band = 0.05

(* Best-effort acceptance: when no candidate meets the target, the search
   still resizes — taking the smallest size whose solved stage delay is
   within 2 % of the best the ladder achieved, so it never pays a 300X
   driver for noise-level gains over a 150X one. *)
let partial_band = 0.02

(* [e] as it escapes [Engine.within what]. *)
let in_context what e = try Engine.within what (fun () -> raise e) with e -> e

(* One net's search through the rounds of its level.  A round asks every
   open search for its next candidate, solves them all as one batch,
   escalates the marginal winners as one batch, and hands each search its
   own outcomes: every search takes exactly the decisions a search of the
   net alone would, in the same order. *)
type net_search = {
  ns_result : Flow.net_result;
  ns_target : float;
  ns_limit : float;  (* the screen: candidates predicted above it are not solved *)
  mutable ns_todo : (float * float) list;  (* (size, predicted stage delay), ascending *)
  mutable ns_tried : int;
  mutable ns_screened : int;
  mutable ns_escal : int;
  mutable ns_evals : (float * float) list;  (* (size, solved stage delay), newest first *)
  mutable ns_full : (float * float) option;  (* the winner: (size, stage delay) *)
  mutable ns_open : bool;
  mutable ns_fail : exn option;
}

(* Model-only predictions for the net's whole ladder (no replay): they set
   the screen level.  When even the best prediction misses the target --
   a deficit larger than any resize can recover -- the screen falls back
   to 30 % of that best, so the best-effort pass still only replays
   candidates near the achievable optimum. *)
let price (cfg : Flow.Config.t) ~pool ~tech ~sizes ~residual (r : Flow.net_result) =
  let net = r.Flow.net in
  let obs = cfg.Flow.Config.obs in
  let base = r.Flow.solve.Flow.stage_delay in
  let target = base -. residual in
  let edge = r.Flow.edge and input_slew = r.Flow.input_slew in
  let candidates =
    List.filter (fun s -> s > net.Design.size) (List.sort_uniq Float.compare sizes)
  in
  let est_base =
    estimate_delay ~obs ~pool ~tech ~net ~size:net.Design.size ~edge ~input_slew
  in
  let preds =
    List.map
      (fun size ->
        Deadline.check_ambient ();
        let est = estimate_delay ~obs ~pool ~tech ~net ~size ~edge ~input_slew in
        (size, if est_base > 0. then base *. (est /. est_base) else est))
      candidates
  in
  let best_pred = List.fold_left (fun acc (_, p) -> Float.min acc p) infinity preds in
  {
    ns_result = r;
    ns_target = target;
    ns_limit = screen_margin *. Float.max target best_pred;
    ns_todo = preds;
    ns_tried = 0;
    ns_screened = 0;
    ns_escal = 0;
    ns_evals = [];
    ns_full = None;
    ns_open = true;
    ns_fail = None;
  }

(* The next candidate to solve, past the screened ones; [None] closes a
   search whose ladder is exhausted. *)
let rec next_candidate obs st =
  match st.ns_todo with
  | [] ->
      st.ns_open <- false;
      None
  | (size, predicted) :: rest ->
      st.ns_todo <- rest;
      if predicted > st.ns_limit then begin
        st.ns_screened <- st.ns_screened + 1;
        Obs.incr obs "optimize.screened";
        next_candidate obs st
      end
      else Some size

let close st ?fail full =
  st.ns_open <- false;
  st.ns_full <- full;
  st.ns_fail <- fail

(* The rounds of one level, over its priced searches.  Escalation: a
   marginal inductive winner (within 5 % of the target) is re-verified at
   transistor level before being trusted; the simulated delay must confirm
   the target within a 5 % model-vs-silicon tolerance.  Non-marginal or
   RC-like winners skip this -- that is what keeps the escalation rate
   low. *)
let rounds (cfg : Flow.Config.t) ~pool ~tech (searches : net_search array) =
  let obs = cfg.Flow.Config.obs in
  let rec round () =
    (* Observation point: a budgeted optimize stops between rounds, and
       inside the kernels. *)
    Deadline.check_ambient ();
    let asks =
      Array.to_list searches
      |> List.filter_map (fun st ->
             if not st.ns_open then None
             else Option.map (fun size -> (st, size)) (next_candidate obs st))
      |> Array.of_list
    in
    if Array.length asks > 0 then begin
      let solves =
        Flow.solve_batch cfg ~pool ~tech
          (Array.map
             (fun (st, size) ->
               let r = st.ns_result in
               st.ns_tried <- st.ns_tried + 1;
               Obs.incr obs "optimize.candidates";
               ({ r.Flow.net with Design.size }, r.Flow.edge, r.Flow.input_slew))
             asks)
      in
      let marginal = ref [] in
      Array.iteri
        (fun i (st, size) ->
          match solves.(i) with
          | Error e -> close st ~fail:e None
          | Ok s ->
              let stage = s.Flow.stage_delay and target = st.ns_target in
              st.ns_evals <- (size, stage) :: st.ns_evals;
              if stage <= target then
                if
                  stage > target *. (1. -. escalation_band)
                  && s.Flow.model.Driver_model.screen.Screen.significant
                then begin
                  st.ns_escal <- st.ns_escal + 1;
                  Obs.incr obs "optimize.escalations";
                  marginal := (st, size, stage) :: !marginal
                end
                else close st (Some (size, stage)))
        asks;
      let marginal = Array.of_list (List.rev !marginal) in
      let delays =
        Flow.map_lanes ~obs pool marginal (fun chunk ->
            Reference.simulated_far_delays ~obs ~dt:cfg.Flow.Config.dt
              ?adaptive:cfg.Flow.Config.adaptive ~tech
              (Array.map
                 (fun (st, size, _) ->
                   let r = st.ns_result in
                   let net = r.Flow.net in
                   {
                     Reference.size;
                     input_slew = r.Flow.input_slew;
                     line = net.Design.eq_line;
                     cl = net.Design.cl;
                   })
                 chunk))
      in
      Array.iteri
        (fun i (st, size, stage) ->
          match delays.(i) with
          | Error e ->
              let what =
                Printf.sprintf "escalation of net %s at %gX" st.ns_result.Flow.net.Design.name
                  size
              in
              close st ~fail:(in_context what e) None
          | Ok d -> if d <= st.ns_target *. (1. +. escalation_band) then close st (Some (size, stage)))
        marginal;
      round ()
    end
  in
  round ()

(* A closed search's outcome: its winner, or else the repeater fallback
   and the best-effort resize. *)
let finish (cfg : Flow.Config.t) ~pool ~tech ~repeaters ~max_stages ~sizes st =
  let r = st.ns_result in
  let net = r.Flow.net in
  let obs = cfg.Flow.Config.obs in
  let base = r.Flow.solve.Flow.stage_delay and target = st.ns_target in
  let input_slew = r.Flow.input_slew in
  let line = net.Design.eq_line and cl = net.Design.cl in
  let outcome fix stage_after =
    {
      s_fix = fix;
      s_stage_after = stage_after;
      s_candidates = st.ns_tried;
      s_screened = st.ns_screened;
      s_escalations = st.ns_escal;
    }
  in
  match st.ns_full with
  | Some (size, stage) -> outcome (Resize { to_size = size }) stage
  | None -> (
      (* Resize cannot meet the target.  Repeater insertion is the
         fallback that can (splitting the line attacks the quadratic
         wire-delay term a bigger driver cannot touch); it edits topology,
         so it is reported as a recommendation, not applied. *)
      let best = ref None in
      if repeaters && target > 0. then
        for n_stages = 2 to max_stages do
          List.iter
            (fun size ->
              Deadline.check_ambient ();
              let seg = Line.scale_length line (line.Line.length /. float_of_int n_stages) in
              let stages = List.init n_stages (fun _ -> { Sta.size; line = seg }) in
              st.ns_tried <- st.ns_tried + 1;
              Obs.incr obs "optimize.candidates";
              match
                Sta.analyze_res ~dt:cfg.Flow.Config.dt ~tech ~pool ~input_slew ~sink_cl:cl
                  stages
              with
              | Error _ -> ()
              | Ok pr -> (
                  let d = pr.Sta.total_delay in
                  match !best with
                  | Some (bd, _, _) when bd <= d -> ()
                  | _ -> best := Some (d, n_stages, size)))
            (List.sort_uniq Float.compare sizes)
        done;
      match !best with
      | Some (d, stages, size) when d <= target ->
          outcome (Repeaters { stages; size; est_delay = d }) d
      | _ -> (
          (* Best-effort resize: recover what the ladder can and let the
             report carry the rest of the deficit. *)
          let evals = st.ns_evals in
          let best_stage =
            List.fold_left (fun acc (_, stage) -> Float.min acc stage) infinity evals
          in
          let partial =
            if best_stage < base then
              List.fold_left
                (fun acc (size, stage) ->
                  if stage <= best_stage *. (1. +. partial_band) then
                    match acc with
                    | Some (s0, _) when s0 <= size -> acc
                    | _ -> Some (size, stage)
                  else acc)
                None evals
            else None
          in
          match partial with
          | Some (size, stage) -> outcome (Resize { to_size = size }) stage
          | None -> outcome Unfixable base))

(* The searches of one level's nets [(id, residual)], in order: each net's
   ladder priced (one pool job a net), the rounds, then each closed search
   finished (one pool job a net).  A net whose search raises ends with
   that exception; after the level the first such net in order raises
   it. *)
let search_level (cfg : Flow.Config.t) ~pool ~tech ~repeaters ~max_stages ~sizes
    (results : Flow.net_result array) (jobs : (int * float) array) =
  let obs = cfg.Flow.Config.obs in
  let alone f = match f () with v -> Ok v | exception e when Flow.fails_alone e -> Error e in
  let priced =
    Pool.map ~obs pool (Array.length jobs) (fun k ->
        Deadline.check_ambient ();
        let id, residual = jobs.(k) in
        alone (fun () -> price cfg ~pool ~tech ~sizes ~residual results.(id)))
  in
  rounds cfg ~pool ~tech (Array.of_list (List.filter_map Result.to_option (Array.to_list priced)));
  let found =
    Pool.map ~obs pool (Array.length jobs) (fun k ->
        Result.bind priced.(k) (fun st ->
            match st.ns_fail with
            | Some e -> Error e
            | None ->
                alone (fun () -> finish cfg ~pool ~tech ~repeaters ~max_stages ~sizes st)))
  in
  Array.map (Result.fold ~ok:Fun.id ~error:raise) found

let count_violations ~required (res : Flow.result) =
  Array.fold_left
    (fun acc r -> if required -. r.Flow.arrival < 0. then acc + 1 else acc)
    0 res.Flow.results

let run ?tech ?(sizes = default_sizes) ?(repeaters = true) ?(max_stages = 4) ~required
    (cfg : Flow.Config.t) ~spef ~spec () =
  (* A shared cache is load-bearing, not an optimization: candidate solves
     and the final verification retime must agree on every (net, size,
     slew) key, so give the run one cache when the caller didn't. *)
  let cfg =
    match cfg.Flow.Config.cache with
    | Some _ -> cfg
    | None -> { cfg with Flow.Config.cache = Some (Flow.create_cache ()) }
  in
  let t_start = Unix.gettimeofday () in
  let char0 = Characterize.stats () and handles0 = Engine.Compiled.cache_stats () in
  match Flow.time ?tech cfg ~spef ~spec () with
  | Error _ as e -> e
  | Ok handle -> (
      let before = Flow.Timed.result handle in
      let design = before.Flow.design in
      let tech = design.Design.tech in
      let obs = cfg.Flow.Config.obs in
      let n = Array.length design.Design.nets in
      let slack id = required -. before.Flow.results.(id).Flow.arrival in
      let pool = Pool.borrow ?pool:cfg.Flow.Config.pool ?jobs:cfg.Flow.Config.jobs () in
      let jobs_used = Pool.jobs pool in
      let searches : (int * float * search) list ref = ref [] in
      (* Backward deficit pass.  A net's stage delay is on the arrival path
         of every endpoint downstream of it, so the deficit it should help
         recover is the worst violation in its fanout cone, not just its
         own: deficit(net) = max(-slack(net), max over fanouts).  Without
         this, an upstream net resizes only enough for its own slack and
         leaves endpoints with stage targets below their intrinsic floor. *)
      let fanouts = Array.make n [] in
      Array.iteri
        (fun id (net : Design.net) ->
          match net.Design.fanin with
          | Some p -> fanouts.(p) <- id :: fanouts.(p)
          | None -> ())
        design.Design.nets;
      let deficit = Array.make n 0. in
      for li = Array.length design.Design.levels - 1 downto 0 do
        Array.iter
          (fun id ->
            let worst_out =
              List.fold_left (fun acc f -> Float.max acc deficit.(f)) neg_infinity fanouts.(id)
            in
            deficit.(id) <- Float.max (-.slack id) worst_out)
          design.Design.levels.(li)
      done;
      (* Improvement already promised to each net's arrival by resizes on
         its fan-in chain.  Levels are processed in order, so a net's fanin
         (strictly earlier level) is final when the net is examined;
         repeater recommendations and unfixable nets contribute nothing —
         the bookkeeping mirrors exactly the delta that will be applied. *)
      let improve = Array.make n 0. in
      let ladder = List.sort_uniq Float.compare sizes in
      Array.iter
        (fun ids ->
          Deadline.check_ambient ();
          let t0 = Obs.start obs in
          let jobs =
            Array.to_list ids
            |> List.filter_map (fun id ->
                   let r = before.Flow.results.(id) in
                   let inherited =
                     match r.Flow.net.Design.fanin with
                     | Some p -> improve.(p)
                     | None -> 0.
                   in
                   improve.(id) <- inherited;
                   let residual = deficit.(id) -. inherited in
                   if residual <= 0. then None else Some (id, residual))
            |> Array.of_list
          in
          (* Every search prices the ladder above its net's size in the
             same ascending order, so concurrent searches would all miss
             a size at once and each characterize it.  Characterize the
             sizes this level prices first, one after another, each a
             batch of its grid points on the run's pool. *)
          List.iter
            (fun size ->
              if
                Array.exists
                  (fun (id, _) -> size > before.Flow.results.(id).Flow.net.Design.size)
                  jobs
              then ignore (Characterize.cell_res ~obs ~pool tech ~size))
            ladder;
          let found =
            search_level cfg ~pool ~tech ~repeaters ~max_stages ~sizes before.Flow.results jobs
          in
          Array.iteri
            (fun k s ->
              let id, residual = jobs.(k) in
              let r = before.Flow.results.(id) in
              (match s.s_fix with
              | Resize _ ->
                  improve.(id) <-
                    improve.(id) +. (r.Flow.solve.Flow.stage_delay -. s.s_stage_after)
              | Repeaters _ | Unfixable -> ());
              searches := (id, residual, s) :: !searches)
            found;
          Obs.finish obs
            ~args:[ ("searched", string_of_int (Array.length jobs)) ]
            "optimize.level" t0)
        design.Design.levels;
      let searches = List.rev !searches in
      (* The applied fix set: driver resizes only (repeaters are
         topology edits, reported as recommendations). *)
      let drivers =
        List.filter_map
          (fun (id, _, s) ->
            match s.s_fix with
            | Resize { to_size } ->
                Some (design.Design.nets.(id).Design.name, to_size)
            | Repeaters _ | Unfixable -> None)
          searches
      in
      let delta = { Delta.nets = []; drivers; slews = [] } in
      (match
         if drivers = [] then Ok (handle, { Flow.retimed = 0; reused = n })
         else Flow.retime handle delta
       with
      | Error _ as e -> e
      | Ok (handle', _) ->
          let after = Flow.Timed.result handle' in
          let fixes =
            Array.of_list
              (List.map
                 (fun (id, residual, s) ->
                   let r = before.Flow.results.(id) in
                   {
                     f_net = r.Flow.net;
                     f_edge = r.Flow.edge;
                     f_slack_before = required -. r.Flow.arrival;
                     f_slack_after =
                       required -. after.Flow.results.(id).Flow.arrival;
                     f_residual = residual;
                     f_stage_before = r.Flow.solve.Flow.stage_delay;
                     f_stage_after = s.s_stage_after;
                     f_candidates = s.s_candidates;
                     f_screened = s.s_screened;
                     f_escalations = s.s_escalations;
                     f_fix = s.s_fix;
                   })
                 searches)
          in
          let count p = Array.fold_left (fun a f -> if p f then a + 1 else a) 0 fixes in
          let sum p = Array.fold_left (fun a f -> a + p f) 0 fixes in
          let char1 = Characterize.stats () and handles1 = Engine.Compiled.cache_stats () in
          let stats =
            {
              o_nets = n;
              o_violations_before = count_violations ~required before;
              o_violations_after = count_violations ~required after;
              o_resized =
                count (fun f -> match f.f_fix with Resize _ -> true | _ -> false);
              o_repeaters =
                count (fun f -> match f.f_fix with Repeaters _ -> true | _ -> false);
              o_unfixable =
                count (fun f -> match f.f_fix with Unfixable -> true | _ -> false);
              o_candidates = sum (fun f -> f.f_candidates);
              o_screened = sum (fun f -> f.f_screened);
              o_escalations = sum (fun f -> f.f_escalations);
              o_char_hits = char1.Memo.hits - char0.Memo.hits;
              o_char_misses = char1.Memo.misses - char0.Memo.misses;
              o_handle_hits = handles1.Memo.hits - handles0.Memo.hits;
              o_handle_misses = handles1.Memo.misses - handles0.Memo.misses;
              o_jobs_used = jobs_used;
              o_seconds = Unix.gettimeofday () -. t_start;
            }
          in
          Log.info (fun m ->
              m
                "optimize: %d/%d nets violating -> %d after; %d resized, %d repeater \
                 recs, %d unfixable (%d candidates, %d screened, %d escalations)"
                stats.o_violations_before n stats.o_violations_after stats.o_resized
                stats.o_repeaters stats.o_unfixable stats.o_candidates stats.o_screened
                stats.o_escalations);
          Ok { required; before; after; fixes; delta; stats }))
