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

let estimate_delay ~obs ~tech ~(net : Design.net) ~size ~edge ~input_slew =
  match Characterize.cell_res ~obs tech ~size with
  | Error e -> failwith (Rlc_errors.Error.message e)
  | Ok cell ->
      let model =
        Driver_model.model_pade ~obs ~cell ~edge ~input_slew ~pade:net.Design.pade
          ~line:net.Design.eq_line ~cl:net.Design.cl ()
      in
      Sta.estimate_far_delay model ~line:net.Design.eq_line ~cl:net.Design.cl

(* Escalation: a marginal inductive winner (within 5 % of the target) is
   re-verified at transistor level before being trusted; the simulated
   delay must confirm the target within a 5 % model-vs-silicon tolerance.
   Non-marginal or RC-like winners skip this — that is what keeps the
   escalation rate low. *)
let escalation_band = 0.05

(* Best-effort acceptance: when no candidate meets the target, the search
   still resizes — taking the smallest size whose solved stage delay is
   within 2 % of the best the ladder achieved, so it never pays a 300X
   driver for noise-level gains over a 150X one. *)
let partial_band = 0.02

let search_net (cfg : Flow.Config.t) ~tech ~repeaters ~max_stages ~sizes ~residual
    (r : Flow.net_result) =
  let net = r.Flow.net in
  let obs = cfg.Flow.Config.obs in
  let base = r.Flow.solve.Flow.stage_delay in
  let target = base -. residual in
  let edge = r.Flow.edge and input_slew = r.Flow.input_slew in
  let line = net.Design.eq_line and cl = net.Design.cl in
  let candidates =
    List.filter (fun s -> s > net.Design.size) (List.sort_uniq Float.compare sizes)
  in
  let tried = ref 0 and screened = ref 0 and escal = ref 0 in
  let est_base = estimate_delay ~obs ~tech ~net ~size:net.Design.size ~edge ~input_slew in
  (* Model-only predictions for the whole ladder first (no replay): they
     set the screen level.  When even the best prediction misses the
     target — a deficit larger than any resize can recover — the screen
     falls back to 30 % of that best, so the best-effort pass still only
     replays candidates near the achievable optimum. *)
  let preds =
    List.map
      (fun size ->
        Deadline.check_ambient ();
        let est = estimate_delay ~obs ~tech ~net ~size ~edge ~input_slew in
        (size, if est_base > 0. then base *. (est /. est_base) else est))
      candidates
  in
  let best_pred = List.fold_left (fun acc (_, p) -> Float.min acc p) infinity preds in
  let screen_limit = screen_margin *. Float.max target best_pred in
  let full = ref None in
  let evals = ref [] in
  List.iter
    (fun (size, predicted) ->
      if !full = None then begin
        (* Observation point: a budgeted optimize stops between
           candidates, not only between nets. *)
        Deadline.check_ambient ();
        if predicted > screen_limit then begin
          incr screened;
          Obs.incr obs "optimize.screened"
        end
        else begin
          incr tried;
          Obs.incr obs "optimize.candidates";
          let s = Flow.solve_sized cfg ~tech ~net ~size ~edge ~input_slew in
          evals := (size, s.Flow.stage_delay) :: !evals;
          if s.Flow.stage_delay <= target then begin
            let marginal =
              s.Flow.stage_delay > target *. (1. -. escalation_band)
              && s.Flow.model.Driver_model.screen.Screen.significant
            in
            let confirmed =
              if not marginal then true
              else begin
                incr escal;
                Obs.incr obs "optimize.escalations";
                Reference.simulated_far_delay ~dt:cfg.Flow.Config.dt
                  ?adaptive:cfg.Flow.Config.adaptive ~tech ~size ~input_slew ~line ~cl ()
                <= target *. (1. +. escalation_band)
              end
            in
            if confirmed then full := Some (size, s.Flow.stage_delay)
          end
        end
      end)
    preds;
  let finish fix stage_after =
    {
      s_fix = fix;
      s_stage_after = stage_after;
      s_candidates = !tried;
      s_screened = !screened;
      s_escalations = !escal;
    }
  in
  match !full with
  | Some (size, stage) -> finish (Resize { to_size = size }) stage
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
              incr tried;
              Obs.incr obs "optimize.candidates";
              match
                Sta.analyze_res ~dt:cfg.Flow.Config.dt ~tech ~input_slew ~sink_cl:cl stages
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
          finish (Repeaters { stages; size; est_delay = d }) d
      | _ -> (
          (* Best-effort resize: recover what the ladder can and let the
             report carry the rest of the deficit. *)
          let best_stage =
            List.fold_left (fun acc (_, st) -> Float.min acc st) infinity !evals
          in
          let partial =
            if best_stage < base then
              List.fold_left
                (fun acc (size, st) ->
                  if st <= best_stage *. (1. +. partial_band) then
                    match acc with
                    | Some (s0, _) when s0 <= size -> acc
                    | _ -> Some (size, st)
                  else acc)
                None !evals
            else None
          in
          match partial with
          | Some (size, stage) -> finish (Resize { to_size = size }) stage
          | None -> finish Unfixable base))

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
  let ch0, cm0, _ = Characterize.stats () in
  let hh0, hm0 = Engine.Compiled.cache_stats () in
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
      let body () =
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
            let found =
              Pool.map ~obs pool (Array.length jobs) (fun k ->
                  Deadline.check_ambient ();
                  let id, residual = jobs.(k) in
                  search_net cfg ~tech ~repeaters ~max_stages ~sizes ~residual
                    before.Flow.results.(id))
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
          design.Design.levels
      in
      match Flow.with_run cfg body with
      | () ->
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
             else
               Flow.retime ?deadline:cfg.Flow.Config.deadline ?trace:cfg.Flow.Config.trace
                 handle delta
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
              let ch1, cm1, _ = Characterize.stats () in
              let hh1, hm1 = Engine.Compiled.cache_stats () in
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
                  o_char_hits = ch1 - ch0;
                  o_char_misses = cm1 - cm0;
                  o_handle_hits = hh1 - hh0;
                  o_handle_misses = hm1 - hm0;
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
