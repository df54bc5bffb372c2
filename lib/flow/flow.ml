module Measure = Rlc_waveform.Measure
module Driver_model = Rlc_ceff.Driver_model
module Reference = Rlc_ceff.Reference
module Characterize = Rlc_liberty.Characterize
module Line = Rlc_tline.Line
module Pade = Rlc_moments.Pade
module Sta = Rlc_sta.Sta
module Pool = Rlc_parallel.Pool
module Obs = Rlc_obs.Obs
module Memo = Rlc_obs.Memo
module Progress = Rlc_obs.Progress
module Deadline = Rlc_errors.Deadline

let src = Logs.Src.create "rlc.flow" ~doc:"parallel full-design timing flow"

module Log = (val Logs.src_log src : Logs.LOG)

type solve = {
  model : Driver_model.t;
  stage_delay : float;
  far_slew : float;
  iterations : int;
}

type net_result = {
  net : Design.net;
  edge : Measure.edge;
  input_slew : float;
  solve : solve;
  arrival : float;
}

type phase = { p_name : string; p_seconds : float }

type stats = {
  n_nets : int;
  n_levels : int;
  n_inductive : int;
  n_two_ramp : int;
  iterations_total : int;
  cache_hits : int;
  cache_misses : int;
  char_hits : int;
  char_misses : int;
  char_stores : int;
  iterations_spent : int;
  jobs_used : int;
  phases : phase list;
}

type result = { design : Design.t; results : net_result array; stats : stats }

type cache = (string, solve) Memo.t

(* A cold 512-net bus fills 512 entries; at about 0.9 KB each, the bound
   is about 15 MB. *)
let create_cache () : cache = Memo.create ~shards:16 ~capacity:1024 ()

(* The whole knob surface of a flow run as one value, so embedders (CLI,
   bench, the service daemon's [Session]) pass configuration around and
   override single fields without threading eight optional arguments. *)
module Config = struct
  type flow_config = {
    dt : float;
    adaptive : Rlc_circuit.Engine.adaptive option;
    jobs : int option;
    use_cache : bool;
    cache : cache option;
    obs : Obs.t;
    progress : Progress.t option;
    pool : Pool.t option;
  }

  type t = flow_config

  let default =
    {
      dt = 0.5e-12;
      adaptive = None;
      jobs = None;
      use_cache = true;
      cache = None;
      obs = Obs.null;
      progress = None;
      pool = None;
    }
end

(* Canonicalize the per-net electrical inputs so that (a) repeated bus bits
   collide on one cache key and (b) the solve is a pure function of the key
   — the flow's jobs-count-independence rests on computing FROM the
   quantized values, not merely keying on them. *)
type canonical = {
  q_slew : float;
  q_pade : Pade.t;
  q_line : Line.t;
  q_cl : float;
  key : string;
}

(* The key packs the bit patterns of the quantized fields, so two keys are
   equal exactly when every field is bit-identical -- for non-NaN floats,
   exactly when their [%.17g] renderings are (both keep -0 and 0 apart).
   Adaptive stepping changes the replayed waveform's grid (and hence the
   measured numbers at the last ulp), so its parameters are part of the
   key: a shared cache never serves a fixed-step solve to an adaptive run
   or vice versa.  The leading stepping tag fixes how many floats follow,
   so the tech name after them keeps the packing injective. *)
let pack_key ~tech_name ~edge ?adaptive fields =
  let nf = Array.length fields in
  let na = if Option.is_some adaptive then 3 else 0 in
  let o = 2 + (8 * (nf + na)) in
  let b = Bytes.create (o + String.length tech_name) in
  Bytes.set b 0 (if na > 0 then 'a' else 'x');
  Bytes.set b 1 (match edge with Measure.Rising -> 'r' | Measure.Falling -> 'f');
  let put i x = Bytes.set_int64_le b (2 + (8 * i)) (Int64.bits_of_float x) in
  Array.iteri put fields;
  Option.iter
    (fun (a : Rlc_circuit.Engine.adaptive) ->
      put nf a.Rlc_circuit.Engine.dt_min;
      put (nf + 1) a.Rlc_circuit.Engine.dt_max;
      put (nf + 2) a.Rlc_circuit.Engine.ltol)
    adaptive;
  Bytes.blit_string tech_name 0 b o (String.length tech_name);
  Bytes.unsafe_to_string b

let canonical_slew input_slew = Cache.quantize_slew (Sta.clamp_slew input_slew)

let canonicalize ~tech ~dt ?adaptive (net : Design.net) ~edge ~input_slew =
  let q = Cache.quantize in
  let q_slew = canonical_slew input_slew in
  let p = net.Design.pade in
  let q_pade =
    { Pade.a1 = q p.Pade.a1; a2 = q p.Pade.a2; a3 = q p.Pade.a3; b1 = q p.Pade.b1; b2 = q p.Pade.b2 }
  in
  let line = net.Design.eq_line in
  let q_line =
    Line.of_totals ~r:(q (Line.total_r line)) ~l:(q (Line.total_l line))
      ~c:(q (Line.total_c line)) ~length:line.Line.length
  in
  let q_cl = q net.Design.cl in
  let key =
    pack_key ~tech_name:tech.Rlc_devices.Tech.name ~edge ?adaptive
      [|
        net.Design.size;
        q_slew;
        q_pade.Pade.a1;
        q_pade.Pade.a2;
        q_pade.Pade.a3;
        q_pade.Pade.b1;
        q_pade.Pade.b2;
        Line.total_r q_line;
        Line.total_l q_line;
        Line.total_c q_line;
        q_cl;
        dt;
      |]
  in
  { q_slew; q_pade; q_line; q_cl; key }

(* A refused size stays a bad request ([Invalid_argument]) for the
   callers that type exceptions (the service's [guard], [Error.of_exn]). *)
let cell_exn ?obs ?pool tech ~size =
  match Characterize.cell_res ?obs ?pool tech ~size with
  | Ok c -> c
  | Error (Rlc_errors.Error.Bad_request msg) -> invalid_arg msg
  | Error e -> failwith (Rlc_errors.Error.message e)

(* A canonicalized net's driver model (the paper's steps 1-4). *)
let model_net (cfg : Config.t) ~tech c ~edge ~size =
  let obs = cfg.Config.obs in
  Driver_model.model_pade ~obs ~cell:(cell_exn ~obs tech ~size) ~edge ~input_slew:c.q_slew
    ~pade:c.q_pade ~line:c.q_line ~cl:c.q_cl ()

(* The solves of modeled nets: every far-end replay (step 5) as one batch,
   so replays of one ladder structure step in lock-step, each to its own
   outcome.  The model waveform lives in the normalized rising domain;
   t = 0 is the driver-input 50 % crossing, so the far-end 50 % time IS the
   stage delay (same convention as Rlc_sta.analyze). *)
let time_models (cfg : Config.t) modeled =
  let timings =
    Reference.far_timings ~obs:cfg.Config.obs ~dt:cfg.Config.dt ?adaptive:cfg.Config.adaptive
      (Array.map
         (fun (c, (m : Driver_model.t)) ->
           {
             Reference.vdd = m.Driver_model.vdd;
             pwl = m.Driver_model.pwl;
             line = c.q_line;
             cl = c.q_cl;
           })
         modeled)
  in
  Array.mapi
    (fun i (_, model) ->
      Result.map
        (fun (stage_delay, far_slew) ->
          { model; stage_delay; far_slew; iterations = Driver_model.total_iterations model })
        timings.(i))
    modeled

let solve_one cfg ~tech c ~edge ~size =
  Result.fold ~ok:Fun.id ~error:raise (time_models cfg [| (c, model_net cfg ~tech c ~edge ~size) |]).(0)

(* Where a looked-up net's solve came from: the Ceff cache, or solved --
   on a cache miss or with the cache off. *)
type outcome = Hit | Miss | Uncached

(* A failure that belongs to one net's solve: anything but an expired
   deadline, which ends the whole run. *)
let fails_alone = function Deadline.Expired _ -> false | _ -> true

(* One chunk of solves, one pool job.  Each net is canonicalized and
   looked up once, in order, and a miss's driver model computed ([record]
   is told of each, with the time it started); the misses' replays then
   run as one batch, inserted into [cache] when [insert].  A net whose key
   an earlier net of the chunk holds is looked up only after those
   inserts, so it hits as it would after a solve of its own.  Each net's
   solve is its own outcome: a net whose model or replay raises fails
   alone. *)
let solve_chunk (cfg : Config.t) ~tech ~cache ~insert ~record
    (chunk : (Design.net * Measure.edge * float) array) =
  Deadline.check_ambient ();
  let obs = cfg.Config.obs in
  let dt = cfg.Config.dt and adaptive = cfg.Config.adaptive in
  let n = Array.length chunk in
  let canon = Array.make n None and solves = Array.make n None in
  let outcomes = Array.make n Uncached in
  let modeled = ref [] and deferred = ref [] and earlier = ref [] in
  Array.iteri
    (fun k ((net : Design.net), edge, input_slew) ->
      let net_t0 = Obs.start obs in
      let c = canonicalize ~tech ~dt ?adaptive net ~edge ~input_slew in
      canon.(k) <- Some c;
      let seen = List.mem c.key !earlier in
      earlier := c.key :: !earlier;
      if insert && Option.is_some cache && seen then deferred := k :: !deferred
      else
        match Option.bind cache (fun m -> Memo.find m c.key) with
        | Some s ->
            solves.(k) <- Some (Ok s);
            outcomes.(k) <- Hit;
            record net net_t0 true s.model
        | None -> (
            match model_net cfg ~tech c ~edge ~size:net.Design.size with
            | model ->
                outcomes.(k) <- (if Option.is_some cache then Miss else Uncached);
                record net net_t0 false model;
                modeled := (k, (c, model)) :: !modeled
            | exception e when fails_alone e -> solves.(k) <- Some (Error e)))
    chunk;
  let modeled = Array.of_list (List.rev !modeled) in
  let timed = time_models cfg (Array.map snd modeled) in
  Array.iteri
    (fun i (k, (c, _)) ->
      solves.(k) <- Some timed.(i);
      match (cache, timed.(i)) with
      | Some m, Ok s when insert -> Memo.replace m c.key s
      | _ -> ())
    modeled;
  List.iter
    (fun k ->
      let net, edge, _ = chunk.(k) and c = Option.get canon.(k) in
      let net_t0 = Obs.start obs in
      match
        Memo.find_or_add (Option.get cache) c.key (fun () ->
            solve_one cfg ~tech c ~edge ~size:net.Design.size)
      with
      | s, hit ->
          solves.(k) <- Some (Ok s);
          outcomes.(k) <- (if hit then Hit else Miss);
          record net net_t0 hit s.model
      | exception e when fails_alone e -> solves.(k) <- Some (Error e))
    (List.rev !deferred);
  Array.init n (fun k -> (Option.get canon.(k), Option.get solves.(k), outcomes.(k)))

(* [f] on consecutive chunks of [items], one pool job a chunk, each as
   wide as the lanes a replay batch can fill with every domain busy:
   min(max_lanes, items / jobs, rounded up).  [f] returns one result per
   item; the results come back in item order. *)
let map_lanes ?obs pool items f =
  let r = Array.length items and jobs = Pool.jobs pool in
  if r = 0 then [||]
  else begin
    let width =
      Int.max 1 (Int.min Rlc_circuit.Engine.Compiled.max_lanes ((r + jobs - 1) / jobs))
    in
    Array.concat
      (Array.to_list
         (Pool.map ?obs pool ((r + width - 1) / width) (fun ci ->
              f (Array.sub items (ci * width) (Int.min width (r - (ci * width)))))))
  end

let cache_of (cfg : Config.t) =
  match cfg.Config.cache with Some m when cfg.Config.use_cache -> Some m | _ -> None

(* Driver-size candidates for the optimizer: each net (carrying its
   candidate size) canonicalized and cached exactly as the flow
   canonicalizes its own solves, through the flow's chunk solver with
   inserts and without per-net telemetry -- so an optimize sweep and the
   final verification flow agree on every shared (net, size, slew) key,
   and each solve stays a pure function of the quantized inputs
   (jobs-independent). *)
let solve_batch (cfg : Config.t) ~pool ~tech reqs =
  let cache = cache_of cfg in
  map_lanes ~obs:cfg.Config.obs pool reqs (fun chunk ->
      Array.map
        (fun (_, s, _) -> s)
        (solve_chunk cfg ~tech ~cache ~insert:true ~record:(fun _ _ _ _ -> ()) chunk))

module Timed = struct
  type timed = {
    cfg : Config.t;
    spef : Rlc_spef.Spef.t;
    spec : Spec.t;
    result : result;
    keys : string array;
        (* canonical cache key per net id, exactly as each net solved,
           kept from the solve pass that computed it *)
    index : Design.index;  (* what the next delta's ingest reuses *)
  }

  type t = timed

  let result t = t.result
  let design t = t.result.design
end

(* The one solve pass over the levels, for a cold run ([prev] absent) and a
   retime ([prev] = the previous state and the dirty set); every difference
   between the two follows from [prev]:
   - Only a retime reuses.  A net outside the dirty set keeps its previous
     solve and key, neither canonicalized nor looked up, when its record is
     the previous one (ingest kept it: same size, Pade fit, line and load)
     and its edge and quantized input slew are bit-equal -- the key is a
     function of exactly these and the stored configuration.  The dirty set
     is downward-closed over fan-out, so a clean net's ancestors hand off
     their previous slews; a clean net whose inputs moved anyway is
     re-solved, so correctness never rests on the dirty set being tight.
   - A retime looks the cache up without inserting: the resident result
     keeps its solves, and inserting would grow the cache by every edited
     net of every delta.
   - Phase and level spans, [stats.phases] and progress are a cold run's;
     a retime's one [flow.delta] span times it.  The benchmark ledger sums
     phase and delta spans into one row, so a retime records no phases.
   Cache and work counts fold the run's own outcomes, not the shared
   cache's counters, so a run counts none of a concurrent run's lookups. *)
let solve_pass ?prev (cfg : Config.t) (design : Design.t) =
  let cold = Option.is_none prev in
  let obs = cfg.Config.obs in
  (* A borrowed pool (the service daemon's) is used as-is; otherwise the run
     uses the process-wide resident pool of the requested size, clamped to
     the core count. *)
  let pool = Pool.borrow ?pool:cfg.Config.pool ?jobs:cfg.Config.jobs () in
  let cfg =
    match cfg.Config.cache with
    | Some _ -> cfg
    | None -> { cfg with Config.cache = Some (create_cache ()) }
  in
  let char0 = Characterize.stats () in
  let tech = design.Design.tech in
  let n = Array.length design.Design.nets in
  let phases = ref [] in
  let timed name f =
    if not cold then f ()
    else begin
      let t0 = Unix.gettimeofday () in
      let v = Obs.time obs ("flow." ^ name) f in
      let dt_wall = Unix.gettimeofday () -. t0 in
      phases := { p_name = name; p_seconds = dt_wall } :: !phases;
      Log.info (fun m -> m "phase %-12s %8.1f ms" name (1e3 *. dt_wall));
      v
    end
  in
  (* Characterize every driver size once, before the solves, so the solve
     jobs only ever read the store.  Each miss fans its grid points out
     over the run's pool, one size after another.  A delta can introduce a
     driver size the cold run never saw. *)
  timed "characterize" (fun () ->
      List.iter (fun size -> ignore (cell_exn ~obs ~pool tech ~size)) design.Design.sizes);
  let results : net_result option array = Array.make n None in
  let keys = Array.make n "" in
  (* The run's own cache and work counts, folded from its outcomes. *)
  let reused = ref 0 and hits = ref 0 and misses = ref 0 and spent = ref 0 in
  let reusable (net : Design.net) edge input_slew =
    match prev with
    | None -> None
    | Some ((old : Timed.t), dirty) ->
        let id = net.Design.id in
        let p = old.Timed.result.results.(id) in
        if
          (not dirty.(id))
          && net == p.net && edge = p.edge
          && Cache.same_bits (canonical_slew input_slew) p.input_slew
        then Some ({ p with arrival = 0. }, old.Timed.keys.(id))
        else None
  in
  let record_net lvl (net : Design.net) net_t0 hit (model : Driver_model.t) =
    if Obs.enabled obs then begin
      let iterations = Driver_model.total_iterations model in
      Obs.finish obs
        ~args:
          [
            ("net", net.Design.name);
            ("level", string_of_int lvl);
            ("cache", if hit then "hit" else "miss");
            ("ceff_iterations", string_of_int iterations);
            ( "shape",
              match model.Driver_model.shape with
              | Driver_model.Two_ramp _ -> "two-ramp"
              | Driver_model.One_ramp _ -> "one-ramp" );
          ]
        "flow.net" net_t0;
      Obs.incr obs "flow.nets";
      Obs.incr obs (if hit then "flow.cache.hits" else "flow.cache.misses");
      (* Per-net iterations regardless of cache outcome: sums to
         [stats.iterations_total] on a cold run.  The separate *_run
         counter tracks iterations actually executed. *)
      Obs.add obs "flow.ceff_iterations" iterations;
      if not hit then Obs.add obs "flow.ceff_iterations_run" iterations
    end
  in
  let cache = cache_of cfg in
  (* One pool job: a chunk of a level's nets that are not reused, solved
     by [solve_chunk]; a cold run inserts its solves.  A chunk raises its
     first failing net's exception. *)
  let solve_level_chunk lvl (chunk : (Design.net * Measure.edge * float) array) =
    if not cold then Obs.add obs "flow.retimed" (Array.length chunk);
    Array.map2
      (fun ((net : Design.net), edge, _) (c, solve, outcome) ->
        let solve = Result.fold ~ok:Fun.id ~error:raise solve in
        Log.debug (fun m ->
            m "net %-16s level %d %s: delay %.1f ps slew %.1f ps (%d iters%s)" net.Design.name lvl
              (match edge with Measure.Rising -> "rise" | Measure.Falling -> "fall")
              (Rlc_num.Units.in_ps solve.stage_delay)
              (Rlc_num.Units.in_ps solve.far_slew)
              solve.iterations
              (if outcome = Hit then ", cached" else ""));
        ({ net; edge; input_slew = c.q_slew; solve; arrival = 0. }, c.key, outcome))
      chunk
      (solve_chunk cfg ~tech ~cache ~insert:cold ~record:(record_net lvl) chunk)
  in
  let nets_done = ref 0 in
  timed "solve" (fun () ->
      Array.iteri
        (fun lvl ids ->
          Deadline.check_ambient ();
          let level_t0 = Obs.start obs in
          (* Input slew and edge for this level are fixed by the
             previous level (or the spec), so prepare them serially, and
             keep what a retime may reuse. *)
          let todo =
            List.filter_map
              (fun id ->
                let net = design.Design.nets.(id) in
                let edge, input_slew =
                  match net.Design.fanin with
                  | None -> (Measure.Rising, Option.get net.Design.prim_slew)
                  | Some p ->
                      let pr = Option.get results.(p) in
                      ( Sta.other_edge pr.edge,
                        Sta.handoff_slew ~far_slew:pr.solve.far_slew )
                in
                match reusable net edge input_slew with
                | Some (r, key) ->
                    Obs.incr obs "flow.reused";
                    results.(id) <- Some r;
                    keys.(id) <- key;
                    incr reused;
                    None
                | None -> Some (id, (net, edge, input_slew)))
              (Array.to_list ids)
            |> Array.of_list
          in
          let solved =
            map_lanes ~obs pool todo (fun chunk -> solve_level_chunk lvl (Array.map snd chunk))
          in
          Array.iteri
            (fun i (res, key, outcome) ->
              let id = fst todo.(i) in
              results.(id) <- Some res;
              keys.(id) <- key;
              match outcome with
              | Hit -> incr hits
              | Miss ->
                  incr misses;
                  spent := !spent + res.solve.iterations
              | Uncached -> spent := !spent + res.solve.iterations)
            solved;
          if cold then begin
            Obs.finish obs
              ~args:[ ("level", string_of_int lvl); ("nets", string_of_int (Array.length ids)) ]
              "flow.level" level_t0;
            nets_done := !nets_done + Array.length ids;
            Option.iter (fun p -> Progress.report p !nets_done) cfg.Config.progress
          end)
        design.Design.levels);
  (* Arrivals accumulate along the fan-in chains; levels are already in
     dependency order, so one ordered pass suffices. *)
  let results =
    timed "arrivals" (fun () ->
        let out = Array.map Option.get results in
        Array.iter
          (fun ids ->
            Array.iter
              (fun id ->
                let r = out.(id) in
                let base =
                  match r.net.Design.fanin with
                  | None -> 0.
                  | Some p -> out.(p).arrival
                in
                out.(id) <- { r with arrival = base +. r.solve.stage_delay })
              ids)
          design.Design.levels;
        out)
  in
  let count f = Array.fold_left (fun acc r -> if f r then acc + 1 else acc) 0 results in
  let char1 = Characterize.stats () in
  let stats =
    {
      n_nets = n;
      n_levels = Array.length design.Design.levels;
      n_inductive =
        count (fun r ->
            r.solve.model.Driver_model.screen.Rlc_ceff.Screen.significant);
      n_two_ramp =
        count (fun r ->
            match r.solve.model.Driver_model.shape with
            | Driver_model.Two_ramp _ -> true
            | Driver_model.One_ramp _ -> false);
      iterations_total =
        Array.fold_left (fun acc r -> acc + r.solve.iterations) 0 results;
      cache_hits = !hits;
      cache_misses = !misses;
      char_hits = char1.Memo.hits - char0.Memo.hits;
      char_misses = char1.Memo.misses - char0.Memo.misses;
      char_stores = char1.Memo.entries - char0.Memo.entries;
      iterations_spent = !spent;
      jobs_used = Pool.jobs pool;
      phases = List.rev !phases;
    }
  in
  Log.info (fun m ->
      m "flow: %d nets / %d levels, %d inductive, cache %d hits / %d misses, %d/%d iterations run"
        stats.n_nets stats.n_levels stats.n_inductive stats.cache_hits stats.cache_misses
        stats.iterations_spent stats.iterations_total);
  ({ design; results; stats }, keys, !reused)

let run_cfg (cfg : Config.t) (design : Design.t) =
  let result, _, _ = solve_pass cfg design in
  result

(* ---------------------------------------------------- incremental (ECO) *)

let time ?tech (cfg : Config.t) ~spef ~spec () =
  let pool = Pool.borrow ?pool:cfg.Config.pool ?jobs:cfg.Config.jobs () in
  match Design.ingest_resident ?tech ~obs:cfg.Config.obs ~pool ~spef ~spec () with
  | Error msg -> Error (Rlc_errors.Error.Bad_request msg)
  | Ok (design, index) ->
      let result, keys, _ = solve_pass cfg design in
      Ok { Timed.cfg; spef; spec; result; keys; index }

type delta_stats = { retimed : int; reused : int }

let retime ?(xtalk_victims = false) (t : Timed.t) (delta : Delta.t) =
  match Delta.apply ~spef:t.Timed.spef ~spec:t.Timed.spec delta with
  | Error _ as e -> e
  | Ok { Delta.spef; spec; changed } -> (
      let old = t.Timed.result in
      (* Re-ingest against the previous design and its index: on the
         sources Delta.apply produced only the edit's nets, nodes and
         coupling pairs are redone, and a net keeps its record only when
         everything it is built from is provably unchanged, so every record
         equals the one a cold ingest of the edited sources would build. *)
      let cfg = t.Timed.cfg in
      match
        Design.ingest_resident ~tech:old.design.Design.tech ~obs:cfg.Config.obs
          ~pool:(Pool.borrow ?pool:cfg.Config.pool ?jobs:cfg.Config.jobs ())
          ~prev:(old.design, t.Timed.index, t.Timed.spef) ~spef ~spec ()
      with
      | Error msg -> Error (Rlc_errors.Error.Bad_request msg)
      | Ok (design, index) ->
          let n = Array.length design.Design.nets in
          if
            n <> Array.length old.design.Design.nets
            || not
                 (Array.for_all2
                    (fun (a : Design.net) (b : Design.net) ->
                      String.equal a.Design.name b.Design.name)
                    design.Design.nets old.design.Design.nets)
          then Error (Rlc_errors.Error.Internal "retime: net universe changed under a delta")
          else begin
            let direct = Array.make n false in
            Array.iter
              (fun (net : Design.net) ->
                if List.mem net.Design.name changed then direct.(net.Design.id) <- true)
              design.Design.nets;
            (* Crosstalk-coupled victims of changed nets (old and new
               coupling graphs both: an edited block can add or drop a
               coupling, and the partner is affected either way). *)
            let partners =
              if not xtalk_victims then []
              else
                List.concat_map
                  (fun (cs : Design.coupling array) ->
                    List.filter_map
                      (fun (c : Design.coupling) ->
                        if direct.(c.Design.net_a) then Some c.Design.net_b
                        else if direct.(c.Design.net_b) then Some c.Design.net_a
                        else None)
                      (Array.to_list cs))
                  [ old.design.Design.couplings; design.Design.couplings ]
            in
            (* Downward closure over fan-out: the dirty cone. *)
            let dirty = Array.make n false in
            let rec mark i =
              if not dirty.(i) then begin
                dirty.(i) <- true;
                List.iter mark design.Design.nets.(i).Design.fanout
              end
            in
            Array.iteri (fun i d -> if d then mark i) direct;
            List.iter mark partners;
            let obs = cfg.Config.obs in
            let t0 = Obs.start obs in
            let result, keys, reused = solve_pass ~prev:(t, dirty) cfg design in
            Obs.finish obs
              ~args:
                [
                  ("nets", string_of_int n);
                  ("changed", string_of_int (List.length changed));
                  ("retimed", string_of_int (n - reused));
                  ("reused", string_of_int reused);
                ]
              "flow.delta" t0;
            Log.info (fun m ->
                m "delta: %d/%d nets retimed (%d reused) for %d changed" (n - reused) n reused
                  (List.length changed));
            Ok
              ( { t with Timed.spef; spec; result; keys; index },
                { retimed = n - reused; reused } )
          end)

let critical_path result =
  let worst =
    Array.fold_left
      (fun acc r ->
        match acc with
        | None -> Some r
        | Some best -> if r.arrival > best.arrival then Some r else Some best)
      None result.results
  in
  match worst with
  | None -> []
  | Some last ->
      let rec walk acc r =
        match r.net.Design.fanin with
        | None -> r :: acc
        | Some p -> walk (r :: acc) result.results.(p)
      in
      walk [] last
