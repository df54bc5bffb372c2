module Measure = Rlc_waveform.Measure
module Driver_model = Rlc_ceff.Driver_model
module Reference = Rlc_ceff.Reference
module Characterize = Rlc_liberty.Characterize
module Line = Rlc_tline.Line
module Pade = Rlc_moments.Pade
module Sta = Rlc_sta.Sta
module Pool = Rlc_parallel.Pool
module Obs = Rlc_obs.Obs
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

let create_cache () : solve Cache.t = Cache.create ()

(* The whole knob surface of a flow run as one value, so embedders (CLI,
   bench, the service daemon's [Session]) pass configuration around and
   override single fields without threading eight optional arguments. *)
module Config = struct
  type flow_config = {
    dt : float;
    adaptive : Rlc_circuit.Engine.adaptive option;
    jobs : int option;
    use_cache : bool;
    cache : solve Cache.t option;
    quantize_digits : int;
    slew_grid : float;
    obs : Obs.t;
    progress : Progress.t option;
    pool : Pool.t option;
    deadline : Deadline.t option;
    trace : string option;
        (** request trace id, installed as the ambient {!Obs.with_trace}
            for the whole run so every span it records tags to it *)
  }

  type t = flow_config

  let default =
    {
      dt = 0.5e-12;
      adaptive = None;
      jobs = None;
      use_cache = true;
      cache = None;
      quantize_digits = 9;
      slew_grid = 0.1e-12;
      obs = Obs.null;
      progress = None;
      pool = None;
      deadline = None;
      trace = None;
    }

  let with_jobs jobs t = { t with jobs = Some jobs }
  let with_cache cache t = { t with cache = Some cache }
  let with_adaptive a t = { t with adaptive = Some a }
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

let canonical_slew ~grid input_slew = Cache.quantize_slew ~grid (Sta.clamp_slew input_slew)

let canonicalize ~digits ~grid ~tech ~dt ?adaptive (net : Design.net) ~edge ~input_slew =
  let q = Cache.quantize ~digits in
  let q_slew = canonical_slew ~grid input_slew in
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

let cell_exn ?obs tech ~size =
  match Characterize.cell_res ?obs tech ~size with
  | Ok c -> c
  | Error e -> failwith (Rlc_errors.Error.message e)

let solve_net ?obs ?adaptive ~tech ~dt ~edge ~size c =
  let cell = cell_exn ?obs tech ~size in
  let model =
    Driver_model.model_pade ?obs ~cell ~edge ~input_slew:c.q_slew ~pade:c.q_pade ~line:c.q_line
      ~cl:c.q_cl ()
  in
  (* The model waveform lives in the normalized rising domain; t = 0 is the
     driver-input 50 % crossing, so the far-end 50 % time IS the stage
     delay (same convention as Rlc_sta.analyze). *)
  let stage_delay, far_slew =
    Reference.far_timing ?obs ~dt ?adaptive ~vdd:model.Driver_model.vdd
      ~pwl:model.Driver_model.pwl ~line:c.q_line ~cl:c.q_cl ()
  in
  { model; stage_delay; far_slew; iterations = Driver_model.total_iterations model }

(* Where a net's solve came from: kept from the previous run ([Reused],
   retime only), answered by the Ceff cache, or solved -- on a cache miss
   or with the cache off. *)
type outcome = Reused | Hit | Miss | Uncached

(* The per-net step of every solve: canonicalize, look the cache up, solve
   on a miss.  [insert] keeps a miss's solve in the cache. *)
let lookup_or_solve (cfg : Config.t) ~tech ~insert (net : Design.net) ~edge ~input_slew =
  let dt = cfg.Config.dt and adaptive = cfg.Config.adaptive in
  let c =
    canonicalize ~digits:cfg.Config.quantize_digits ~grid:cfg.Config.slew_grid ~tech ~dt
      ?adaptive net ~edge ~input_slew
  in
  let compute () =
    solve_net ~obs:cfg.Config.obs ?adaptive ~tech ~dt ~edge ~size:net.Design.size c
  in
  let solve, outcome =
    match cfg.Config.cache with
    | Some cache when cfg.Config.use_cache -> (
        if insert then
          let s, hit = Cache.find_or_add cache c.key compute in
          (s, if hit then Hit else Miss)
        else
          match Cache.find cache c.key with Some s -> (s, Hit) | None -> (compute (), Miss))
    | _ -> (compute (), Uncached)
  in
  (c, solve, outcome)

(* One candidate evaluation for the optimizer: the net's interconnect with a
   caller-chosen driver size, canonicalized and cached exactly as the flow
   canonicalizes its own solves — so an optimize sweep and the final
   verification flow agree on every shared (net, size, slew) key, and the
   solve stays a pure function of the quantized inputs (jobs-independent). *)
let solve_sized (cfg : Config.t) ~tech ~(net : Design.net) ~size ~edge ~input_slew =
  let _, solve, _ =
    lookup_or_solve cfg ~tech ~insert:true { net with Design.size } ~edge ~input_slew
  in
  solve

(* The request deadline (when any) is installed ambiently for the whole
   run: the serial phases check it at level boundaries, worker domains
   inherit it through the pool's batch snapshot, and the replay engine
   polls it inside its step loops.  The trace id rides the same mechanism:
   installed here for the master domain, snapshotted into pool batches for
   the workers, stamped onto every span by [Obs.record_span]. *)
let with_run (cfg : Config.t) f =
  let body () =
    match cfg.Config.deadline with None -> f () | Some d -> Deadline.with_ambient d f
  in
  match cfg.Config.trace with
  | None -> body ()
  | Some _ as trace -> Obs.with_trace trace body

module Timed = struct
  type timed = {
    cfg : Config.t;
    spef : Rlc_spef.Spef.t;
    spec : Spec.t;
    result : result;
    keys : string array;
        (* canonical cache key per net id, exactly as each net solved,
           kept from the solve pass that computed it *)
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
  let obs = cfg.Config.obs and slew_grid = cfg.Config.slew_grid in
  (* A borrowed pool (the service daemon's) is used as-is; otherwise the run
     uses the process-wide resident pool of the requested size, clamped to
     the core count. *)
  let pool = Pool.borrow ?pool:cfg.Config.pool ?jobs:cfg.Config.jobs () in
  let cfg =
    match cfg.Config.cache with Some _ -> cfg | None -> Config.with_cache (create_cache ()) cfg
  in
  let ch0, cm0, cs0 = Characterize.stats () in
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
  (* Characterize every driver size once, in the calling domain, so the
     worker domains only ever read the (mutex-guarded) memo table.  A delta
     can introduce a driver size the cold run never saw. *)
  timed "characterize" (fun () ->
      List.iter (fun size -> ignore (cell_exn ~obs tech ~size)) design.Design.sizes);
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
          && Cache.same_bits (canonical_slew ~grid:slew_grid input_slew) p.input_slew
        then Some ({ p with arrival = 0. }, old.Timed.keys.(id))
        else None
  in
  let solve_one lvl ((net : Design.net), edge, input_slew) =
    (* Observation point: a flow whose budget expired stops before the next
       solve, even when every remaining net would be a cheap cache hit. *)
    Deadline.check_ambient ();
    match reusable net edge input_slew with
    | Some (r, key) ->
        Obs.incr obs "flow.reused";
        (r, key, Reused)
    | None ->
        if not cold then Obs.incr obs "flow.retimed";
        let net_t0 = Obs.start obs in
        let c, solve, outcome = lookup_or_solve cfg ~tech ~insert:cold net ~edge ~input_slew in
        let hit = outcome = Hit in
        if Obs.enabled obs then begin
          Obs.finish obs
            ~args:
              [
                ("net", net.Design.name);
                ("level", string_of_int lvl);
                ("cache", if hit then "hit" else "miss");
                ("ceff_iterations", string_of_int solve.iterations);
                ( "shape",
                  match solve.model.Driver_model.shape with
                  | Driver_model.Two_ramp _ -> "two-ramp"
                  | Driver_model.One_ramp _ -> "one-ramp" );
              ]
            "flow.net" net_t0;
          Obs.incr obs "flow.nets";
          Obs.incr obs (if hit then "flow.cache.hits" else "flow.cache.misses");
          (* Per-net iterations regardless of cache outcome: sums to
             [stats.iterations_total] on a cold run.  The separate *_run
             counter tracks iterations actually executed. *)
          Obs.add obs "flow.ceff_iterations" solve.iterations;
          if not hit then Obs.add obs "flow.ceff_iterations_run" solve.iterations
        end;
        Log.debug (fun m ->
            m "net %-16s level %d %s: delay %.1f ps slew %.1f ps (%d iters%s)" net.Design.name
              lvl
              (match edge with Measure.Rising -> "rise" | Measure.Falling -> "fall")
              (Rlc_num.Units.in_ps solve.stage_delay)
              (Rlc_num.Units.in_ps solve.far_slew)
              solve.iterations
              (if hit then ", cached" else ""));
        ({ net; edge; input_slew = c.q_slew; solve; arrival = 0. }, c.key, outcome)
  in
  let nets_done = ref 0 in
  timed "solve" (fun () ->
      Array.iteri
        (fun lvl ids ->
          Deadline.check_ambient ();
          let level_t0 = Obs.start obs in
          (* Input slew and edge for this level are fixed by the
             previous level (or the spec), so prepare them serially. *)
          let jobs_for_level =
            Array.map
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
                (net, edge, input_slew))
              ids
          in
          let solved =
            Pool.map ~obs pool (Array.length ids) (fun k -> solve_one lvl jobs_for_level.(k))
          in
          Array.iteri
            (fun k (r, key, outcome) ->
              results.(ids.(k)) <- Some r;
              keys.(ids.(k)) <- key;
              match outcome with
              | Reused -> incr reused
              | Hit -> incr hits
              | Miss ->
                  incr misses;
                  spent := !spent + r.solve.iterations
              | Uncached -> spent := !spent + r.solve.iterations)
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
      char_hits = (let h, _, _ = Characterize.stats () in h - ch0);
      char_misses = (let _, m, _ = Characterize.stats () in m - cm0);
      char_stores = (let _, _, s = Characterize.stats () in s - cs0);
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
  let result, _, _ = with_run cfg (fun () -> solve_pass cfg design) in
  result

(* ---------------------------------------------------- incremental (ECO) *)

let time ?tech (cfg : Config.t) ~spef ~spec () =
  match Design.ingest ?tech ~spef ~spec () with
  | Error msg -> Error (Rlc_errors.Error.Bad_request msg)
  | Ok design ->
      let result, keys, _ = with_run cfg (fun () -> solve_pass cfg design) in
      Ok { Timed.cfg; spef; spec; result; keys }

type delta_stats = { retimed : int; reused : int }

let retime ?deadline ?trace ?(xtalk_victims = false) (t : Timed.t) (delta : Delta.t) =
  match Delta.apply ~spef:t.Timed.spef ~spec:t.Timed.spec delta with
  | Error _ as e -> e
  | Ok { Delta.spef; spec; changed } -> (
      let old = t.Timed.result in
      (* Re-ingest against the previous design: a net keeps its record only
         when everything it is built from is provably unchanged, so every
         record equals the one a cold ingest of the edited sources would
         build, and the untouched nets skip the tree and Pade work. *)
      match
        Design.ingest ~tech:old.design.Design.tech ~prev:(old.design, t.Timed.spef) ~spef ~spec ()
      with
      | Error msg -> Error (Rlc_errors.Error.Bad_request msg)
      | Ok design ->
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
            let cfg = { t.Timed.cfg with Config.deadline; trace } in
            let obs = cfg.Config.obs in
            let result, keys, reused =
              with_run cfg (fun () ->
                  let t0 = Obs.start obs in
                  let ((_, _, reused) as v) = solve_pass ~prev:(t, dirty) cfg design in
                  Obs.finish obs
                    ~args:
                      [
                        ("nets", string_of_int n);
                        ("changed", string_of_int (List.length changed));
                        ("retimed", string_of_int (n - reused));
                        ("reused", string_of_int reused);
                      ]
                    "flow.delta" t0;
                  v)
            in
            Log.info (fun m ->
                m "delta: %d/%d nets retimed (%d reused) for %d changed" (n - reused) n reused
                  (List.length changed));
            Ok ({ t with Timed.spef; spec; result; keys }, { retimed = n - reused; reused })
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
