(* The four workloads.  Each runs in a process of its own: set-up (cell
   characterization, plus the daemon and its design_load for the served
   workload) is repeated and timed, one warm-up operation is discarded,
   then operations run back to back for the requested seconds with every
   obs sink off.  Outputs are checked against untimed reference runs, the
   model's accuracy is scored against transistor-level simulation, and a
   traced run (when asked for) repeats three operations with sinks on to
   fill the per-layer ledger. *)

module Obs = Rlc_obs.Obs
module Json = Rlc_service.Json
module Flow = Rlc_flow.Flow
module Design = Rlc_flow.Design
module Report = Rlc_flow.Report
module Spec = Rlc_flow.Spec
module Delta = Rlc_flow.Delta
module Optimize = Rlc_flow.Optimize
module Spef = Rlc_spef.Spef
module Xtalk = Rlc_xtalk.Xtalk
module Characterize = Rlc_liberty.Characterize
module Engine = Rlc_circuit.Engine
module Reference = Rlc_ceff.Reference

type ctx = {
  seed : int;
  seconds : float;
  smoke : bool;
  traced : bool;
  workdir : string;
  daemon : string;  (** path of the [rlc_timing] executable *)
}

type metric = { name : string; unit_ : string; value : float; samples : float list }

type outcome = {
  e2e : metric list;
  layers : metric list;  (** per-layer metrics; empty unless traced *)
  extra : (string * float) list;  (** context for the result file: tails, counts *)
  ledger : (string * float) list;  (** layer, self ms per operation; empty unless traced *)
  attempted : int;
  failed : int;
  notes : string list;  (** one line per failure *)
}

let end_to_end_units =
  [
    ("setup_s", "s");
    ("op_p50_ms", "ms");
    ("ops_per_s", "1/s");
    ("peak_rss_mb", "MB");
    ("delay_err_pct", "%");
    ("slew_err_pct", "%");
  ]

let per_layer_units =
  [
    ("spef.parse_ms", "ms");
    ("spec.parse_ms", "ms");
    ("design.ingest_ms", "ms");
    ("report.render_ms", "ms");
    ("report.bytes", "bytes");
    ("json.parse_ms", "ms");
    ("flow.run_ms", "ms");
    ("flow.solve_ms", "ms");
    ("flow.net_self_ms", "ms");
    ("flow.cache_hit_ratio", "ratio");
    ("flow.ceff_iterations_run", "count");
    ("flow.retimed_ratio", "ratio");
    ("delta.apply_ms", "ms");
    ("driver_model.ceff_ms", "ms");
    ("driver_model.unconverged", "count");
    ("engine.step_loop_ms", "ms");
    ("engine.factor_ms", "ms");
    ("engine.compile_ms", "ms");
    ("engine.dc_solve_ms", "ms");
    ("engine.transients", "count");
    ("engine.steps_per_transient", "count");
    ("engine.refactors", "count");
    ("engine.handle_hit_ratio", "ratio");
    ("characterize.cold_ms_per_size", "ms");
    ("characterize.misses", "count");
    ("characterize.hit_ratio", "ratio");
    ("xtalk.screen_ms", "ms");
    ("xtalk.victim_ms", "ms");
    ("xtalk.screen_rate", "ratio");
    ("xtalk.cluster_transients", "count");
    ("xtalk.fragment_ms", "ms");
    ("optimize.search_self_ms", "ms");
    ("optimize.verify_ms", "ms");
    ("optimize.candidates", "count");
    ("optimize.screen_rate", "ratio");
    ("optimize.escalations", "count");
    ("pool.batch_ms", "ms");
    ("pool.queue_wait_ms", "ms");
    ("pool.speedup", "ratio");
    ("server.request_self_ms", "ms");
    ("server.queue_wait_p50_ms", "ms");
    ("server.request_p50_ms", "ms");
    ("server.rejected", "count");
    ("client.overhead_ms", "ms");
    ("gc.alloc_mb_per_op", "MB");
    ("gc.major_per_op", "count");
    ("trace.overhead_pct", "%");
  ]

let metric units ?(samples = []) name value =
  { name; unit_ = List.assoc name units; value; samples = (if samples = [] then [ value ] else samples) }

(* Every per-layer metric, zero where the workload never enters the layer. *)
let layer_metrics values =
  List.map
    (fun (name, _) -> metric per_layer_units name (Option.value ~default:0. (List.assoc_opt name values)))
    per_layer_units

(* setup_s is the mean of a run's set-ups, not their median.  On a shared
   host a single-threaded set-up runs at one of two speeds (a neighbour
   slows the CPU about 1.7x in spells of seconds), and with close to half
   the set-ups slowed the median jumps between the two from run to run,
   while the mean follows the slowed share smoothly. *)
let setup_estimate = Stats.mean

let tech = Rlc_devices.Tech.c018
let jobs = Rlc_parallel.Pool.default_jobs ()
let ok_exn = function Ok v -> v | Error e -> failwith (Rlc_errors.Error.message e)

let ingest_exn ~spef ~spec =
  match Design.ingest ~spef ~spec () with Ok d -> d | Error msg -> failwith msg

let parse_sources (d : Gen.design) =
  (ok_exn (Spef.parse_res d.Gen.spef), ok_exn (Spec.parse_res d.Gen.spec))

let characterize sizes =
  List.iter (fun size -> ignore (ok_exn (Characterize.cell_res tech ~size))) sizes

(* A report with a non-finite number is not valid JSON ([%g] prints nan and
   inf bare), so parsing it is the finiteness check. *)
let valid_json s = Result.is_ok (Json.parse s)

let cold_report spef spec =
  let r = Flow.run_cfg { Flow.Config.default with jobs = Some jobs } (ingest_exn ~spef ~spec) in
  (Report.json_string r, r)

(* Mean |error| of the flow's stage delay and far-end slew against the
   transistor-level reference (dt 0.5 ps) on seeded level-0 (rising) nets.
   Computed outside every timed region. *)
let model_error ctx (r : Flow.result) =
  let level0 =
    Array.to_list r.Flow.results
    |> List.filter (fun (nr : Flow.net_result) -> nr.Flow.net.Design.level = 0)
  in
  let st = Gen.rng ~seed:ctx.seed ~salt:99 in
  let picked =
    List.map (fun nr -> (Random.State.bits st, nr)) level0
    |> List.sort compare
    |> List.filteri (fun i _ -> i < if ctx.smoke then 2 else 32)
    |> List.map snd
  in
  let errs =
    List.map
      (fun (nr : Flow.net_result) ->
        let net = nr.Flow.net in
        let sim =
          Reference.simulate ~dt:0.5e-12 ~tech:r.Flow.design.Design.tech ~size:net.Design.size
            ~input_slew:nr.Flow.input_slew ~line:net.Design.eq_line ~cl:net.Design.cl ()
        in
        let pct model actual = 100. *. Float.abs (model -. actual) /. actual in
        ( pct nr.Flow.solve.Flow.stage_delay (Reference.far_delay sim),
          pct nr.Flow.solve.Flow.far_slew (Reference.far_slew sim) ))
      picked
  in
  (Stats.mean (List.map fst errs), Stats.mean (List.map snd errs))

(* Per-layer values common to every traced run, from its spans ([ops]
   operations' worth) and counters. *)
let span_layers ~ops timed =
  let open Ledger in
  let per x = x /. ops and ms x = 1e3 *. x /. ops in
  let steps = arg_sum timed "engine.step_loop" "steps" and transients = count timed "engine.step_loop" in
  [
    ("spef.parse_ms", ms (total_s timed "spef.parse"));
    ("spec.parse_ms", ms (total_s timed "spec.parse"));
    ("design.ingest_ms", ms (total_s timed "design.ingest"));
    ("report.render_ms", ms (total_s timed "report.render"));
    ( "flow.run_ms",
      ms
        (List.fold_left
           (fun acc n -> acc +. total_s timed n)
           0.
           [ "flow.characterize"; "flow.solve"; "flow.arrivals"; "flow.delta" ]) );
    ("flow.solve_ms", ms (total_s timed "flow.solve"));
    ("flow.net_self_ms", ms (self_s timed "flow.net"));
    ( "flow.cache_hit_ratio",
      Stats.ratio (arg_count timed "flow.net" "cache" "hit") (arg_count timed "flow.net" "cache" "miss") );
    ("flow.ceff_iterations_run", per (arg_sum timed "ceff.solve" "iterations"));
    ( "flow.retimed_ratio",
      let nets = arg_sum timed "flow.delta" "nets" in
      if nets > 0. then arg_sum timed "flow.delta" "retimed" /. nets else 0. );
    ("delta.apply_ms", ms (total_s timed "delta.apply"));
    ("driver_model.ceff_ms", ms (self_s timed "ceff.solve"));
    ("driver_model.unconverged", per (arg_count timed "ceff.solve" "converged" "false"));
    ("engine.step_loop_ms", ms (self_s timed "engine.step_loop"));
    ("engine.factor_ms", ms (self_s timed "engine.factor"));
    ("engine.compile_ms", ms (self_s timed "engine.compile"));
    ("engine.dc_solve_ms", ms (self_s timed "engine.dc_solve"));
    ("engine.transients", per transients);
    ("engine.steps_per_transient", if transients > 0. then steps /. transients else 0.);
    ("engine.refactors", per (arg_sum timed "engine.step_loop" "refactors"));
    ("xtalk.screen_ms", ms (self_s timed "xtalk.screen"));
    ("xtalk.victim_ms", ms (self_s timed "xtalk.victim"));
    ("xtalk.fragment_ms", ms (total_s timed "xtalk.fragment"));
    (* The search jobs record no span, so the submitting domain's share of
       them (screening, bookkeeping, escalations) is its batches' self time;
       the worker domains' share goes unrecorded. *)
    ( "optimize.search_self_ms",
      ms
        (self_s timed "optimize.level"
        +. List.fold_left
             (fun acc t -> if t.parent = Some "optimize.level" then acc +. t.self else acc)
             0. (named timed "pool.batch")) );
    (* Optimize.run verifies its resizes with one incremental retime. *)
    ( "optimize.verify_ms",
      if count timed "optimize.run" > 0. then ms (total_s timed "flow.delta") else 0. );
    ("pool.batch_ms", ms (total_s timed "pool.batch"));
    ("server.request_self_ms", ms (self_s timed "service.request"));
  ]

let ledger_per_op ~ops timed = List.map (fun (l, s) -> (l, 1e3 *. s /. ops)) (Ledger.fold timed)

(* ------------------------------------------------------------ in-process *)

type 'r inproc = {
  sizes : float list;  (** driver sizes the set-up characterizes *)
  setup_reps : int;
  op : jobs:int -> obs:Obs.t -> 'r;
      (** one operation; wraps each public call in a bench span on [obs] *)
  payload : 'r -> string;  (** the JSON the operation renders *)
  flow_of : 'r -> Flow.result;  (** the flow scored for accuracy *)
  contract : 'r -> string option;  (** a further contract, checked on the reference run *)
  result_layers : 'r -> (string * float) list;  (** per-layer values read off the result *)
  extra : 'r -> (string * float) list;
}

let run_inproc ctx ~name w =
  let reps = if ctx.smoke || ctx.traced then 1 else w.setup_reps in
  let setup () =
    Characterize.clear_cache ();
    snd (Stats.time (fun () -> characterize w.sizes))
  in
  let setups = ref [ setup () ] in
  (* Each operation starts where a CLI process starts once characterization
     is done: no compiled transient handles, a fresh Ceff cache. *)
  let timed_op ~jobs ~obs =
    Engine.Compiled.clear_cache ();
    Stats.time (fun () -> w.op ~jobs ~obs)
  in
  ignore (timed_op ~jobs ~obs:Obs.null);
  let reference, t_jobs1 = timed_op ~jobs:1 ~obs:Obs.null in
  let ref_payload = w.payload reference in
  let notes = ref [] in
  let note msg = notes := msg :: !notes in
  if not (valid_json ref_payload) then note "reference payload is not valid JSON (non-finite number?)";
  Option.iter note (w.contract reference);
  let lat = ref [] and attempted = ref 0 and failed = ref 0 in
  let t_start = Stats.now () and in_setup = ref 0. in
  let op_elapsed () = Stats.now () -. t_start -. !in_setup in
  (* The other set-ups are spread over the measured phase: on a shared host
     a slow spell lasts seconds, and set-ups run back to back would all land
     in one.  Any the phase ends before run after it. *)
  let setups_due until =
    while List.length !setups < reps && until (List.length !setups) do
      let t = setup () in
      setups := t :: !setups;
      in_setup := !in_setup +. t
    done
  in
  while !attempted < 3 || op_elapsed () < ctx.seconds do
    setups_due (fun done_ -> op_elapsed () >= ctx.seconds *. float_of_int done_ /. float_of_int reps);
    incr attempted;
    match timed_op ~jobs ~obs:Obs.null with
    | r, dt ->
        if String.equal (w.payload r) ref_payload then lat := dt :: !lat
        else begin
          incr failed;
          lat := infinity :: !lat;
          note (Printf.sprintf "operation %d: payload differs from the jobs-1 run" !attempted)
        end
    | exception e ->
        incr failed;
        lat := infinity :: !lat;
        note (Printf.sprintf "operation %d: %s" !attempted (Printexc.to_string e))
  done;
  let elapsed = op_elapsed () in
  setups_due (fun _ -> true);
  let setups = List.rev !setups in
  let rss = Stats.peak_rss_mb None in
  let delay_err, slew_err = model_error ctx (w.flow_of reference) in
  let lat = !lat in
  let p50 = Stats.median lat in
  let tail_p, tail = Stats.tail lat in
  let e2e =
    [
      metric end_to_end_units "setup_s" ~samples:setups (setup_estimate setups);
      metric end_to_end_units "op_p50_ms" ~samples:(List.map (( *. ) 1e3) lat) (1e3 *. p50);
      metric end_to_end_units "ops_per_s" (float_of_int !attempted /. elapsed);
      metric end_to_end_units "peak_rss_mb" rss;
      metric end_to_end_units "delay_err_pct" delay_err;
      metric end_to_end_units "slew_err_pct" slew_err;
    ]
  in
  let extra =
    [ ("op_tail_ms", 1e3 *. tail); ("op_tail_percentile", 100. *. tail_p); ("jobs", float_of_int jobs) ]
    @ w.extra reference
  in
  let layers, ledger =
    if not ctx.traced then ([], [])
    else begin
      let a0, g0 = Stats.gc_counters () in
      let runs =
        List.init 3 (fun _ ->
            let sink = Obs.create () in
            let r, dt = timed_op ~jobs ~obs:sink in
            (r, dt, Obs.snapshot sink))
      in
      let a1, g1 = Stats.gc_counters () in
      let ops = 3. in
      let snapshots = List.map (fun (_, _, m) -> m) runs in
      let timed = List.concat_map (fun m -> Ledger.self_times (Ledger.of_obs m)) snapshots in
      let sum f = List.fold_left (fun acc m -> acc +. f m) 0. snapshots in
      let counter name = sum (fun m -> float_of_int (Obs.counter m name)) in
      let queue_wait =
        sum (fun m ->
            match List.assoc_opt "pool.queue_wait_s" m.Obs.m_stats with Some s -> s.Obs.sum | None -> 0.)
      in
      Stats.write_file
        (Filename.concat ctx.workdir (name ^ ".trace.json"))
        (Rlc_obs.Export.chrome_trace (List.nth snapshots 2));
      let traced_p50 = Stats.median (List.map (fun (_, dt, _) -> dt) runs) in
      let from_result =
        List.map
          (fun (k, _) -> (k, Stats.mean (List.map (fun (r, _, _) -> List.assoc k (w.result_layers r)) runs)))
          (w.result_layers reference)
      in
      let values =
        span_layers ~ops timed
        @ [
            ("engine.handle_hit_ratio", Stats.ratio (counter "engine.handle.hits") (counter "engine.handle.misses"));
            ("characterize.cold_ms_per_size", 1e3 *. setup_estimate setups /. float_of_int (List.length w.sizes));
            ("characterize.misses", counter "char.misses" /. ops);
            ("characterize.hit_ratio", Stats.ratio (counter "char.hits") (counter "char.misses"));
            ("pool.queue_wait_ms", 1e3 *. queue_wait /. ops);
            ("pool.speedup", t_jobs1 /. p50);
            ("gc.alloc_mb_per_op", (a1 -. a0) /. 1e6 /. ops);
            ("gc.major_per_op", float_of_int (g1 - g0) /. ops);
            ("trace.overhead_pct", 100. *. (traced_p50 -. p50) /. p50);
          ]
        @ from_result
      in
      (* Later entries win: result-derived values override span-derived ones. *)
      (layer_metrics (List.rev values), ledger_per_op ~ops timed)
    end
  in
  { e2e; layers; extra; ledger; attempted = !attempted; failed = !failed; notes = List.rev !notes }

let bus ~bits ~segments ~size ~local ~coupled =
  { Gen.bits; segments; global_size = size; local_size = local; slew_ps = 100.; coupled }

(* One-shot sign-off: parse, ingest, time and render a 512-net bus. *)
let cold_flow ctx =
  let d =
    Gen.bus ~name:"cold_flow" (Gen.rng ~seed:ctx.seed ~salt:1)
      (bus ~bits:(if ctx.smoke then 8 else 256) ~segments:8 ~size:75. ~local:50. ~coupled:false)
  in
  run_inproc ctx ~name:"cold_flow"
    {
      sizes = [ 50.; 75. ];
      setup_reps = 9;
      op =
        (fun ~jobs ~obs ->
          let spef = Obs.time obs "spef.parse" (fun () -> ok_exn (Spef.parse_res d.Gen.spef)) in
          let spec = Obs.time obs "spec.parse" (fun () -> ok_exn (Spec.parse_res d.Gen.spec)) in
          let design = Obs.time obs "design.ingest" (fun () -> ingest_exn ~spef ~spec) in
          let r =
            Obs.time obs "flow.run" (fun () ->
                Flow.run_cfg { Flow.Config.default with jobs = Some jobs; obs } design)
          in
          (Obs.time obs "report.render" (fun () -> Report.json_string r), r));
      payload = fst;
      flow_of = snd;
      contract = (fun _ -> None);
      result_layers = (fun (report, _) -> [ ("report.bytes", float_of_int (String.length report)) ]);
      extra = (fun (_, r) -> [ ("nets", float_of_int r.Flow.stats.Flow.n_nets) ]);
    }

(* Sizing a deliberately under-driven 64-net bus against 150 ps. *)
let optimize_sizing ctx =
  let spef, spec =
    parse_sources
      (Gen.bus ~name:"optimize_sizing" (Gen.rng ~seed:ctx.seed ~salt:3)
         (bus ~bits:(if ctx.smoke then 2 else 32) ~segments:8 ~size:25. ~local:25. ~coupled:false))
  in
  let sizes = if ctx.smoke then [ 25.; 50. ] else Optimize.default_sizes in
  let required = 150e-12 in
  let worst_slack (r : Flow.result) =
    required -. Array.fold_left (fun acc (nr : Flow.net_result) -> Float.max acc nr.Flow.arrival) 0. r.Flow.results
  in
  run_inproc ctx ~name:"optimize_sizing"
    {
      sizes;
      setup_reps = 5;
      op =
        (fun ~jobs ~obs ->
          let o =
            Obs.time obs "optimize.run" (fun () ->
                ok_exn
                  (Optimize.run ~sizes ~required
                     { Flow.Config.default with jobs = Some jobs; obs }
                     ~spef ~spec ()))
          in
          (Obs.time obs "report.render" (fun () -> Report.optimize_json_string o), o));
      payload = fst;
      flow_of = (fun (_, o) -> o.Optimize.before);
      contract =
        (fun (_, o) ->
          let applied = ok_exn (Delta.apply ~spef ~spec o.Optimize.delta) in
          let cold, _ = cold_report applied.Delta.spef applied.Delta.spec in
          if String.equal cold (Report.json_string o.Optimize.after) then None
          else Some "Optimize.after differs from a cold flow of the resized sources");
      result_layers =
        (fun (report, o) ->
          let s = o.Optimize.stats in
          let f = float_of_int in
          [
            ("report.bytes", f (String.length report));
            ("optimize.candidates", f s.Optimize.o_candidates);
            ("optimize.screen_rate", Stats.ratio (f s.Optimize.o_screened) (f s.Optimize.o_candidates));
            ("optimize.escalations", f s.Optimize.o_escalations);
          ]);
      extra =
        (fun (_, o) ->
          let s = o.Optimize.stats in
          [
            ("slack_before_ps", 1e12 *. worst_slack o.Optimize.before);
            ("slack_after_ps", 1e12 *. worst_slack o.Optimize.after);
            ("violations_before", float_of_int s.Optimize.o_violations_before);
            ("violations_after", float_of_int s.Optimize.o_violations_after);
          ]);
    }

(* Crosstalk sign-off on a 16-bit coupled bus. *)
let xtalk_bus ctx =
  let spef, spec =
    parse_sources
      (Gen.bus ~name:"xtalk_bus" (Gen.rng ~seed:ctx.seed ~salt:4)
         (bus ~bits:(if ctx.smoke then 2 else 16) ~segments:3 ~size:75. ~local:50. ~coupled:true))
  in
  let design = ingest_exn ~spef ~spec in
  run_inproc ctx ~name:"xtalk_bus"
    {
      sizes = [ 50.; 75. ];
      setup_reps = 9;
      op =
        (fun ~jobs ~obs ->
          let r =
            Obs.time obs "flow.run" (fun () ->
                Flow.run_cfg { Flow.Config.default with jobs = Some jobs; obs } design)
          in
          let x =
            Obs.time obs "xtalk.analyze" (fun () ->
                Xtalk.analyze
                  ~config:
                    { Xtalk.Config.default with threshold = 0.05; alignments = 9; jobs = Some jobs; obs }
                  r)
          in
          (Obs.time obs "xtalk.fragment" (fun () -> Xtalk.json_fragment design x), r, x));
      payload = (fun (frag, _, _) -> frag);
      flow_of = (fun (_, r, _) -> r);
      contract = (fun _ -> None);
      result_layers =
        (fun (frag, _, x) ->
          let s = x.Xtalk.stats in
          let victims =
            Array.fold_left (fun acc (v : Xtalk.victim_result) -> if v.Xtalk.simulated then acc + 1 else acc) 0 x.Xtalk.victims
          in
          [
            ("report.bytes", float_of_int (String.length frag));
            ("xtalk.screen_rate", Stats.ratio (float_of_int s.Xtalk.n_screened) (float_of_int (s.Xtalk.n_pairs - s.Xtalk.n_screened)));
            ("xtalk.cluster_transients", float_of_int (victims + s.Xtalk.n_alignment_sims));
          ]);
      extra = (fun (_, _, x) -> [ ("pairs", float_of_int x.Xtalk.stats.Xtalk.n_pairs) ]);
    }

(* ------------------------------------------------------------- served *)

let v2 = Rlc_service.Protocol.schema_v2

(* The envelope's ok flag, without parsing the report behind it (requests
   carry no id, so the flag directly follows the schema tag). *)
let ok_line resp =
  List.exists
    (fun schema -> String.starts_with ~prefix:(Printf.sprintf {|{"schema":"%s","ok":true|} schema) resp)
    [ Rlc_service.Protocol.schema; v2 ]

let field name resp =
  match Json.parse resp with Ok j -> Json.member name j | Error _ -> None

let report_of resp = Option.bind (field "report" resp) Json.get_string

let edit_request handle (e : Gen.edit) =
  let edit =
    match e with
    | Gen.Net (n, block) -> ("nets", Json.Obj [ (n, Json.Str block) ])
    | Gen.Resize (n, s) -> ("drivers", Json.Obj [ (n, Json.Float s) ])
    | Gen.Slew (n, ps) -> ("slews_ps", Json.Obj [ (n, Json.Float ps) ])
  in
  Daemon.request_line ~schema:v2 [ ("kind", Json.Str "flow_delta"); ("handle", Json.Str handle); edit ]

let delta_of (e : Gen.edit) =
  match e with
  | Gen.Net (n, block) -> { Delta.empty with Delta.nets = [ (n, block) ] }
  | Gen.Resize (n, s) -> { Delta.empty with Delta.drivers = [ (n, s) ] }
  | Gen.Slew (n, ps) -> { Delta.empty with Delta.slews = [ (n, ps *. 1e-12) ] }

(* One closed-loop connection: send, wait for the reply, repeat until
   [continue] says stop.  Returns each request's round trip (infinite when
   it failed) in order; [check] sees every response. *)
let closed_loop dmn ~continue ~next ~check =
  let c = Daemon.connect dmn in
  Fun.protect ~finally:(fun () -> Daemon.close c) @@ fun () ->
  let rec go n acc =
    if not (continue n) then List.rev acc
    else
      let line = next () in
      let t0 = Stats.now () in
      let resp = try Some (Daemon.call c line) with Unix.Unix_error _ | End_of_file | Sys_error _ -> None in
      let dt = Stats.now () -. t0 in
      let ok = match resp with Some r -> check r | None -> false in
      go (n + 1) ((if ok then dt else infinity) :: acc)
  in
  go 0 []

(* The incremental loop against the real daemon: one connection sends
   one-edit flow_deltas to a resident 512-net design while another sends
   v1 flows of the unedited design by file. *)
let eco_served ctx =
  let bus = bus ~bits:(if ctx.smoke then 8 else 256) ~segments:8 ~size:75. ~local:50. ~coupled:false in
  let d = Gen.bus ~name:"eco_served" (Gen.rng ~seed:ctx.seed ~salt:2) bus in
  let file ext = Filename.concat ctx.workdir ("eco_served." ^ ext) in
  Stats.write_file (file "spef") d.Gen.spef;
  Stats.write_file (file "spec") d.Gen.spec;
  let read_req =
    Daemon.request_line
      [ ("kind", Json.Str "flow"); ("spef_file", Json.Str (file "spef")); ("spec_file", Json.Str (file "spec")) ]
  in
  let live = ref [] in
  Fun.protect ~finally:(fun () -> List.iter Daemon.kill !live) @@ fun () ->
  (* Set-up: the daemon's start (including --warm characterization) and the
     design_load of the served design. *)
  let start ~traced =
    let sidecars =
      if traced then
        [ "--trace"; file "daemon.trace.json"; "--metrics-json"; file "daemon.metrics.json"; "--slow-ms"; "0" ]
      else []
    in
    let dmn =
      Daemon.start ~exe:ctx.daemon ~socket:(file "sock") ~log:(file "daemon.log")
        ([ "--workers"; "2"; "--jobs"; "1"; "--warm"; "50,75,100" ] @ sidecars)
    in
    live := dmn :: !live;
    let resp =
      Daemon.call_once dmn
        (Daemon.request_line ~schema:v2
           [ ("kind", Json.Str "design_load"); ("spef", Json.Str d.Gen.spef); ("spec", Json.Str d.Gen.spec) ])
    in
    match (Option.bind (field "handle" resp) Json.get_string, report_of resp) with
    | Some handle, Some report -> (dmn, handle, report)
    | _ -> failwith ("design_load failed: " ^ String.sub resp 0 (Int.min 300 (String.length resp)))
  in
  let stop dmn =
    Daemon.shutdown dmn;
    live := List.filter (fun x -> x != dmn) !live
  in
  let (dmn, handle, load_report), first_setup = Stats.time (fun () -> start ~traced:false) in
  (* The edits are one seeded stream; the sizes it tracks keep a resize from
     naming the net's current size. *)
  let edit_rng = Gen.rng ~seed:ctx.seed ~salt:5 in
  let sizes = Hashtbl.create 1024 in
  let size_of net =
    Option.value (Hashtbl.find_opt sizes net)
      ~default:(if net.[0] = 'b' then bus.Gen.global_size else bus.Gen.local_size)
  in
  let next_edit () =
    let e = Gen.edit edit_rng bus ~size_of in
    (match e with Gen.Resize (n, s) -> Hashtbl.replace sizes n s | _ -> ());
    e
  in
  let run_pair dmn ~continue ~write ~check_write ~check_read =
    let reader =
      Domain.spawn (fun () -> closed_loop dmn ~continue ~next:(fun () -> read_req) ~check:check_read)
    in
    let writes = closed_loop dmn ~continue ~next:write ~check:check_write in
    (writes, Domain.join reader)
  in
  (* Responses are checked cheaply inside the loop (the envelope's ok flag,
     reads byte-equal to the first read); reports are compared after it. *)
  let sent = ref [] and last_write = ref "" and first_read = ref None and odd_reads = ref [] in
  let write () =
    let e = next_edit () in
    sent := e :: !sent;
    edit_request handle e
  in
  let check_write resp =
    last_write := resp;
    ok_line resp
  in
  let check_read resp =
    match !first_read with
    | None ->
        first_read := Some resp;
        ok_line resp
    | Some r when String.equal r resp -> true
    | Some _ ->
        odd_reads := resp :: !odd_reads;
        ok_line resp
  in
  let warm_writes, _ = run_pair dmn ~continue:(fun n -> n < 1) ~write ~check_write ~check_read in
  let t_start = Stats.now () in
  let deadline = t_start +. ctx.seconds in
  let writes, reads =
    run_pair dmn ~continue:(fun n -> n < 3 || Stats.now () < deadline) ~write ~check_write ~check_read
  in
  let elapsed = Stats.now () -. t_start in
  let rss = Stats.peak_rss_mb (Some dmn.Daemon.pid) in
  stop dmn;
  (* The other set-ups follow the measured phase instead of running back to
     back before it, for the reason given in [run_inproc]. *)
  let setup_samples =
    first_setup
    :: List.init
         (if ctx.smoke || ctx.traced then 0 else 2)
         (fun _ ->
           let (d, _, _), t = Stats.time (fun () -> start ~traced:false) in
           stop d;
           t)
  in
  (* Verification, untimed: a cold in-process flow of the unedited sources
     against design_load and every read, and of the edited sources against
     the last write. *)
  let notes = ref [] in
  let note msg = notes := msg :: !notes in
  let (), char_s = Stats.time (fun () -> characterize [ 50.; 75.; 100. ]) in
  let spef0, spec0 = parse_sources d in
  let ref_report, ref_result = cold_report spef0 spec0 in
  if not (valid_json ref_report) then note "reference report is not valid JSON (non-finite number?)";
  if not (String.equal load_report ref_report) then note "design_load report differs from a cold flow";
  let bad_reads =
    List.filter (fun r -> report_of r <> Some ref_report) (Option.to_list !first_read @ !odd_reads)
  in
  if bad_reads <> [] then note "a read report differs from the unedited reference";
  let edits = List.rev !sent in
  let spef_n, spec_n =
    List.fold_left2
      (fun (spef, spec) e dt ->
        if not (Float.is_finite dt) then (spef, spec)
        else
          let a = ok_exn (Delta.apply ~spef ~spec (delta_of e)) in
          (a.Delta.spef, a.Delta.spec))
      (spef0, spec0) edits (warm_writes @ writes)
  in
  let final_report, _ = cold_report spef_n spec_n in
  let final_ok = report_of !last_write = Some final_report in
  if not final_ok then note "the last flow_delta report differs from a cold flow of the edited sources";
  let failures l = List.length (List.filter (fun dt -> not (Float.is_finite dt)) l) in
  let n_failed = failures writes + failures reads in
  if n_failed > 0 then note (Printf.sprintf "%d requests failed" n_failed);
  let delay_err, slew_err = model_error ctx ref_result in
  let ms = List.map (( *. ) 1e3) in
  let p50 = Stats.median writes in
  let e2e =
    [
      metric end_to_end_units "setup_s" ~samples:setup_samples (setup_estimate setup_samples);
      metric end_to_end_units "op_p50_ms" ~samples:(ms writes) (1e3 *. p50);
      metric end_to_end_units "ops_per_s" (float_of_int (List.length writes + List.length reads) /. elapsed);
      metric end_to_end_units "peak_rss_mb" rss;
      metric end_to_end_units "delay_err_pct" delay_err;
      metric end_to_end_units "slew_err_pct" slew_err;
    ]
  in
  let wp, wt = Stats.tail writes and rp, rt = Stats.tail reads in
  let extra =
    [
      ("writes", float_of_int (List.length writes));
      ("reads", float_of_int (List.length reads));
      ("write_p50_ms", 1e3 *. p50);
      ("write_tail_ms", 1e3 *. wt);
      ("write_tail_percentile", 100. *. wp);
      ("read_p50_ms", 1e3 *. Stats.median reads);
      ("read_tail_ms", 1e3 *. rt);
      ("read_tail_percentile", 100. *. rp);
      ("nets", float_of_int (Array.length ref_result.Flow.results));
    ]
  in
  let layers, ledger =
    if not ctx.traced then ([], [])
    else begin
      (* A second daemon with its sidecars on: three writes beside three
         reads, then the trace, the slow-request log and a metrics scrape
         before and after are folded into the ledger. *)
      let dmn, handle, _ = start ~traced:true in
      let scrape () =
        match Json.parse (Daemon.call_once dmn (Daemon.request_line [ ("kind", Json.Str "metrics") ])) with
        | Error _ -> failwith "metrics scrape failed"
        | Ok j ->
            fun path ->
              List.fold_left (fun acc k -> Option.bind acc (Json.member k)) (Some j) (String.split_on_char '.' path)
              |> Fun.flip Option.bind Json.get_float
              |> Option.value ~default:0.
      in
      let before = scrape () in
      let a0, g0 = Stats.gc_counters () in
      let w, r =
        run_pair dmn ~continue:(fun n -> n < 3)
          ~write:(fun () -> edit_request handle (next_edit ()))
          ~check_write:ok_line ~check_read:ok_line
      in
      let a1, g1 = Stats.gc_counters () in
      let after = scrape () in
      stop dmn;
      let ops = 3. in
      let diff k = after k -. before k in
      let spans = Ledger.of_chrome_trace (Stats.read_file (file "daemon.trace.json")) in
      let traces =
        List.filter_map
          (fun (s : Ledger.span) ->
            match List.assoc_opt "kind" s.Ledger.args with
            | Some ("flow" | "flow_delta") when s.Ledger.name = "service.request" ->
                List.assoc_opt "trace" s.Ledger.args
            | _ -> None)
          spans
      in
      let timed =
        Ledger.self_times
          (List.filter
             (fun (s : Ledger.span) ->
               match List.assoc_opt "trace" s.Ledger.args with Some t -> List.mem t traces | None -> false)
             spans)
      in
      let slow =
        List.filter_map
          (fun line ->
            match Json.parse line with
            | Error _ -> None
            | Ok j -> (
                let num k = Option.value ~default:0. (Option.bind (Json.member k j) Json.get_float) in
                match Option.bind (Json.member "kind" j) Json.get_string with
                | Some ("flow" | "flow_delta") -> Some (num "queue_wait_ms", num "wall_ms")
                | _ -> None))
          (String.split_on_char '\n' (Stats.read_file (file "daemon.log")))
      in
      (* The daemon runs parse, ingest, report and JSON work without spans;
         time the same public calls in-process on the same inputs. *)
      let replica f = Stats.mean (List.init 3 (fun _ -> 1e3 *. snd (Stats.time f))) in
      let values =
        span_layers ~ops timed
        @ [
            ("spef.parse_ms", replica (fun () -> ignore (Spef.parse_res d.Gen.spef)));
            ("spec.parse_ms", replica (fun () -> ignore (Spec.parse_res d.Gen.spec)));
            ("design.ingest_ms", replica (fun () -> ignore (Design.ingest ~spef:spef0 ~spec:spec0 ())));
            ("report.render_ms", 2. *. replica (fun () -> ignore (Report.json_string ref_result)));
            ("report.bytes", float_of_int (String.length ref_report + String.length final_report));
            ( "json.parse_ms",
              replica (fun () ->
                  ignore (Json.parse !last_write);
                  ignore (Json.parse (Option.value ~default:"" !first_read))) );
            ( "delta.apply_ms",
              replica (fun () -> ignore (Delta.apply ~spef:spef0 ~spec:spec0 (delta_of (List.hd edits)))) );
            ("engine.handle_hit_ratio", Stats.ratio (diff "handles.hits") (diff "handles.misses"));
            ("characterize.cold_ms_per_size", 1e3 *. char_s /. 3.);
            ("characterize.misses", diff "characterization.misses" /. ops);
            ("characterize.hit_ratio", Stats.ratio (diff "characterization.hits") (diff "characterization.misses"));
            ("server.queue_wait_p50_ms", Stats.median (List.map fst slow));
            ("server.request_p50_ms", Stats.median (List.map snd slow));
            ("server.rejected", after "totals.rejected_queue_full" +. after "totals.rejected_expired");
            ("client.overhead_ms", Stats.mean (ms (w @ r)) -. Stats.mean (List.map (fun (q, w) -> q +. w) slow));
            ("gc.alloc_mb_per_op", (a1 -. a0) /. 1e6 /. ops);
            ("gc.major_per_op", float_of_int (g1 - g0) /. ops);
            ("trace.overhead_pct", 100. *. (Stats.median w -. p50) /. p50);
          ]
      in
      (layer_metrics (List.rev values), ledger_per_op ~ops timed)
    end
  in
  {
    e2e;
    layers;
    extra;
    ledger;
    attempted = List.length writes + List.length reads;
    failed = n_failed + List.length bad_reads + (if final_ok then 0 else 1);
    notes = List.rev !notes;
  }

let all = [ ("cold_flow", cold_flow); ("eco_served", eco_served); ("optimize_sizing", optimize_sizing); ("xtalk_bus", xtalk_bus) ]
