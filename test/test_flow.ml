(* Rlc_flow tests: spec parsing, design ingest + levelization, the domain
   pool, the result cache, and the flow's determinism across jobs counts. *)

module Spec = Rlc_flow.Spec
module Design = Rlc_flow.Design
module Cache = Rlc_flow.Cache
module Memo = Rlc_obs.Memo
module Pool = Rlc_parallel.Pool
module Flow = Rlc_flow.Flow
module Report = Rlc_flow.Report

(* ---------------------------------------------------------- fixtures *)

(* Two identical bus bits feeding two identical local nets — small enough
   to keep runtest fast, rich enough to exercise levels, edge alternation
   and cache collisions. *)
let spef_src =
  {|*SPEF "IEEE 1481-1998"
*DESIGN "flow_test"
*T_UNIT 1 PS
*C_UNIT 1 FF
*R_UNIT 1 OHM
*L_UNIT 1 PH
*D_NET b0 300
*CONN
*P b0_drv O
*P b0_rcv I
*CAP
1 b0_1 150
2 b0_rcv 150
*RES
1 b0_drv b0_1 30
2 b0_1 b0_rcv 30
*INDUC
1 b0_drv b0_1 1500
2 b0_1 b0_rcv 1500
*END
*D_NET b1 300
*CONN
*P b1_drv O
*P b1_rcv I
*CAP
1 b1_1 150
2 b1_rcv 150
*RES
1 b1_drv b1_1 30
2 b1_1 b1_rcv 30
*INDUC
1 b1_drv b1_1 1500
2 b1_1 b1_rcv 1500
*END
*D_NET o0 90
*CONN
*P o0_drv O
*P o0_rcv I
*CAP
1 o0_1 45
2 o0_rcv 45
*RES
1 o0_drv o0_1 60
2 o0_1 o0_rcv 60
*END
*D_NET o1 90
*CONN
*P o1_drv O
*P o1_rcv I
*CAP
1 o1_1 45
2 o1_rcv 45
*RES
1 o1_drv o1_1 60
2 o1_1 o1_rcv 60
*END
|}

let spec_src =
  {|# two bus bits into two local nets
driver b0 75
driver b1 75
input b0 100
input b1 100
driver o0 50
driver o1 50
edge b0 b0_rcv o0
edge b1 b1_rcv o1
load o0 o0_rcv 5
load o1 o1_rcv 5
|}

(* Typed-error parses, flattened to strings so [check_error] can treat
   parse and ingest failures uniformly. *)
let spef_parse src = Result.map_error Rlc_errors.Error.message (Rlc_spef.Spef.parse_res src)
let spec_parse src = Result.map_error Rlc_errors.Error.message (Spec.parse_res src)
let spef = lazy (Result.get_ok (spef_parse spef_src))
let spec = lazy (Result.get_ok (spec_parse spec_src))

let design =
  lazy
    (match Design.ingest ~spef:(Lazy.force spef) ~spec:(Lazy.force spec) () with
    | Ok d -> d
    | Error e -> failwith e)

let ingest_with ~spec_src =
  match spec_parse spec_src with
  | Error e -> Error e
  | Ok spec -> Design.ingest ~spef:(Lazy.force spef) ~spec ()

let check_error msg = function
  | Ok _ -> Alcotest.fail (msg ^ ": accepted")
  | Error e -> Alcotest.(check bool) (msg ^ ": message non-empty") true (String.length e > 0)

(* -------------------------------------------------------------- spec *)

let test_spec_parse () =
  let s = Lazy.force spec in
  Alcotest.(check int) "drivers" 4 (List.length s.Spec.drivers);
  Alcotest.(check int) "inputs" 2 (List.length s.Spec.inputs);
  Alcotest.(check int) "edges" 2 (List.length s.Spec.edges);
  Alcotest.(check int) "loads" 2 (List.length s.Spec.loads);
  Alcotest.(check (float 1e-18)) "slew in seconds" 100e-12 (List.assoc "b0" s.Spec.inputs);
  Alcotest.(check (float 1e-20)) "load in farads" 5e-15
    (match s.Spec.loads with (_, _, c) :: _ -> c | [] -> nan)

let test_spec_roundtrip () =
  let s = Lazy.force spec in
  let s' = Result.get_ok (spec_parse (Spec.to_string s)) in
  Alcotest.(check bool) "roundtrip" true (s = s')

let test_spec_errors () =
  check_error "duplicate driver" (spec_parse "driver a 75\ndriver a 50\n");
  check_error "duplicate input" (spec_parse "input a 100\ninput a 50\n");
  check_error "negative size" (spec_parse "driver a -3\n");
  check_error "zero slew" (spec_parse "input a 0\n");
  check_error "self edge" (spec_parse "edge a p a\n");
  check_error "negative load" (spec_parse "load a p -1\n");
  check_error "unknown keyword" (spec_parse "wire a b\n");
  check_error "bad number" (spec_parse "driver a huge\n");
  (* Typed errors carry the 1-based line number. *)
  match Spec.parse_res "driver a 75\ndriver a 50\n" with
  | Error (Rlc_errors.Error.Parse { line = Some 2; _ }) -> ()
  | Error e -> Alcotest.fail ("wrong error: " ^ Rlc_errors.Error.to_string e)
  | Ok _ -> Alcotest.fail "duplicate accepted"

(* A duplicate driver after 10,000 drivers and 10,000 inputs is named at
   its own line, with the usual message. *)
let test_spec_late_duplicate () =
  let b = Buffer.create (1 lsl 20) in
  for i = 0 to 9_999 do
    Printf.bprintf b "driver n%d 75\n" i
  done;
  for i = 0 to 9_999 do
    Printf.bprintf b "input n%d 100\n" i
  done;
  Buffer.add_string b "driver n4321 50\ninput n7 100\n";
  match Spec.parse_res (Buffer.contents b) with
  | Error (Rlc_errors.Error.Parse { line = Some 20_001; _ } as e) ->
      Alcotest.(check string)
        "message" "20001: duplicate driver line for net n4321" (Rlc_errors.Error.message e)
  | Error e -> Alcotest.fail ("wrong error: " ^ Rlc_errors.Error.to_string e)
  | Ok _ -> Alcotest.fail "duplicate accepted"

let test_spec_comments () =
  let s = Result.get_ok (spec_parse "# comment\n  // also comment\ndriver a 75 # trailing\n") in
  Alcotest.(check int) "one driver" 1 (List.length s.Spec.drivers)

let test_spec_default () =
  let s = Spec.default_of_spef ~size:60. ~slew:80e-12 (Lazy.force spef) in
  Alcotest.(check int) "all nets driven" 4 (List.length s.Spec.drivers);
  Alcotest.(check int) "all nets inputs" 4 (List.length s.Spec.inputs);
  Alcotest.(check (float 0.)) "size" 60. (List.assoc "b0" s.Spec.drivers)

(* ------------------------------------------------------------ ingest *)

let test_ingest_shape () =
  let d = Lazy.force design in
  Alcotest.(check int) "nets" 4 (Design.n_nets d);
  Alcotest.(check int) "levels" 2 (Array.length d.Design.levels);
  (* Ids are sorted by name: b0 b1 o0 o1. *)
  Alcotest.(check (list string)) "names" [ "b0"; "b1"; "o0"; "o1" ]
    (Array.to_list (Array.map (fun (n : Design.net) -> n.Design.name) d.Design.nets));
  Alcotest.(check (list int)) "level 0" [ 0; 1 ] (Array.to_list d.Design.levels.(0));
  Alcotest.(check (list int)) "level 1" [ 2; 3 ] (Array.to_list d.Design.levels.(1));
  let b0 = d.Design.nets.(0) and o0 = d.Design.nets.(2) in
  Alcotest.(check string) "root from Output conn" "b0_drv" b0.Design.root_pin;
  Alcotest.(check (list int)) "fanout" [ 2 ] b0.Design.fanout;
  Alcotest.(check bool) "o0 fanin is b0" true (o0.Design.fanin = Some 0);
  Alcotest.(check bool) "b0 is primary" true (Option.is_some b0.Design.prim_slew);
  Alcotest.(check bool) "o0 is not primary" true (Option.is_none o0.Design.prim_slew);
  Alcotest.(check (list (float 0.))) "sizes deduped" [ 50.; 75. ] d.Design.sizes;
  (* b0's tree carries o0's gate input cap at the edge pin, so its total cap
     exceeds the bare wire cap. *)
  let wire = Rlc_spef.Spef.net_total_cap (Option.get (Rlc_spef.Spef.find_net (Lazy.force spef) "b0")) in
  Alcotest.(check bool) "fanout gate cap added" true
    (Rlc_moments.Tree.total_cap b0.Design.tree > wire +. 1e-16);
  (* o0's lumped far load is the explicit 5 fF. *)
  Alcotest.(check (float 1e-20)) "explicit load" 5e-15 o0.Design.cl

let test_ingest_errors () =
  check_error "net missing from SPEF" (ingest_with ~spec_src:"driver nope 75\ninput nope 100\n");
  check_error "edge to net without driver"
    (ingest_with ~spec_src:"driver b0 75\ninput b0 100\nedge b0 b0_rcv o0\n");
  check_error "multiple fanin"
    (ingest_with
       ~spec_src:
         "driver b0 75\ninput b0 100\ndriver b1 75\ninput b1 100\ndriver o0 50\nedge b0 b0_rcv \
          o0\nedge b1 b1_rcv o0\n");
  check_error "no slew source"
    (ingest_with ~spec_src:"driver b0 75\ninput b0 100\ndriver o0 50\n");
  check_error "both input and edge-driven"
    (ingest_with
       ~spec_src:"driver b0 75\ninput b0 100\ndriver o0 50\ninput o0 100\nedge b0 b0_rcv o0\n");
  check_error "cycle"
    (ingest_with
       ~spec_src:"driver b0 75\ndriver b1 75\nedge b0 b0_rcv b1\nedge b1 b1_rcv b0\n");
  check_error "edge pin not on the net"
    (ingest_with
       ~spec_src:
         "driver b0 75\ninput b0 100\ndriver o0 50\nedge b0 nonexistent_pin o0\n")

let test_ingest_no_driver_conn () =
  (* A net whose SPEF section lacks an Output *CONN cannot be rooted. *)
  let src =
    "*D_NET n 1.0\n*CONN\n*P rcv I\n*CAP\n1 a 1.0\n2 rcv 1.0\n*RES\n1 a rcv 10\n*END\n"
  in
  let spef = Result.get_ok (spef_parse src) in
  let spec = Result.get_ok (spec_parse "driver n 75\ninput n 100\n") in
  check_error "no Output conn" (Design.ingest ~spef ~spec ())

(* -------------------------------------------------------------- pool *)

let test_pool_map () =
  Pool.with_pool ~jobs:4 (fun p ->
      Alcotest.(check int) "jobs" 4 (Pool.jobs p);
      let r = Pool.map p 100 (fun i -> i * i) in
      Alcotest.(check int) "length" 100 (Array.length r);
      Array.iteri (fun i v -> Alcotest.(check int) "in order" (i * i) v) r;
      (* Reuse: a second batch on the same pool. *)
      let r2 = Pool.map p 7 (fun i -> -i) in
      Alcotest.(check int) "second batch" (-6) r2.(6);
      Alcotest.(check int) "empty batch" 0 (Array.length (Pool.map p 0 (fun i -> i))))

let test_pool_sequential () =
  Pool.with_pool ~jobs:1 (fun p ->
      let r = Pool.map p 10 (fun i -> 2 * i) in
      Alcotest.(check int) "inline" 18 r.(9))

let test_pool_exception () =
  (* The lowest-index exception wins, deterministically, and the pool
     survives for the next batch. *)
  Pool.with_pool ~jobs:4 (fun p ->
      (match Pool.map p 50 (fun i -> if i mod 7 = 3 then failwith (string_of_int i) else i) with
      | _ -> Alcotest.fail "expected exception"
      | exception Failure msg -> Alcotest.(check string) "lowest index" "3" msg);
      let r = Pool.map p 5 (fun i -> i + 1) in
      Alcotest.(check int) "pool still usable" 5 r.(4))

let test_pool_parallelism () =
  (* All domains really participate: count distinct domain ids seen. *)
  Pool.with_pool ~jobs:4 (fun p ->
      let seen = Array.make 256 false in
      let r =
        Pool.map p 64 (fun _ ->
            let id = (Domain.self () :> int) in
            (* benign race: worst case we under-count *)
            seen.(id mod 256) <- true;
            Unix.sleepf 0.001;
            id)
      in
      ignore r;
      let n = Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 seen in
      Alcotest.(check bool) "more than one domain" true (n > 1))

(* ------------------------------------------------------------- cache *)

let test_cache_basics () =
  let c : (string, int) Memo.t = Memo.create ~capacity:8 () in
  let calls = ref 0 in
  let compute () = incr calls; 42 in
  let v, hit = Memo.find_or_add c "k" compute in
  Alcotest.(check bool) "miss" false hit;
  Alcotest.(check int) "value" 42 v;
  let v', hit' = Memo.find_or_add c "k" compute in
  Alcotest.(check bool) "hit" true hit';
  Alcotest.(check int) "same value" 42 v';
  Alcotest.(check int) "computed once" 1 !calls;
  Alcotest.(check int) "hits" 1 (Memo.stats c).Memo.hits;
  Alcotest.(check int) "misses" 1 (Memo.stats c).Memo.misses;
  Alcotest.(check int) "length" 1 (Memo.stats c).Memo.entries;
  Memo.clear c;
  Alcotest.(check int) "cleared" 0 (Memo.stats c).Memo.entries

let test_cache_sharded_concurrent () =
  let create shards : (string, int) Memo.t = Memo.create ~shards ~capacity:64 () in
  let shards c = Array.length (Memo.shard_stats c) in
  let c = create 4 in
  Alcotest.(check int) "power-of-two count kept" 4 (shards c);
  Alcotest.(check int) "odd count rounds up" 8 (shards (create 5));
  Alcotest.(check int) "zero clamps to one shard" 1 (shards (create 0));
  (* Hammer one cache from several domains.  Every find_or_add counts
     exactly one hit or one miss, values are first-insert-wins, and the
     per-shard stats must reconcile with the aggregate view. *)
  let keys = Array.init 64 (fun i -> Printf.sprintf "net-%d-slew" i) in
  let rounds = 10 and writers = 4 in
  let worker () =
    for _ = 1 to rounds do
      Array.iter
        (fun k ->
          let v, _hit = Memo.find_or_add c k (fun () -> String.length k) in
          assert (v = String.length k))
        keys
    done
  in
  let domains = List.init writers (fun _ -> Domain.spawn worker) in
  List.iter Domain.join domains;
  let total = Memo.stats c in
  Alcotest.(check int) "one entry per distinct key" (Array.length keys) total.Memo.entries;
  Alcotest.(check int) "hits + misses = lookups" (writers * rounds * Array.length keys)
    (total.Memo.hits + total.Memo.misses);
  Alcotest.(check bool) "each key missed at least once" true
    (total.Memo.misses >= Array.length keys);
  let stats = Memo.shard_stats c in
  Alcotest.(check int) "one stat per shard" 4 (Array.length stats);
  let sum f = Array.fold_left (fun acc s -> acc + f s) 0 stats in
  Alcotest.(check int) "shard lengths sum to length" total.Memo.entries
    (sum (fun s -> s.Memo.entries));
  Alcotest.(check int) "shard hits sum to hits" total.Memo.hits (sum (fun s -> s.Memo.hits));
  Alcotest.(check int) "shard misses sum to misses" total.Memo.misses
    (sum (fun s -> s.Memo.misses));
  Memo.clear c;
  Alcotest.(check int) "clear empties every shard" 0 (Memo.stats c).Memo.entries

let test_cache_quantize () =
  let q = Cache.quantize in
  Alcotest.(check (float 0.)) "nine significant digits" 1.23456789 (q 1.234567891);
  Alcotest.(check bool) "collapses tiny diffs" true (q 1.0000000001 = q 1.0000000002);
  Alcotest.(check bool) "keeps real diffs" true (q 1.001 <> q 1.002);
  Alcotest.(check (float 0.)) "exact zero" 0. (q 0.);
  Alcotest.(check bool) "nan passthrough" true (Float.is_nan (q Float.nan));
  let qs = Cache.quantize_slew in
  Alcotest.(check (float 1e-30)) "snaps to grid" 100e-12 (qs 100.04e-12);
  Alcotest.(check bool) "same bucket same key" true (qs 50.01e-12 = qs 49.99e-12)

(* -------------------------------------------------------------- flow *)

(* All flow tests drive the Config record directly — it is the only entry
   point since the [Flow.run] shim was removed. *)
let run ?(jobs = 1) ?(use_cache = true) ?cache d =
  Flow.run_cfg { Flow.Config.default with Flow.Config.jobs = Some jobs; use_cache; cache } d

let test_flow_determinism () =
  let d = Lazy.force design in
  let r1 = run ~jobs:1 d in
  let r4 = run ~jobs:4 d in
  Alcotest.(check string) "json identical across jobs" (Report.json_string r1)
    (Report.json_string r4);
  Alcotest.(check string) "csv identical across jobs" (Report.csv_string r1)
    (Report.csv_string r4);
  (* And a no-cache run computes the very same numbers. *)
  let r_nc = run ~jobs:1 ~use_cache:false d in
  Alcotest.(check string) "cache does not change results" (Report.json_string r1)
    (Report.json_string r_nc)

let test_flow_results () =
  let d = Lazy.force design in
  let r = run ~jobs:1 d in
  Alcotest.(check int) "all nets solved" 4 (Array.length r.Flow.results);
  let b0 = r.Flow.results.(0) and b1 = r.Flow.results.(1) and o0 = r.Flow.results.(2) in
  Alcotest.(check bool) "roots rise" true (b0.Flow.edge = Rlc_waveform.Measure.Rising);
  Alcotest.(check bool) "level 1 falls" true (o0.Flow.edge = Rlc_waveform.Measure.Falling);
  (* Identical bus bits time identically. *)
  Alcotest.(check (float 0.)) "b0 = b1 delay" b0.Flow.solve.Flow.stage_delay
    b1.Flow.solve.Flow.stage_delay;
  (* Arrivals accumulate along the chain. *)
  Alcotest.(check (float 1e-15)) "arrival = parent + stage"
    (b0.Flow.arrival +. o0.Flow.solve.Flow.stage_delay)
    o0.Flow.arrival;
  Alcotest.(check bool) "positive delays" true (b0.Flow.solve.Flow.stage_delay > 0.);
  (* Handoff: o0's input slew derives from b0's far slew like Rlc_sta does. *)
  let expect =
    Cache.quantize_slew
      (Rlc_sta.Sta.handoff_slew ~far_slew:b0.Flow.solve.Flow.far_slew)
  in
  Alcotest.(check (float 1e-16)) "slew handoff" expect o0.Flow.input_slew;
  (* Critical path runs from a level-0 net to a level-1 net. *)
  match Flow.critical_path r with
  | [ first; last ] ->
      Alcotest.(check int) "path root level" 0 first.Flow.net.Design.level;
      Alcotest.(check int) "path end level" 1 last.Flow.net.Design.level
  | p -> Alcotest.fail (Printf.sprintf "expected 2-net path, got %d" (List.length p))

let test_flow_cache_effect () =
  let d = Lazy.force design in
  let cache = Flow.create_cache () in
  let cold = run ~jobs:1 ~cache d in
  (* b1 hits b0's entry, o1 hits o0's: 2 misses, 2 hits. *)
  Alcotest.(check int) "cold misses" 2 cold.Flow.stats.Flow.cache_misses;
  Alcotest.(check int) "cold hits" 2 cold.Flow.stats.Flow.cache_hits;
  Alcotest.(check bool) "cold spends iterations" true
    (cold.Flow.stats.Flow.iterations_spent > 0);
  (* >= 2x fewer iterations actually run than modeled, thanks to the bits. *)
  Alcotest.(check bool) "cache halves the work" true
    (2 * cold.Flow.stats.Flow.iterations_spent <= cold.Flow.stats.Flow.iterations_total);
  let warm = run ~jobs:1 ~cache d in
  Alcotest.(check int) "warm misses" 0 warm.Flow.stats.Flow.cache_misses;
  Alcotest.(check int) "warm hits" 4 warm.Flow.stats.Flow.cache_hits;
  Alcotest.(check int) "warm spends nothing" 0 warm.Flow.stats.Flow.iterations_spent;
  Alcotest.(check string) "warm = cold results" (Report.json_string cold)
    (Report.json_string warm)

let test_flow_stats_and_report () =
  let d = Lazy.force design in
  let r = run ~jobs:1 d in
  Alcotest.(check int) "levels" 2 r.Flow.stats.Flow.n_levels;
  Alcotest.(check bool) "phases recorded" true (List.length r.Flow.stats.Flow.phases >= 3);
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  let json = Report.json_string ~required:200e-12 r in
  Alcotest.(check bool) "has slack" true (contains json "worst_slack_ps");
  Alcotest.(check bool) "no scheduling-dependent fields" true
    (not (contains json "cache") && not (contains json "phase"));
  let csv = Report.csv_string r in
  Alcotest.(check int) "csv rows = nets + header" 5
    (List.length (List.filter (fun s -> s <> "") (String.split_on_char '\n' csv)))

let test_flow_config_defaults () =
  (* The Config record's defaults mirror the old optional-argument defaults. *)
  let c = Flow.Config.default in
  Alcotest.(check (float 0.)) "dt" 0.5e-12 c.Flow.Config.dt;
  Alcotest.(check bool) "jobs defaults to the pool's choice" true (c.Flow.Config.jobs = None);
  Alcotest.(check bool) "cache on" true c.Flow.Config.use_cache;
  Alcotest.(check bool) "no borrowed pool" true (c.Flow.Config.pool = None)

let test_flow_borrowed_pool () =
  let d = Lazy.force design in
  let baseline = run ~jobs:2 d in
  Pool.with_pool ~jobs:2 (fun pool ->
      let cfg = { Flow.Config.default with Flow.Config.pool = Some pool } in
      let r1 = Flow.run_cfg cfg d in
      (* The pool survives the run (borrowed, not owned) and a second run
         over the same pool still works and agrees byte-for-byte. *)
      let r2 = Flow.run_cfg cfg d in
      Alcotest.(check string) "borrowed pool json" (Report.json_string baseline)
        (Report.json_string r1);
      Alcotest.(check string) "pool reusable across runs" (Report.json_string r1)
        (Report.json_string r2))

(* ------------------------------------------------------------- delta *)

module Delta = Rlc_flow.Delta

let time_cfg cfg =
  match Flow.time cfg ~spef:(Lazy.force spef) ~spec:(Lazy.force spec) () with
  | Ok t -> t
  | Error e -> Alcotest.failf "time: %s" (Rlc_errors.Error.message e)

(* b0's parasitic block with every capacitance scaled 150 -> 180 fF. *)
let b0_heavier =
  "*D_NET b0 360\n*CONN\n*P b0_drv O\n*P b0_rcv I\n*CAP\n1 b0_1 180\n2 b0_rcv 180\n\
   *RES\n1 b0_drv b0_1 30\n2 b0_1 b0_rcv 30\n*INDUC\n1 b0_drv b0_1 1500\n2 b0_1 b0_rcv 1500\n*END"

(* The ground truth every retime must match: apply the delta to the
   sources, ingest from scratch, run the flow cold. *)
let cold_of delta =
  match Delta.apply ~spef:(Lazy.force spef) ~spec:(Lazy.force spec) delta with
  | Error e -> Alcotest.failf "apply: %s" (Rlc_errors.Error.message e)
  | Ok a -> (
      match Design.ingest ~spef:a.Delta.spef ~spec:a.Delta.spec () with
      | Error e -> Alcotest.failf "ingest: %s" e
      | Ok d -> Flow.run_cfg Flow.Config.default d)

let check_delta name ~retimed delta =
  let t = time_cfg Flow.Config.default in
  match Flow.retime t delta with
  | Error e -> Alcotest.failf "%s: retime: %s" name (Rlc_errors.Error.message e)
  | Ok (t', stats) ->
      Alcotest.(check int) (name ^ ": retimed = cone size") retimed stats.Flow.retimed;
      Alcotest.(check int) (name ^ ": retimed + reused = nets") 4
        (stats.Flow.retimed + stats.Flow.reused);
      let cold = cold_of delta in
      let warm = Flow.Timed.result t' in
      Alcotest.(check string) (name ^ ": json byte-identical to cold run")
        (Report.json_string cold) (Report.json_string warm);
      Alcotest.(check string) (name ^ ": csv byte-identical to cold run")
        (Report.csv_string cold) (Report.csv_string warm);
      t'

let test_delta_cap_edit () =
  (* Heavier b0 dirties b0 and its fanout o0; b1/o1 reuse their solves. *)
  ignore (check_delta "cap edit" ~retimed:2 { Delta.empty with Delta.nets = [ ("b0", b0_heavier) ] })

let test_delta_driver_resize () =
  (* Resizing o0's driver also dirties b0 — its tree folds in o0's gate
     input cap — and through b0's cone that is still just {b0, o0}. *)
  ignore (check_delta "driver resize" ~retimed:2 { Delta.empty with Delta.drivers = [ ("o0", 60.) ] })

let test_delta_slew_edit () =
  ignore (check_delta "slew edit" ~retimed:2 { Delta.empty with Delta.slews = [ ("b0", 120e-12) ] })

let test_delta_compose () =
  (* Two retimes in sequence equal one cold run of both edits. *)
  let d1 = { Delta.empty with Delta.nets = [ ("b0", b0_heavier) ] } in
  let d2 = { Delta.empty with Delta.drivers = [ ("b1", 60.) ] } in
  let t = time_cfg Flow.Config.default in
  let t1 =
    match Flow.retime t d1 with
    | Ok (t1, _) -> t1
    | Error e -> Alcotest.failf "first retime: %s" (Rlc_errors.Error.message e)
  in
  match Flow.retime t1 d2 with
  | Error e -> Alcotest.failf "second retime: %s" (Rlc_errors.Error.message e)
  | Ok (t2, stats) ->
      Alcotest.(check int) "second delta retimes b1's cone" 2 stats.Flow.retimed;
      let a1 =
        Result.get_ok (Delta.apply ~spef:(Lazy.force spef) ~spec:(Lazy.force spec) d1)
      in
      let a2 = Result.get_ok (Delta.apply ~spef:a1.Delta.spef ~spec:a1.Delta.spec d2) in
      let cold =
        match Design.ingest ~spef:a2.Delta.spef ~spec:a2.Delta.spec () with
        | Ok d -> Flow.run_cfg Flow.Config.default d
        | Error e -> Alcotest.failf "ingest: %s" e
      in
      Alcotest.(check string) "composed retimes = cold run of both edits"
        (Report.json_string cold)
        (Report.json_string (Flow.Timed.result t2))

let test_delta_obs_counters () =
  let sink = Rlc_obs.Obs.create () in
  let cfg = { Flow.Config.default with Flow.Config.obs = sink } in
  let t = time_cfg cfg in
  let loaded = Rlc_obs.Obs.snapshot sink in
  match Flow.retime t { Delta.empty with Delta.nets = [ ("b0", b0_heavier) ] } with
  | Error e -> Alcotest.failf "retime: %s" (Rlc_errors.Error.message e)
  | Ok (_, stats) ->
      let m = Rlc_obs.Obs.snapshot sink in
      (* What the retime alone recorded: the load's telemetry subtracted. *)
      let counter name = Rlc_obs.Obs.counter m name - Rlc_obs.Obs.counter loaded name in
      let spans name =
        fst (Rlc_obs.Obs.span_total m name) - fst (Rlc_obs.Obs.span_total loaded name)
      in
      Alcotest.(check int) "flow.retimed counter" stats.Flow.retimed (counter "flow.retimed");
      Alcotest.(check int) "flow.reused counter" stats.Flow.reused (counter "flow.reused");
      Alcotest.(check int) "counters sum to net count" 4
        (counter "flow.retimed" + counter "flow.reused");
      Alcotest.(check int) "flow.nets = retimed" stats.Flow.retimed (counter "flow.nets");
      Alcotest.(check int) "flow.cache.* = retimed" stats.Flow.retimed
        (counter "flow.cache.hits" + counter "flow.cache.misses");
      Alcotest.(check int) "a flow.net span per retimed net" stats.Flow.retimed
        (spans "flow.net");
      Alcotest.(check int) "one flow.delta span" 1 (spans "flow.delta");
      Alcotest.(check int) "no flow.solve phase span" 0 (spans "flow.solve")

(* Two domains share one cache: one loops cold runs of the design while the
   other re-times one-net slew edits of a timed handle.  Each run's cache
   counts must be its own lookups: every net for a cold run, every retimed
   net for a retime -- none of the other domain's. *)
let test_delta_counts_own_lookups () =
  let d = Lazy.force design in
  let cfg =
    { Flow.Config.default with Flow.Config.jobs = Some 1; cache = Some (Flow.create_cache ()) }
  in
  let lookups (s : Flow.stats) = s.Flow.cache_hits + s.Flow.cache_misses in
  let runs = Atomic.make 0 and stop = Atomic.make false in
  let cold =
    Domain.spawn (fun () ->
        Fun.protect
          ~finally:(fun () -> Atomic.set stop true)
          (fun () ->
            let off = ref 0 in
            while not (Atomic.get stop) do
              let s = (Flow.run_cfg cfg d).Flow.stats in
              Atomic.incr runs;
              if lookups s <> s.Flow.n_nets then incr off
            done;
            !off))
  in
  (* The retimes start once the cold loop is running (or has died). *)
  while Atomic.get runs = 0 && not (Atomic.get stop) do
    Domain.cpu_relax ()
  done;
  let retimes_off =
    Fun.protect
      ~finally:(fun () -> Atomic.set stop true)
      (fun () ->
        let t = ref (time_cfg cfg) and off = ref [] in
        for i = 1 to 40 do
          let slew = float_of_int (100 + (10 * (i mod 4))) *. 1e-12 in
          match Flow.retime !t { Delta.empty with Delta.slews = [ ("b0", slew) ] } with
          | Error e -> Alcotest.failf "retime %d: %s" i (Rlc_errors.Error.message e)
          | Ok (t', st) ->
              t := t';
              let s = (Flow.Timed.result t').Flow.stats in
              if st.Flow.retimed <> 2 || lookups s <> st.Flow.retimed then
                off :=
                  Printf.sprintf "retime %d: %d retimed, %d hits + %d misses" i st.Flow.retimed
                    s.Flow.cache_hits s.Flow.cache_misses
                  :: !off
        done;
        List.rev !off)
  in
  let cold_off = Domain.join cold in
  Alcotest.(check (list string)) "retimes count their 2 nets' lookups" [] retimes_off;
  Alcotest.(check int) "cold runs counting lookups not their own" 0 cold_off

let test_delta_errors () =
  let t = time_cfg Flow.Config.default in
  let check_bad msg delta =
    match Flow.retime t delta with
    | Ok _ -> Alcotest.fail (msg ^ ": accepted")
    | Error (Rlc_errors.Error.Bad_request _) -> ()
    | Error e -> Alcotest.failf "%s: wrong error: %s" msg (Rlc_errors.Error.to_string e)
  in
  check_bad "unknown net" { Delta.empty with Delta.nets = [ ("nope", b0_heavier) ] };
  check_bad "block defines a different net"
    { Delta.empty with Delta.nets = [ ("b1", b0_heavier) ] };
  check_bad "duplicate edit name"
    { Delta.empty with Delta.drivers = [ ("b0", 60.); ("b0", 70.) ] };
  check_bad "non-positive size" { Delta.empty with Delta.drivers = [ ("b0", 0.) ] };
  check_bad "non-positive slew" { Delta.empty with Delta.slews = [ ("b0", -1e-12) ] };
  check_bad "slew on a non-primary net" { Delta.empty with Delta.slews = [ ("o0", 80e-12) ] };
  check_bad "unparsable block" { Delta.empty with Delta.nets = [ ("b0", "*D_NET b0 garbage") ] }

(* ------------------------------------------------- jobs independence *)

(* A small random bus: bit [i] is a primary-input global [b<i>] (an RLC
   ladder of [segs] segments) driving a 2-segment RC local [o<i>], which
   with [tails] drives a third-level [t<i>].  Every net's parasitics are
   jittered, so each level's nets are distinct solves that its pool jobs
   replay in lane batches; [coupled] adds coupling caps between adjacent
   globals. *)
type bus_case = {
  bits : int;
  segs : int;
  tails : bool;
  coupled : bool;
  jitter : float array;  (** per net: b, o, t of bit 0, then bit 1, ... *)
  slews : float array;  (** per bit, ps *)
}

let arb_bus ~coupled =
  let open QCheck.Gen in
  let gen =
    let* bits = int_range 2 6 and* segs = int_range 2 4 and* tails = bool in
    let* jitter = array_repeat (3 * bits) (float_range 0.9 1.1) in
    let* slews = array_repeat bits (float_range 60. 140.) in
    return { bits; segs; tails; coupled; jitter; slews }
  in
  QCheck.make gen ~print:(fun c ->
      Printf.sprintf "%d bits x %d segs%s%s, jitter [%s], slews [%s]" c.bits c.segs
        (if c.tails then ", tails" else "")
        (if c.coupled then ", coupled" else "")
        (String.concat " " (Array.to_list (Array.map (Printf.sprintf "%.3f") c.jitter)))
        (String.concat " " (Array.to_list (Array.map (Printf.sprintf "%.1f") c.slews))))

let bus_sources ?(gsize = 75.) ?(lsize = 50.) c =
  let spef = Buffer.create 4096 and spec = Buffer.create 512 in
  Buffer.add_string spef
    "*SPEF \"IEEE 1481-1998\"\n*DESIGN \"jobs\"\n*T_UNIT 1 PS\n*C_UNIT 1 FF\n*R_UNIT 1 OHM\n*L_UNIT 1 PH\n";
  let node name segs k =
    if k = 0 then name ^ "_drv" else if k = segs then name ^ "_rcv" else Printf.sprintf "%s_%d" name k
  in
  let block name i kind =
    let global = kind = 0 in
    let segs = if global then c.segs else 2 in
    let seg total = c.jitter.((3 * i) + kind) *. total /. float_of_int segs in
    let r = seg (if global then 72. else 120.) and l = seg 4500. in
    let cap = seg (if global then 600. else 90.) in
    Printf.bprintf spef "*D_NET %s %.6g\n*CONN\n*P %s_drv O\n*P %s_rcv I\n*CAP\n" name
      (cap *. float_of_int segs) name name;
    for k = 1 to segs do
      Printf.bprintf spef "%d %s %.6g\n" k (node name segs k) cap
    done;
    if global && c.coupled && i < c.bits - 1 then
      for k = 1 to segs do
        Printf.bprintf spef "%d %s %s %.6g\n" (segs + k) (node name segs k)
          (node (Printf.sprintf "b%d" (i + 1)) segs k)
          30.
      done;
    let section title v =
      Printf.bprintf spef "*%s\n" title;
      for k = 0 to segs - 1 do
        Printf.bprintf spef "%d %s %s %.6g\n" (k + 1) (node name segs k) (node name segs (k + 1)) v
      done
    in
    section "RES" r;
    if global then section "INDUC" l;
    Buffer.add_string spef "*END\n"
  in
  for i = 0 to c.bits - 1 do
    block (Printf.sprintf "b%d" i) i 0;
    block (Printf.sprintf "o%d" i) i 1;
    if c.tails then block (Printf.sprintf "t%d" i) i 2;
    Printf.bprintf spec "driver b%d %g\ninput b%d %.3f\ndriver o%d %g\nedge b%d b%d_rcv o%d\n" i gsize
      i c.slews.(i) i lsize i i i;
    if c.tails then
      Printf.bprintf spec "driver t%d %g\nedge o%d o%d_rcv t%d\nload t%d t%d_rcv 5\n" i lsize i i i i i
    else Printf.bprintf spec "load o%d o%d_rcv 5\n" i i
  done;
  let ok = function Ok v -> v | Error _ -> failwith "bus_sources: parse" in
  ( ok (Rlc_spef.Spef.parse_res (Buffer.contents spef)),
    ok (Spec.parse_res (Buffer.contents spec)) )

let bus_design c =
  let spef, spec = bus_sources c in
  match Design.ingest ~spef ~spec () with Ok d -> d | Error e -> failwith e

(* The report of a random bus, with a fresh cache and without one, is
   byte-identical at jobs 1 and 2: the lane width of the replay batches
   follows the jobs count, the numbers must not. *)
let prop_flow_jobs =
  QCheck.Test.make ~name:"Flow.run_cfg report = at jobs 1 and 2, cached or not" ~count:10
    (arb_bus ~coupled:false) (fun c ->
      let d = bus_design c in
      let report ~jobs ~use_cache = Report.json_string (run ~jobs ~use_cache d) in
      let base = report ~jobs:1 ~use_cache:true in
      List.for_all
        (fun (jobs, use_cache) -> String.equal base (report ~jobs ~use_cache))
        [ (2, true); (1, false); (2, false) ])

(* [Optimize.run] on an under-driven random bus: the same JSON at jobs 1
   and 2. *)
let prop_optimize_jobs =
  QCheck.Test.make ~name:"Optimize.run JSON = at jobs 1 and 2" ~count:4
    QCheck.(pair (arb_bus ~coupled:false) (float_range 90. 200.))
    (fun (c, required_ps) ->
      let spef, spec = bus_sources ~gsize:25. ~lsize:25. c in
      let json jobs =
        match
          Rlc_flow.Optimize.run ~sizes:[ 25.; 50.; 75.; 100. ] ~required:(required_ps *. 1e-12)
            { Flow.Config.default with Flow.Config.jobs = Some jobs }
            ~spef ~spec ()
        with
        | Ok o -> Report.optimize_json_string o
        | Error e -> "error: " ^ Rlc_errors.Error.message e
      in
      String.equal (json 1) (json 2))

(* [Xtalk.analyze] on a coupled random bus: the same fragment at jobs 1
   and 2. *)
let prop_xtalk_jobs =
  QCheck.Test.make ~name:"Xtalk.analyze fragment = at jobs 1 and 2" ~count:4
    QCheck.(pair (arb_bus ~coupled:true) (int_range 1 5))
    (fun (c, alignments) ->
      let d = bus_design c in
      let fragment jobs =
        let r = run ~jobs d in
        Rlc_xtalk.Xtalk.json_fragment d
          (Rlc_xtalk.Xtalk.analyze
             ~config:{ Rlc_xtalk.Xtalk.Config.default with threshold = 0.01; alignments; jobs = Some jobs }
             r)
      in
      String.equal (fragment 1) (fragment 2))

(* ----------------------------------------------- pooled ingest, render *)

(* Floats the report formatter must print as [Printf.sprintf "%.6g"]
   does: random bit patterns (non-finite ones must be refused), subnormals,
   signed zeros, and six-digit rounding ties at every decade with their
   neighbours, which carry into the next power of ten. *)
let arb_report_float =
  let open QCheck.Gen in
  let tie =
    let* digits = oneof [ return "9.99999"; return "1.00000"; return "9.99998"; map (Printf.sprintf "%d.%05d") (int_range 1 9) <*> int_range 0 99_999 ] in
    let* exp = int_range (-320) 308 and* neg = bool and* nudge = int_range (-1) 1 in
    let x = float_of_string (Printf.sprintf "%s%s5e%d" (if neg then "-" else "") digits exp) in
    return (match nudge with -1 -> Float.pred x | 1 -> Float.succ x | _ -> x)
  in
  let gen =
    frequency
      [
        (3, map Int64.float_of_bits int64);
        (1, map (fun m -> Int64.float_of_bits (Int64.of_int m)) (int_range 1 ((1 lsl 52) - 1)));
        (1, map (fun m -> -.Int64.float_of_bits (Int64.of_int m)) (int_range 1 ((1 lsl 52) - 1)));
        (1, oneofl [ 0.; -0.; Float.min_float; -.Float.max_float; 999999.5; 9.999995; 0.0001 ]);
        (4, tie);
      ]
  in
  QCheck.make gen ~print:(Printf.sprintf "%h")

let prop_report_number =
  QCheck.Test.make ~name:"report numbers = Printf %.6g" ~count:5000 arb_report_float (fun x ->
      match Report.number ~prefix:"P" "f" x with
      | s ->
          Float.is_finite x
          && (String.equal s (Printf.sprintf "%.6g" x)
             || QCheck.Test.fail_reportf "%h: %S, Printf gives %S" x s (Printf.sprintf "%.6g" x))
      | exception Failure msg ->
          (not (Float.is_finite x))
          && String.equal msg (Printf.sprintf "P: f is %g, not a finite number" x))

(* [bits] RC nets [n00], [n01], ... (ids in that order), each a primary
   input; the nets of [broken] have no Output conn. *)
let rc_nets ~bits ~broken =
  let spef = Buffer.create 4096 and spec = Buffer.create 512 in
  for i = 0 to bits - 1 do
    let n = Printf.sprintf "n%02d" i in
    Printf.bprintf spef
      "*D_NET %s 40\n*CONN\n*P %s_drv %s\n*P %s_rcv I\n*CAP\n1 %s_rcv 40\n*RES\n1 %s_drv %s_rcv 50\n*END\n"
      n n (if List.mem i broken then "I" else "O") n n n n;
    Printf.bprintf spec "driver %s 75\ninput %s 100\n" n n
  done;
  ( Result.get_ok (spef_parse (Buffer.contents spef)),
    Result.get_ok (spec_parse (Buffer.contents spec)) )

(* Of two nets that cannot be built, the lower id's error is the one an
   ingest returns, on one domain or two, whether the two share a pool job
   or not. *)
let test_ingest_lowest_error () =
  List.iter
    (fun (lo, hi) ->
      let spef, spec = rc_nets ~bits:40 ~broken:[ lo; hi ] in
      let want = Printf.sprintf "net n%02d has no Output *CONN (no driver pin)" lo in
      List.iter
        (fun jobs ->
          Pool.with_pool ~jobs (fun pool ->
              match Design.ingest ~pool ~spef ~spec () with
              | Ok _ -> Alcotest.fail "broken nets accepted"
              | Error e -> Alcotest.(check string) (Printf.sprintf "jobs %d" jobs) want e))
        [ 1; 2 ])
    [ (3, 37); (35, 37); (17, 18) ]

(* A 72-net report is the same bytes rendered on 1, 2 or 4 domains, and
   so is the design ingested on each: its entries span three render jobs
   and its nets five build jobs. *)
let test_report_pools () =
  let c =
    {
      bits = 24;
      segs = 2;
      tails = true;
      coupled = false;
      jitter = Array.init 72 (fun i -> 0.9 +. (0.2 *. float_of_int (i * 37 mod 72) /. 72.));
      slews = Array.init 24 (fun i -> 60. +. float_of_int (3 * i));
    }
  in
  let spef, spec = bus_sources c in
  let render jobs =
    Pool.with_pool ~jobs (fun pool ->
        let d = Result.get_ok (Design.ingest ~pool ~spef ~spec ()) in
        Alcotest.(check int) "nets" 72 (Design.n_nets d);
        let r = Flow.run_cfg { Flow.Config.default with Flow.Config.pool = Some pool } d in
        Report.json_string ~pool ~required:400e-12 r)
  in
  let one = render 1 in
  List.iter (fun jobs -> Alcotest.(check string) (Printf.sprintf "jobs %d" jobs) one (render jobs)) [ 2; 4 ]

let () =
  Alcotest.run "rlc_flow"
    [
      ( "spec",
        [
          Alcotest.test_case "parse" `Quick test_spec_parse;
          Alcotest.test_case "roundtrip" `Quick test_spec_roundtrip;
          Alcotest.test_case "errors" `Quick test_spec_errors;
          Alcotest.test_case "comments" `Quick test_spec_comments;
          Alcotest.test_case "default from SPEF" `Quick test_spec_default;
          Alcotest.test_case "duplicate on line 20,001" `Quick test_spec_late_duplicate;
        ] );
      ( "ingest",
        [
          Alcotest.test_case "shape" `Quick test_ingest_shape;
          Alcotest.test_case "errors" `Quick test_ingest_errors;
          Alcotest.test_case "no driver conn" `Quick test_ingest_no_driver_conn;
          Alcotest.test_case "lowest failing id on any pool" `Quick test_ingest_lowest_error;
        ] );
      ( "pool",
        [
          Alcotest.test_case "map" `Quick test_pool_map;
          Alcotest.test_case "sequential" `Quick test_pool_sequential;
          Alcotest.test_case "exception" `Quick test_pool_exception;
          Alcotest.test_case "parallelism" `Quick test_pool_parallelism;
        ] );
      ( "cache",
        [
          Alcotest.test_case "basics" `Quick test_cache_basics;
          Alcotest.test_case "sharded concurrent" `Quick test_cache_sharded_concurrent;
          Alcotest.test_case "quantize" `Quick test_cache_quantize;
        ] );
      ( "flow",
        [
          Alcotest.test_case "determinism" `Quick test_flow_determinism;
          Alcotest.test_case "results" `Quick test_flow_results;
          Alcotest.test_case "cache effect" `Quick test_flow_cache_effect;
          Alcotest.test_case "stats and report" `Quick test_flow_stats_and_report;
          Alcotest.test_case "config defaults" `Quick test_flow_config_defaults;
          Alcotest.test_case "borrowed pool" `Quick test_flow_borrowed_pool;
          Alcotest.test_case "report = on 1, 2 and 4 domains" `Quick test_report_pools;
          QCheck_alcotest.to_alcotest prop_report_number;
        ] );
      ( "jobs independence",
        List.map QCheck_alcotest.to_alcotest [ prop_flow_jobs; prop_optimize_jobs; prop_xtalk_jobs ]
      );
      ( "delta",
        [
          Alcotest.test_case "cap edit retimes the cone" `Quick test_delta_cap_edit;
          Alcotest.test_case "driver resize dirties the parent" `Quick test_delta_driver_resize;
          Alcotest.test_case "slew edit" `Quick test_delta_slew_edit;
          Alcotest.test_case "deltas compose" `Quick test_delta_compose;
          Alcotest.test_case "obs counters" `Quick test_delta_obs_counters;
          Alcotest.test_case "runs count their own lookups" `Quick test_delta_counts_own_lookups;
          Alcotest.test_case "validation errors" `Quick test_delta_errors;
        ] );
    ]
