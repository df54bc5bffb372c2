(* Rlc_flow.Optimize tests: slack recovery on the seeded under-sized bus8
   design, byte-identical reports across jobs counts, and the no-op path
   when every net already meets timing. *)

module Flow = Rlc_flow.Flow
module Optimize = Rlc_flow.Optimize
module Report = Rlc_flow.Report
module Spec = Rlc_flow.Spec
module Delta = Rlc_flow.Delta

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* dune runtest runs from _build/default/test/ (examples one up, staged by
   the (deps ...) in test/dune); dune exec from the project root. *)
let fixture name =
  if Sys.file_exists (Filename.concat "examples" name) then Filename.concat "examples" name
  else Filename.concat "../examples" name

let bus8_spef = fixture "bus8.spef"
let bus8_spec = fixture "bus8.spec"
let sizing_spec = fixture "bus8_sizing.spec"
let ps = Rlc_num.Units.ps

let load_spef () = Result.get_ok (Rlc_spef.Spef.parse_res (read_file bus8_spef))
let load_spec path = Result.get_ok (Spec.parse_res (read_file path))

let run_optimize ?(jobs = 1) ~spec ~required () =
  let cfg = { Flow.Config.default with Flow.Config.jobs = Some jobs } in
  match Optimize.run ~required cfg ~spef:(load_spef ()) ~spec:(load_spec spec) () with
  | Ok o -> o
  | Error e -> Alcotest.fail (Rlc_errors.Error.message e)

(* The seeded spec under-sizes every driver: the optimizer must close the
   150 ps requirement entirely with resizes, and the verified post-fix flow
   must show the recovery. *)
let test_recovers_slack () =
  let o = run_optimize ~spec:sizing_spec ~required:(ps 150.) () in
  Alcotest.(check bool) "seeded design violates" true
    (o.Optimize.stats.Optimize.o_violations_before > 0);
  Alcotest.(check int) "optimization closes timing" 0
    o.Optimize.stats.Optimize.o_violations_after;
  Alcotest.(check bool) "drivers were resized" true (o.Optimize.delta.Delta.drivers <> []);
  let worst res =
    Array.fold_left (fun acc r -> Float.max acc r.Flow.arrival) neg_infinity res.Flow.results
  in
  Alcotest.(check bool) "worst arrival improves" true
    (worst o.Optimize.after < worst o.Optimize.before);
  Alcotest.(check bool) "candidates evaluated" true
    (o.Optimize.stats.Optimize.o_candidates > 0);
  Alcotest.(check bool) "characterization store hit" true
    (o.Optimize.stats.Optimize.o_char_hits > 0);
  Array.iter
    (fun f ->
      match f.Optimize.f_fix with
      | Optimize.Resize _ ->
          Alcotest.(check bool)
            (Printf.sprintf "resized net %s gains slack" f.Optimize.f_net.Rlc_flow.Design.name)
            true
            (f.Optimize.f_slack_after > f.Optimize.f_slack_before)
      | Optimize.Repeaters _ | Optimize.Unfixable -> ())
    o.Optimize.fixes

(* Candidate searches fan out over the pool, but every search is a pure
   function of the base results — reports must not depend on the jobs
   count. *)
let test_jobs_deterministic () =
  let o1 = run_optimize ~jobs:1 ~spec:sizing_spec ~required:(ps 150.) () in
  let o4 = run_optimize ~jobs:4 ~spec:sizing_spec ~required:(ps 150.) () in
  Alcotest.(check string) "json identical across jobs" (Report.optimize_json_string o1)
    (Report.optimize_json_string o4);
  Alcotest.(check string) "csv identical across jobs" (Report.optimize_csv_string o1)
    (Report.optimize_csv_string o4)

(* Concurrent searches price the same ladder in the same order; each size
   must still be characterized once, not once per domain that reaches it
   first.  The seeded search prices all nine ladder sizes. *)
let test_ladder_characterized_once () =
  Rlc_liberty.Characterize.clear_cache ();
  let o = run_optimize ~jobs:2 ~spec:sizing_spec ~required:(ps 150.) () in
  Alcotest.(check int) "one characterization per ladder size" 9
    o.Optimize.stats.Optimize.o_char_misses

(* A design that already meets timing must come through untouched: no
   searches, no delta, and a post-"optimization" flow byte-identical to the
   base one. *)
let test_noop_when_timing_met () =
  let o = run_optimize ~spec:bus8_spec ~required:(ps 400.) () in
  Alcotest.(check int) "no violations before" 0 o.Optimize.stats.Optimize.o_violations_before;
  Alcotest.(check int) "no violations after" 0 o.Optimize.stats.Optimize.o_violations_after;
  Alcotest.(check int) "no nets searched" 0 (Array.length o.Optimize.fixes);
  Alcotest.(check bool) "no delta applied" true (o.Optimize.delta.Delta.drivers = []);
  Alcotest.(check string) "flow result untouched" (Report.json_string o.Optimize.before)
    (Report.json_string o.Optimize.after)

(* The run's budget reaches the optimizer only ambiently, as
   [rlc_timing optimize --timeout-ms] installs it: a 1 ms deadline around
   the run expires in it. *)
let test_ambient_deadline_expires () =
  match
    Rlc_errors.Deadline.with_ambient (Rlc_errors.Deadline.start 1e-3) (fun () ->
        run_optimize ~spec:sizing_spec ~required:(ps 150.) ())
  with
  | _ -> Alcotest.fail "the run outlived a 1 ms budget"
  | exception Rlc_errors.Deadline.Expired budget ->
      Alcotest.(check (float 0.)) "the budget it ran out of" 1e-3 budget

let () =
  Alcotest.run "rlc_optimize"
    [
      ( "optimize",
        [
          Alcotest.test_case "recovers slack on seeded bus8" `Quick test_recovers_slack;
          Alcotest.test_case "reports identical for jobs 1 vs 4" `Quick test_jobs_deterministic;
          Alcotest.test_case "jobs 2 characterizes each size once" `Quick
            test_ladder_characterized_once;
          Alcotest.test_case "no-op when timing already met" `Quick test_noop_when_timing_met;
          Alcotest.test_case "ambient deadline expires" `Quick test_ambient_deadline_expires;
        ] );
    ]
