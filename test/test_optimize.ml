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

(* An escalation that fails ends its net's search with the transistor
   run's own exception, named by its net; the run raises the first failing
   net's in level order, as at any jobs count.  A technology that shares
   [c018]'s name (so its cells come from the store a healthy run filled)
   but has a NaN NMOS threshold fails every transistor-level run at its
   operating point and nothing else: every seeded net (b0-b3 each escalate
   once, in one level) fails, and b0 is named. *)
let test_failing_escalation_names_first_net () =
  let tech = Rlc_devices.Tech.c018 in
  ignore (run_optimize ~spec:sizing_spec ~required:(ps 150.) ());
  let broken =
    { tech with Rlc_devices.Tech.nmos = { tech.Rlc_devices.Tech.nmos with vth = Float.nan } }
  in
  List.iter
    (fun jobs ->
      let cfg = { Flow.Config.default with Flow.Config.jobs = Some jobs } in
      match
        Optimize.run ~tech:broken ~required:(ps 150.) cfg ~spef:(load_spef ())
          ~spec:(load_spec sizing_spec) ()
      with
      | _ -> Alcotest.failf "jobs %d: escalations with a NaN threshold succeeded" jobs
      | exception Rlc_circuit.Engine.Newton_diverged { t; within } ->
          Alcotest.(check (float 0.)) (Printf.sprintf "jobs %d: at the operating point" jobs) 0. t;
          let prefix = "escalation of net b0 at " in
          Alcotest.(check bool)
            (Printf.sprintf "jobs %d: names b0 (%s)" jobs (String.concat "; " within))
            true
            (match within with
            | [ w ] -> String.length w > String.length prefix && String.sub w 0 (String.length prefix) = prefix
            | _ -> false))
    [ 1; 2 ]

(* An escalation batch gives each bench the far delay of its transient
   alone, bit for bit: the full-window [Reference.simulate] the stopped
   lanes replace.  Two benches share a ladder structure and step as Newton
   lanes; the third, on a longer line, has a shape of its own. *)
let test_escalation_batch_is_each_alone () =
  let tech = Rlc_devices.Tech.c018 and dt = 0.5e-12 in
  let line mm = Rlc_tline.Line.of_totals ~r:72. ~l:4.5e-9 ~c:600e-15 ~length:(mm *. 1e-3) in
  let cases =
    [|
      { Rlc_ceff.Reference.size = 50.; input_slew = ps 100.; line = line 3.; cl = 20e-15 };
      { size = 75.; input_slew = ps 60.; line = line 3.; cl = 40e-15 };
      { size = 50.; input_slew = ps 100.; line = line 6.; cl = 20e-15 };
    |]
  in
  Array.iteri
    (fun i outcome ->
      let k = cases.(i) in
      let alone =
        Rlc_ceff.Reference.far_delay
          (Rlc_ceff.Reference.simulate ~dt ~tech ~size:k.size ~input_slew:k.input_slew
             ~line:k.line ~cl:k.cl ())
      in
      match outcome with
      | Ok d ->
          Alcotest.(check int64) (Printf.sprintf "bench %d bits" i) (Int64.bits_of_float alone)
            (Int64.bits_of_float d)
      | Error e -> Alcotest.failf "bench %d: %s" i (Printexc.to_string e))
    (Rlc_ceff.Reference.simulated_far_delays ~dt ~tech cases)

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
          Alcotest.test_case "a failing escalation names the first net" `Quick
            test_failing_escalation_names_first_net;
          Alcotest.test_case "an escalation batch is each bench alone" `Quick
            test_escalation_batch_is_each_alone;
        ] );
    ]
