(* Rlc_xtalk tests: the closed-form screen's limits and calibration, the
   alignment sweep's monotonicity, violation gating, and the determinism
   guarantees (byte-identical classification and reports across jobs; the
   isolated report untouched when the analysis is off). *)

module Design = Rlc_flow.Design
module Flow = Rlc_flow.Flow
module Report = Rlc_flow.Report
module Noise = Rlc_xtalk.Noise
module Xtalk = Rlc_xtalk.Xtalk
module Session = Rlc_service.Session

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

let coupled_spef = fixture "bus8_coupled.spef"
let bus8_spec = fixture "bus8.spec"

let design =
  lazy
    (let spef =
       match Rlc_spef.Spef.parse_res (read_file coupled_spef) with
       | Ok s -> s
       | Error e -> failwith (Rlc_errors.Error.message e)
     in
     let spec =
       match Rlc_flow.Spec.parse_res (read_file bus8_spec) with
       | Ok s -> s
       | Error e -> failwith (Rlc_errors.Error.message e)
     in
     match Design.ingest ~spef ~spec () with Ok d -> d | Error e -> failwith e)

let flow = lazy (Flow.run_cfg Flow.Config.default (Lazy.force design))

(* One shared full-grid analysis; cheap variants re-analyze with their own
   knobs. *)
let analyzed = lazy (Xtalk.analyze (Lazy.force flow))

let analyze_with ?(alignments = 1) ?(threshold = Xtalk.Config.default.Xtalk.Config.threshold)
    ?(budget = Xtalk.Config.default.Xtalk.Config.budget) ?jobs () =
  Xtalk.analyze
    ~config:
      { Xtalk.Config.default with Xtalk.Config.threshold; budget; alignments; jobs }
    (Lazy.force flow)

(* ------------------------------------------------------- closed form *)

let test_noise_limits () =
  let vdd = 1.8 and rv = 100. and cv = 400e-15 and cc = 100e-15 in
  (* Fast aggressor: charge sharing cc / (cv + cc). *)
  let fast = Noise.estimate ~vdd ~tr:1e-18 ~rv ~cv ~cc ~damping:2. in
  Alcotest.(check (float 1e-3))
    "tr -> 0 recovers charge sharing"
    (vdd *. cc /. (cv +. cc))
    fast.Noise.rc_peak;
  (* Slow aggressor: the Devgan-style bound rv * cc / tr. *)
  let tr = 10e-9 in
  let slow = Noise.estimate ~vdd ~tr ~rv ~cv ~cc ~damping:2. in
  Alcotest.(check (float 1e-4))
    "slow ramp recovers the Devgan bound"
    (vdd *. rv *. cc /. tr)
    slow.Noise.rc_peak;
  (* Overdamped victims get no amplification; underdamped at most 2x. *)
  Alcotest.(check (float 0.)) "overdamped amplification" 1. slow.Noise.amplification;
  let ringing = Noise.estimate ~vdd ~tr:50e-12 ~rv ~cv ~cc ~damping:0.05 in
  Alcotest.(check bool) "underdamped amplifies" true (ringing.Noise.amplification > 1.);
  Alcotest.(check bool) "amplification clamped" true (ringing.Noise.amplification <= 2.);
  (* The peak never exceeds the rail. *)
  let huge = Noise.estimate ~vdd ~tr:1e-15 ~rv:1e5 ~cv:1e-18 ~cc:1e-12 ~damping:0.01 in
  Alcotest.(check bool) "clamped to vdd" true (huge.Noise.v_peak <= vdd)

let test_noise_monotone_in_cc () =
  let est cc = (Noise.estimate ~vdd:1.8 ~tr:80e-12 ~rv:150. ~cv:500e-15 ~cc ~damping:1.5).Noise.v_peak in
  let prev = ref 0. in
  List.iter
    (fun cc ->
      let v = est cc in
      Alcotest.(check bool) "more coupling, more noise" true (v >= !prev);
      prev := v)
    [ 1e-15; 10e-15; 50e-15; 100e-15; 300e-15 ]

let test_noise_bad_args () =
  let raises f = try ignore (f ()); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "tr must be positive" true
    (raises (fun () -> Noise.estimate ~vdd:1.8 ~tr:0. ~rv:100. ~cv:1e-15 ~cc:1e-15 ~damping:1.));
  Alcotest.(check bool) "cv must be non-negative" true
    (raises (fun () ->
         Noise.estimate ~vdd:1.8 ~tr:1e-12 ~rv:100. ~cv:(-1e-15) ~cc:1e-15 ~damping:1.))

(* ------------------------------------------------- screen vs transient *)

(* The calibration claim of Noise's doc: per simulated victim, the summed
   closed-form estimates of its surviving pairs land within a factor of 3
   of the coupled-cluster transient peak. *)
let test_screen_vs_simulation () =
  let r = Lazy.force analyzed in
  let checked = ref 0 in
  Array.iter
    (fun (v : Xtalk.victim_result) ->
      match v.Xtalk.noise_sim with
      | None -> ()
      | Some sim ->
          incr checked;
          let est_sum =
            List.fold_left
              (fun acc (p : Xtalk.pair) ->
                if p.Xtalk.screened then acc else acc +. p.Xtalk.est.Noise.v_peak)
              0. v.Xtalk.pairs
          in
          Alcotest.(check bool)
            (Printf.sprintf "victim %d: sim %.1f mV within 3x of est %.1f mV" v.Xtalk.victim
               (sim /. 1e-3) (est_sum /. 1e-3))
            true
            (sim <= 3. *. est_sum && sim >= est_sum /. 3.))
    r.Xtalk.victims;
  Alcotest.(check bool) "at least one victim simulated" true (!checked > 0)

let test_bus_screens_majority () =
  (* The coupled bus fixture is built so the weak pairs dominate: the
     screen must dismiss most of them without a transient. *)
  let r = Lazy.force analyzed in
  Alcotest.(check int) "pairs" 18 r.Xtalk.stats.Xtalk.n_pairs;
  Alcotest.(check bool) "majority screened" true
    (2 * r.Xtalk.stats.Xtalk.n_screened > r.Xtalk.stats.Xtalk.n_pairs);
  Alcotest.(check int) "screened + simulated = pairs" r.Xtalk.stats.Xtalk.n_pairs
    (r.Xtalk.stats.Xtalk.n_screened + r.Xtalk.stats.Xtalk.n_simulated)

(* --------------------------------------------------- alignment sweep *)

let test_alignment_monotone () =
  (* Grids nest (the 2n-1 grid contains every point of the n grid), so the
     worst coupled delay can only grow with the grid size. *)
  let worst r =
    Array.fold_left
      (fun acc (v : Xtalk.victim_result) ->
        match v.Xtalk.coupled_delay with Some d -> Float.max acc d | None -> acc)
      0. r.Xtalk.victims
  in
  let d1 = worst (analyze_with ~alignments:1 ()) in
  let d5 = worst (analyze_with ~alignments:5 ()) in
  let d9 = worst (Lazy.force analyzed) in
  Alcotest.(check bool) "5-point grid >= aligned starts" true (d5 >= d1);
  Alcotest.(check bool) "9-point grid >= 5-point grid" true (d9 >= d5);
  (* And the push-out is real on this fixture: coupling slows the bus. *)
  Alcotest.(check bool) "positive push-out" true (d9 > 0.)

let test_pushout_sign () =
  let r = Lazy.force analyzed in
  Array.iter
    (fun (v : Xtalk.victim_result) ->
      match (v.Xtalk.pushout, v.Xtalk.coupled_delay) with
      | Some push, Some coupled ->
          Alcotest.(check (float 1e-15))
            "pushout = coupled - isolated" (coupled -. v.Xtalk.isolated_delay) push
      | None, None -> Alcotest.(check bool) "unsimulated victims carry no delay" false v.Xtalk.simulated
      | _ -> Alcotest.fail "coupled_delay and pushout must be present together")
    r.Xtalk.victims

(* ------------------------------------------------------------ gating *)

let test_violation_budget () =
  (* A generous budget passes; a tiny one flags every simulated victim. *)
  let ok = analyze_with ~budget:1.0 () in
  Alcotest.(check int) "generous budget: no violations" 0 ok.Xtalk.stats.Xtalk.n_violations;
  let strict = analyze_with ~budget:0.01 () in
  Alcotest.(check int) "tiny budget: every simulated victim violates"
    (Array.to_list strict.Xtalk.victims
    |> List.filter (fun (v : Xtalk.victim_result) -> v.Xtalk.simulated)
    |> List.length)
    strict.Xtalk.stats.Xtalk.n_violations;
  Array.iter
    (fun (v : Xtalk.victim_result) ->
      Alcotest.(check bool) "violation iff simulated under the tiny budget" v.Xtalk.simulated
        v.Xtalk.violation)
    strict.Xtalk.victims

let test_threshold_extremes () =
  (* Threshold above every estimate: nothing simulated, nothing violated. *)
  let all_screened = analyze_with ~threshold:1.0 () in
  Alcotest.(check int) "everything screened" all_screened.Xtalk.stats.Xtalk.n_pairs
    all_screened.Xtalk.stats.Xtalk.n_screened;
  Alcotest.(check int) "no sims" 0 all_screened.Xtalk.stats.Xtalk.n_simulated;
  Alcotest.(check int) "no violations" 0 all_screened.Xtalk.stats.Xtalk.n_violations

(* ------------------------------------------------------- determinism *)

let test_deterministic_across_jobs () =
  let d = Lazy.force design in
  let f1 = Xtalk.json_fragment d (analyze_with ~alignments:3 ~jobs:1 ()) in
  let f4 = Xtalk.json_fragment d (analyze_with ~alignments:3 ~jobs:4 ()) in
  Alcotest.(check string) "fragment byte-identical across jobs" f1 f4

let test_screen_classification_deterministic () =
  let screened r =
    Array.to_list r.Xtalk.victims
    |> List.concat_map (fun (v : Xtalk.victim_result) ->
           List.map (fun (p : Xtalk.pair) -> (p.Xtalk.victim, p.Xtalk.aggressor, p.Xtalk.screened)) v.Xtalk.pairs)
  in
  let a = screened (analyze_with ~jobs:1 ()) in
  let b = screened (analyze_with ~jobs:4 ()) in
  Alcotest.(check bool) "classification identical across jobs" true (a = b)

let test_full_report_identical_across_jobs () =
  (* The whole CLI/daemon payload — flow report plus embedded fragment —
     through the same Session path the binaries use. *)
  let report jobs =
    let config = { Session.Config.default with Session.Config.jobs } in
    Session.with_session ~config (fun session ->
        let design =
          match
            Session.ingest session ~spef:(read_file coupled_spef) ~spec:(read_file bus8_spec) ()
          with
          | Ok d -> d
          | Error e -> failwith (Rlc_errors.Error.message e)
        in
        let request =
          {
            Session.Request.default with
            Session.Request.xtalk = Some { Session.default_xtalk with Session.alignments = 3 };
          }
        in
        match Session.flow session request design with
        | Ok o -> o.Session.report
        | Error e -> failwith (Rlc_errors.Error.message e))
  in
  let r1 = report 1 and r4 = report 4 in
  Alcotest.(check string) "report byte-identical across jobs" r1 r4;
  Alcotest.(check bool) "fragment embedded" true
    (let contains hay needle =
       let nh = String.length hay and nn = String.length needle in
       let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
       go 0
     in
     contains r1 "\"xtalk\"")

let test_off_mode_report_untouched () =
  (* Without ?xtalk the Session report is exactly the isolated flow's
     report: ingesting coupling caps must not perturb it. *)
  Session.with_session (fun session ->
      let design =
        match
          Session.ingest session ~spef:(read_file coupled_spef) ~spec:(read_file bus8_spec) ()
        with
        | Ok d -> d
        | Error e -> failwith (Rlc_errors.Error.message e)
      in
      match Session.flow session Session.Request.default design with
      | Error e -> failwith (Rlc_errors.Error.message e)
      | Ok o ->
          Alcotest.(check string) "no-xtalk report = plain flow report"
            (Report.json_string o.Session.result)
            o.Session.report;
          Alcotest.(check bool) "no xtalk result attached" true (o.Session.xtalk = None))

(* ------------------------------------------------------- early stop *)

module Cluster = Rlc_xtalk.Cluster
module Line = Rlc_tline.Line
module Pwl = Rlc_waveform.Pwl
module Waveform = Rlc_waveform.Waveform
module Measure = Rlc_waveform.Measure
module Driver_model = Rlc_ceff.Driver_model

let bits_of = Option.map Int64.bits_of_float

type pair_case = {
  r : float;
  l : float;
  c : float;
  cl : float;
  tr : float;
  aggs : (float * float * float * float * float) list;
      (** per aggressor: R, L, C jitter factors, coupling cc, start offset *)
}

(* A victim line rising through its far-end 50 % against one or two
   aggressors falling at random offsets.  Half the cases are strongly
   Miller-coupled (cc up to 1.5x the victim's own wire cap) on lightly
   damped lines, where the far end crosses 50 %, is pulled back under it,
   and crosses again: the early stop must still keep the first crossing. *)
let arb_pair_case =
  let open QCheck.Gen in
  let jitter = float_range 0.8 1.2 in
  let gen =
    let* miller = bool in
    let* r = if miller then float_range 5. 40. else float_range 5. 300. in
    let* l = float_range 0.5e-9 6e-9 in
    let* c = float_range 150e-15 900e-15 in
    let* cl = float_range 0. 40e-15 in
    let* tr = float_range 10e-12 120e-12 in
    let agg =
      let* jr = jitter and* jl = jitter and* jc = jitter in
      let* cc = if miller then float_range (0.5 *. c) (1.5 *. c) else float_range 0. (0.3 *. c) in
      let* off = float_range (-100e-12) 300e-12 in
      return (jr, jl, jc, cc, off)
    in
    let* aggs = list_size (int_range 1 2) agg in
    return { r; l; c; cl; tr; aggs }
  in
  QCheck.make gen ~print:(fun u ->
      Printf.sprintf "R %g L %g C %g cl %g tr %g; %s" u.r u.l u.c u.cl u.tr
        (String.concat "; "
           (List.map
              (fun (jr, jl, jc, cc, off) ->
                Printf.sprintf "agg x(%.2f,%.2f,%.2f) cc %g off %g" jr jl jc cc off)
              u.aggs)))

let case_vdd = 1.8

(* A generated case's cluster: the victim rising from t = 0, each aggressor
   falling from its own start offset. *)
let cluster_of u =
  let vdd = case_vdd in
  let line ~r ~l ~c = Line.of_totals ~r ~l ~c ~length:3e-3 in
  let victim =
    {
      Cluster.line = line ~r:u.r ~l:u.l ~c:u.c;
      drive = Some (Pwl.ramp ~t0:0. ~v0:0. ~v1:vdd ~transition:u.tr);
      rs = 50.;
      cl = u.cl;
    }
  in
  let aggressors =
    List.map
      (fun (jr, jl, jc, cc, off) ->
        ( {
            Cluster.line = line ~r:(jr *. u.r) ~l:(jl *. u.l) ~c:(jc *. u.c);
            drive = Some (Pwl.ramp ~t0:off ~v0:vdd ~v1:0. ~transition:u.tr);
            rs = 50.;
            cl = u.cl;
          },
          cc ))
      u.aggs
  in
  (victim, aggressors)

(* Counts the generated far ends that crossed 50 % more than once. *)
let recrossed = ref 0

let prop_until_pair =
  QCheck.Test.make ~name:"Cluster.simulate ~until keeps the first far-end 50 % crossing"
    ~count:40 arb_pair_case (fun u ->
      let vdd = case_vdd in
      let victim, aggressors = cluster_of u in
      let level = Measure.level_of_frac ~vdd ~edge:Measure.Rising ~frac:0.5 in
      let run ?until () =
        Cluster.simulate ~n_segments:10 ?until ~dt:0.5e-12 ~victim ~aggressors ()
      in
      let full = run () and pre = run ~until:[ (level, Measure.Rising) ] () in
      let first w = Waveform.first_crossing w ~level ~direction:Measure.Rising in
      if List.length (Waveform.crossings full ~level ~direction:Measure.Rising) >= 2 then
        incr recrossed;
      if first full = None then QCheck.Test.fail_report "victim never reached 50 %";
      if bits_of (first pre) <> bits_of (first full) then
        QCheck.Test.fail_report "first 50 % crossing moved";
      Waveform.length pre < Waveform.length full)

let test_until_pair () =
  recrossed := 0;
  QCheck.Test.check_exn prop_until_pair;
  Alcotest.(check bool) "some generated far end crossed 50 % twice" true (!recrossed > 0)

(* --------------------------------------------------- screened sweep *)

(* Grid sizes of the sweep property: the plain loop's (three points or
   fewer), the smallest screened ones, and the nested grids up to
   [Xtalk.max_alignments]. *)
let grid_sizes = [| 1; 2; 3; 4; 5; 9; 17; 33; 65; 129; 257 |]

let arb_sweep_case =
  QCheck.pair arb_pair_case
    (QCheck.make ~print:(Printf.sprintf "%d offsets") (QCheck.Gen.oneofa grid_sizes))

(* The symmetric grid analyze sweeps, over +-200 ps around each
   aggressor's own start. *)
let sweep_offsets n =
  let span = 200e-12 in
  if n = 1 then [| 0. |]
  else Array.init n (fun k -> -.span +. (2. *. span *. float_of_int k /. float_of_int (n - 1)))

(* The sweep every screened one must reproduce: one stopped run per
   offset, the maximum of their first 50 % crossings, or the first offset
   whose run never gets there. *)
let brute_force_sweep ~n_segments ~dt ~vdd ~victim ~aggressors offsets =
  let level = Measure.level_of_frac ~vdd ~edge:Measure.Rising ~frac:0.5 in
  let shift off (m, cc) =
    ({ m with Cluster.drive = Option.map (Pwl.shift_time off) m.Cluster.drive }, cc)
  in
  Array.fold_left
    (fun acc off ->
      Result.bind acc (fun worst ->
          let far =
            Cluster.simulate ~n_segments ~until:[ (level, Measure.Rising) ] ~dt ~victim
              ~aggressors:(List.map (shift off) aggressors) ()
          in
          match Measure.t_frac far ~vdd ~edge:Measure.Rising ~frac:0.5 with
          | Some d -> Ok (Float.max worst d)
          | None -> Error off))
    (Ok Float.neg_infinity) offsets

let prop_sweep_screen =
  QCheck.Test.make ~name:"Cluster.worst_crossing = brute-force worst over every offset" ~count:100
    arb_sweep_case (fun (u, n) ->
      let victim, aggressors = cluster_of u in
      let offsets = sweep_offsets n in
      let dt = 0.5e-12 and vdd = case_vdd in
      let brute = brute_force_sweep ~n_segments:10 ~dt ~vdd ~victim ~aggressors offsets in
      let screened = Cluster.worst_crossing ~n_segments:10 ~dt ~vdd ~victim ~aggressors offsets in
      match (screened, brute) with
      | Ok screened, Ok brute ->
          Int64.equal (Int64.bits_of_float screened) (Int64.bits_of_float brute)
          || QCheck.Test.fail_reportf "screened worst %.17g s, brute force %.17g s" screened brute
      | Error a, Error b ->
          Float.equal a b || QCheck.Test.fail_reportf "offsets %g vs %g named" a b
      | _ -> QCheck.Test.fail_report "only one sweep reached 50 % at every offset")

let test_sweep_screen () = QCheck.Test.check_exn prop_sweep_screen

(* A batch of 1 to 10 random sweeps ([max_lanes] is 8, so some take two
   groups), each a random cluster and grid; about a third of the victims
   stop at 20-60 % of the rail, so some sweeps never reach 50 % at any
   offset or at some. *)
let arb_batch =
  let open QCheck.Gen in
  let sweep =
    triple (QCheck.gen arb_pair_case) (oneofa grid_sizes)
      (frequency [ (2, return None); (1, map Option.some (float_range 0.2 0.6)) ])
  in
  let print_case = Option.get arb_pair_case.QCheck.print in
  QCheck.make (list_size (int_range 1 10) sweep) ~print:(fun sweeps ->
      String.concat "\n"
        (List.map
           (fun (u, n, cap) ->
             Printf.sprintf "%s; %d offsets%s" (print_case u) n
               (match cap with
               | Some f -> Printf.sprintf "; victim stops at %.3f vdd" f
               | None -> ""))
           sweeps))

let sweep_of (u, n, cap) =
  let victim, aggressors = cluster_of u in
  let victim =
    match cap with
    | None -> victim
    | Some f ->
        {
          victim with
          Cluster.drive = Some (Pwl.ramp ~t0:0. ~v0:0. ~v1:(f *. case_vdd) ~transition:u.tr);
        }
  in
  { Cluster.victim; aggressors; offsets = sweep_offsets n }

let counter m name =
  Option.value (List.assoc_opt name m.Rlc_obs.Obs.m_counters) ~default:0

(* Sweeps of a batch that fell back and that ended in an error, run
   alone, since the last reset. *)
let batch_fallbacks = ref 0
let batch_errors = ref 0

(* The sweeps run together give each sweep's result alone and the
   brute-force one; the screen's counters equal the lone sweeps' sum, and
   the alignment runs too unless a sweep ends in an error, which alone may
   run more. *)
let check_batch cases =
  let dt = 0.5e-12 and vdd = case_vdd in
  let sweeps = Array.of_list (List.map sweep_of cases) in
  let batch_obs = Rlc_obs.Obs.create () in
  let batch = Cluster.worst_crossings ~obs:batch_obs ~n_segments:10 ~dt ~vdd sweeps in
  let alone_obs = Rlc_obs.Obs.create () in
  Array.iteri
    (fun j (sw : Cluster.sweep) ->
      let before = counter (Rlc_obs.Obs.snapshot alone_obs) "xtalk.screen_fallbacks" in
      let alone =
        Cluster.worst_crossing ~obs:alone_obs ~n_segments:10 ~dt ~vdd ~victim:sw.victim
          ~aggressors:sw.aggressors sw.offsets
      in
      if counter (Rlc_obs.Obs.snapshot alone_obs) "xtalk.screen_fallbacks" > before then
        incr batch_fallbacks;
      if Result.is_error alone then incr batch_errors;
      let brute =
        brute_force_sweep ~n_segments:10 ~dt ~vdd ~victim:sw.victim ~aggressors:sw.aggressors
          sw.offsets
      in
      let same a b =
        match (a, b) with
        | Ok a, Ok b -> Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)
        | Error a, Error b -> Float.equal a b
        | _ -> false
      in
      if not (same batch.(j) alone && same alone brute) then
        QCheck.Test.fail_reportf "sweep %d: batch, alone and brute force disagree" j)
    sweeps;
  let b = Rlc_obs.Obs.snapshot batch_obs and a = Rlc_obs.Obs.snapshot alone_obs in
  let errors = Array.exists Result.is_error batch in
  List.iter
    (fun (name, at_least) ->
      let nb = counter b name and na = counter a name in
      if (if at_least && errors then nb < na else nb <> na) then
        QCheck.Test.fail_reportf "%s: %d batched, %d alone" name nb na)
    [
      ("xtalk.screen_runs", false);
      ("xtalk.screen_steps", false);
      ("xtalk.screen_fallbacks", false);
      ("xtalk.alignment_sweeps", true);
      ("xtalk.alignment_steps", true);
      ("engine.transients", true);
      ("engine.steps", true);
    ];
  true

let prop_sweep_batch =
  QCheck.Test.make ~name:"worst_crossings = each sweep alone = brute force" ~count:30 arb_batch
    check_batch

(* A cluster whose 65-offset sweep falls back (found by a search over
   [arb_pair_case]): one confirm run strays from the superposition by more
   than half the screen's margin. *)
let fallback_case =
  {
    r = 0x1.3e16d39fd1075p+5;
    l = 0x1.77ede922e22cdp-28;
    c = 0x1.deb165ffd2d53p-43;
    cl = 0x1.4100a2f80ac48p-48;
    tr = 0x1.a9289ac671b3ep-37;
    aggs =
      [
        ( 0x1.04f0f2e51f21dp+0,
          0x1.a4de7ffe14ebcp-1,
          0x1.c3a1c7110e91fp-1,
          0x1.5d9b0fa05d79dp-42,
          0x1.762dda71250e4p-33 );
      ];
  }

let test_sweep_batch () =
  batch_fallbacks := 0;
  batch_errors := 0;
  QCheck.Test.check_exn prop_sweep_batch;
  Alcotest.(check bool) "some sweep ended in an error" true (!batch_errors > 0);
  (* The fallback between a sweep that errs at its first offset and one
     that times. *)
  batch_fallbacks := 0;
  let plain = { fallback_case with r = 60.; aggs = [ (1., 1., 1., 100e-15, 0.) ] } in
  ignore (check_batch [ (plain, 9, Some 0.2); (fallback_case, 65, None); (plain, 17, None) ]);
  Alcotest.(check int) "the fallback sweep fell back" 1 !batch_fallbacks

(* A damped victim whose drive stops at 20 % of the rail reaches 50 % at
   no offset: a screened grid fails at its first offset, like the plain
   loop. *)
let test_sweep_unreachable () =
  let u =
    {
      r = 300.;
      l = 1e-9;
      c = 400e-15;
      cl = 10e-15;
      tr = 50e-12;
      aggs = [ (1., 1., 1., 40e-15, 0.) ];
    }
  in
  let victim, aggressors = cluster_of u in
  let drive = Pwl.ramp ~t0:0. ~v0:0. ~v1:(0.2 *. case_vdd) ~transition:50e-12 in
  let victim = { victim with Cluster.drive = Some drive } in
  List.iter
    (fun n ->
      let offsets = sweep_offsets n in
      let vdd = case_vdd and dt = 0.5e-12 in
      match Cluster.worst_crossing ~n_segments:10 ~dt ~vdd ~victim ~aggressors offsets with
      | Ok d -> Alcotest.failf "%d offsets: timed at %g s" n d
      | Error off ->
          let what = Printf.sprintf "%d offsets: first named" n in
          Alcotest.(check (float 0.)) what offsets.(0) off)
    [ 1; 9 ]

(* Test-local oracle: the noise run and the alignment sweep exactly as
   analyze runs them, but every transient over the full window.  Each
   noise run of the analysis stops once its peak is proved final: the peak
   must keep the full window's bits while the steps it counts fall.  The
   screened sweep must cost at most half the steps of one stopped run per
   offset. *)
let test_matches_full_window () =
  let flow = Lazy.force flow in
  let obs = Rlc_obs.Obs.create () in
  let r = Xtalk.analyze ~config:{ Xtalk.Config.default with Xtalk.Config.obs } flow in
  let noise_steps = ref 0 and full_steps = ref 0 and stopped_sweep_steps = ref 0 in
  let design = flow.Flow.design in
  let vdd = design.Design.tech.Rlc_devices.Tech.vdd in
  let solve id = flow.Flow.results.(id).Flow.solve in
  let model id = (solve id).Flow.model in
  let member ?drive id =
    let net = design.Design.nets.(id) in
    { Cluster.line = net.Design.eq_line; drive; rs = (model id).Driver_model.rs; cl = net.Design.cl }
  in
  let n = r.Xtalk.alignments in
  Alcotest.(check int) "default grid" 9 n;
  let checked = ref 0 in
  Array.iter
    (fun (v : Xtalk.victim_result) ->
      match (v.Xtalk.noise_sim, v.Xtalk.coupled_delay) with
      | None, _ | _, None -> ()
      | Some noise, Some coupled ->
          incr checked;
          let id = v.Xtalk.victim in
          let name = design.Design.nets.(id).Design.name in
          let survivors = List.filter (fun (p : Xtalk.pair) -> not p.Xtalk.screened) v.Xtalk.pairs in
          let rising =
            List.map
              (fun (p : Xtalk.pair) ->
                (member ~drive:(model p.Xtalk.aggressor).Driver_model.pwl p.Xtalk.aggressor, p.Xtalk.cc))
              survivors
          in
          let quiet =
            Cluster.simulate ~dt:Xtalk.Config.default.Xtalk.Config.dt ~victim:(member id)
              ~aggressors:rising ()
          in
          Alcotest.(check int64)
            (Printf.sprintf "victim %s noise bits" name)
            (Int64.bits_of_float (Waveform.v_max quiet))
            (Int64.bits_of_float noise);
          let stopped =
            Cluster.simulate ~until_peak:true ~dt:Xtalk.Config.default.Xtalk.Config.dt
              ~victim:(member id) ~aggressors:rising ()
          in
          if Waveform.length stopped >= Waveform.length quiet then
            Alcotest.failf "victim %s: the noise run took %d samples, the full window %d" name
              (Waveform.length stopped) (Waveform.length quiet);
          noise_steps := !noise_steps + Waveform.length stopped - 1;
          full_steps := !full_steps + Waveform.length quiet - 1;
          let span =
            List.fold_left
              (fun acc (p : Xtalk.pair) ->
                Float.max acc (Driver_model.transition_end (model p.Xtalk.aggressor)))
              ((solve id).Flow.stage_delay +. (solve id).Flow.far_slew)
              survivors
          in
          let worst = ref Float.neg_infinity in
          for k = 0 to n - 1 do
            let off = -.span +. (2. *. span *. float_of_int k /. float_of_int (n - 1)) in
            let aggressors =
              List.map
                (fun (p : Xtalk.pair) ->
                  let m = model p.Xtalk.aggressor in
                  ( member
                      ~drive:
                        (Pwl.shift_time off (Pwl.falling ~vdd:m.Driver_model.vdd m.Driver_model.pwl))
                      p.Xtalk.aggressor,
                    p.Xtalk.cc ))
                survivors
            in
            let victim = member ~drive:(model id).Driver_model.pwl id in
            let dt = Xtalk.Config.default.Xtalk.Config.dt in
            let far = Cluster.simulate ~dt ~victim ~aggressors () in
            let level = Measure.level_of_frac ~vdd ~edge:Measure.Rising ~frac:0.5 in
            let crossing = Measure.t_frac_exn far ~vdd ~edge:Measure.Rising ~frac:0.5 in
            worst := Float.max !worst crossing;
            let stopped =
              Cluster.simulate ~until:[ (level, Measure.Rising) ] ~dt ~victim ~aggressors ()
            in
            stopped_sweep_steps := !stopped_sweep_steps + Waveform.length stopped - 1
          done;
          Alcotest.(check int64)
            (Printf.sprintf "victim %s coupled delay bits" name)
            (Int64.bits_of_float !worst) (Int64.bits_of_float coupled))
    r.Xtalk.victims;
  Alcotest.(check bool) "some victim simulated" true (!checked > 0);
  let counter name =
    Option.value ~default:0
      (List.assoc_opt name (Rlc_obs.Obs.snapshot obs).Rlc_obs.Obs.m_counters)
  in
  Alcotest.(check int) "xtalk.noise_steps counts the steps taken" !noise_steps
    (counter "xtalk.noise_steps");
  (* Every engine run of the analysis is a noise, screen or alignment run. *)
  Alcotest.(check int) "engine steps = noise + screen + alignment steps" (counter "engine.steps")
    (counter "xtalk.noise_steps" + counter "xtalk.screen_steps"
    + counter "xtalk.alignment_steps");
  let noise_runs =
    Array.fold_left (fun n (v : Xtalk.victim_result) -> if v.Xtalk.simulated then n + 1 else n) 0
      r.Xtalk.victims
  in
  Alcotest.(check int) "engine transients = noise runs + screen runs + alignment sweeps"
    (counter "engine.transients")
    (noise_runs + counter "xtalk.screen_runs" + counter "xtalk.alignment_sweeps");
  Alcotest.(check int) "no screen fallback" 0 (counter "xtalk.screen_fallbacks");
  let sweep_steps = counter "xtalk.screen_steps" + counter "xtalk.alignment_steps" in
  Alcotest.(check bool)
    (Printf.sprintf "screened sweeps took %d steps, one stopped run per offset %d" sweep_steps
       !stopped_sweep_steps)
    true
    (2 * sweep_steps <= !stopped_sweep_steps);
  Alcotest.(check bool)
    (Printf.sprintf "noise runs took %d steps, the full windows %d" !noise_steps !full_steps)
    true
    (!noise_steps < !full_steps)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

(* A victim whose driver swings only 40 % of the rail can never reach the
   far-end 50 % point: the analysis must fail naming it and the alignment,
   as an internal error (Failure), not as a caller's bad argument. *)
let test_unreachable_victim_named () =
  let flow = Lazy.force flow and r = Lazy.force analyzed in
  let design = flow.Flow.design in
  let vdd = design.Design.tech.Rlc_devices.Tech.vdd in
  let v =
    (List.find (fun (v : Xtalk.victim_result) -> v.Xtalk.simulated) (Array.to_list r.Xtalk.victims))
      .Xtalk.victim
  in
  let results =
    Array.mapi
      (fun i (nr : Flow.net_result) ->
        if i <> v then nr
        else
          let m = nr.Flow.solve.Flow.model in
          (* The model's own swing shrinks with its waveform, so the screen
             can still measure it as an aggressor. *)
          let weak =
            {
              m with
              Driver_model.vdd = 0.4 *. vdd;
              pwl = Pwl.ramp ~t0:0. ~v0:0. ~v1:(0.4 *. vdd) ~transition:1e-9;
            }
          in
          { nr with Flow.solve = { nr.Flow.solve with Flow.model = weak } })
      flow.Flow.results
  in
  match
    Xtalk.analyze
      ~config:{ Xtalk.Config.default with Xtalk.Config.alignments = 1 }
      { flow with Flow.results }
  with
  | _ -> Alcotest.fail "a victim that never reaches 50 % was timed"
  | exception Failure msg ->
      let name = design.Design.nets.(v).Design.name in
      Alcotest.(check bool) ("names the victim: " ^ msg) true (contains msg ("victim " ^ name ^ ":"));
      Alcotest.(check bool) ("names the offset: " ^ msg) true (contains msg "offset")

(* Two unreachable victims of different cluster shapes land in different
   chunks, b3's (with b0) ahead of b1's (with b2): the failure must still
   name the first in id order.  Each weak model is its own waveform scaled
   to 40 % of the rail, so its edge rate, and with it the screen, is
   unchanged. *)
let test_unreachable_victims_in_id_order () =
  let flow = Lazy.force flow and r = Lazy.force analyzed in
  let design = flow.Flow.design in
  let id name =
    let rec go i = if design.Design.nets.(i).Design.name = name then i else go (i + 1) in
    go 0
  in
  let shape name =
    let v =
      List.find
        (fun (v : Xtalk.victim_result) -> v.Xtalk.victim = id name)
        (Array.to_list r.Xtalk.victims)
    in
    Alcotest.(check bool) (name ^ " simulated") true v.Xtalk.simulated;
    List.length (List.filter (fun (p : Xtalk.pair) -> not p.Xtalk.screened) v.Xtalk.pairs)
  in
  Alcotest.(check (list int)) "b0 b1 b2 b3 survivors" [ 1; 2; 2; 1 ]
    (List.map shape [ "b0"; "b1"; "b2"; "b3" ]);
  let weak = [ id "b1"; id "b3" ] in
  let results =
    Array.mapi
      (fun i (nr : Flow.net_result) ->
        if not (List.mem i weak) then nr
        else
          let m = nr.Flow.solve.Flow.model in
          let pwl =
            Pwl.of_points (List.map (fun (t, v) -> (t, 0.4 *. v)) (Pwl.points m.Driver_model.pwl))
          in
          let weak = { m with Driver_model.vdd = 0.4 *. m.Driver_model.vdd; pwl } in
          { nr with Flow.solve = { nr.Flow.solve with Flow.model = weak } })
      flow.Flow.results
  in
  List.iter
    (fun jobs ->
      match
        Xtalk.analyze ~config:{ Xtalk.Config.default with Xtalk.Config.jobs } { flow with Flow.results }
      with
      | _ -> Alcotest.fail "a victim that never reaches 50 % was timed"
      | exception Failure msg ->
          Alcotest.(check bool) ("names b1: " ^ msg) true (contains msg "victim b1:"))
    [ Some 1; Some 2 ]

let test_alignments_bounded () =
  let rejects alignments =
    match analyze_with ~alignments () with _ -> false | exception Invalid_argument _ -> true
  in
  Alcotest.(check bool) "0 rejected" true (rejects 0);
  Alcotest.(check bool) "max + 1 rejected" true (rejects (Xtalk.max_alignments + 1));
  Alcotest.(check int) "bound is a nested grid size" 257 Xtalk.max_alignments

(* -------------------------------------------------------------- misc *)

let test_protocol_xtalk_request () =
  let parse line = snd (Rlc_service.Protocol.parse_request line) in
  (match
     parse
       {|{"schema":"rlc-service/1","kind":"xtalk","spef":"x","threshold":0.1,"alignments":5}|}
   with
  | Ok { Rlc_service.Protocol.kind = Rlc_service.Protocol.Xtalk (_, x); _ } ->
      Alcotest.(check (option (float 0.))) "threshold" (Some 0.1) x.Rlc_service.Protocol.x_threshold;
      Alcotest.(check (option int)) "alignments" (Some 5) x.Rlc_service.Protocol.x_alignments;
      Alcotest.(check (option (float 0.))) "budget defaults open" None x.Rlc_service.Protocol.x_budget
  | Ok _ -> Alcotest.fail "parsed to the wrong kind"
  | Error e -> Alcotest.fail (Rlc_errors.Error.message e));
  let alignments n =
    parse (Printf.sprintf {|{"schema":"rlc-service/1","kind":"xtalk","spef":"x","alignments":%d}|} n)
  in
  (match alignments Xtalk.max_alignments with
  | Ok _ -> ()
  | Error e -> Alcotest.fail (Rlc_errors.Error.message e));
  List.iter
    (fun n ->
      match alignments n with
      | Ok _ -> Alcotest.failf "alignments %d accepted" n
      | Error (Rlc_errors.Error.Bad_request _) -> ()
      | Error e -> Alcotest.failf "alignments %d: %s" n (Rlc_errors.Error.code e))
    [ 0; Xtalk.max_alignments + 1; max_int ]

(* A two-net pair coupled far past the budget (the CI gating design): 757 mV
   victims against the default 450 mV budget. *)
let hot_spef =
  let nodes = [ "1"; "2"; "3"; "rcv" ] in
  let net name ~coupled =
    String.concat "\n"
      ([ Printf.sprintf "*D_NET %s 600" name; "*CONN";
         Printf.sprintf "*P %s_drv O" name; Printf.sprintf "*P %s_rcv I" name; "*CAP" ]
      @ List.mapi (fun i n -> Printf.sprintf "%d %s_%s 150" (i + 1) name n) nodes
      @ (if coupled then
           List.mapi (fun i n -> Printf.sprintf "%d a_%s v_%s 100" (i + 5) n n) nodes
         else [])
      @ [ "*RES" ]
      @ List.mapi
          (fun i (x, y) -> Printf.sprintf "%d %s_%s %s_%s 18" (i + 1) name x name y)
          [ ("drv", "1"); ("1", "2"); ("2", "3"); ("3", "rcv") ]
      @ [ "*INDUC" ]
      @ List.mapi
          (fun i (x, y) -> Printf.sprintf "%d %s_%s %s_%s 1100" (i + 1) name x name y)
          [ ("drv", "1"); ("1", "2"); ("2", "3"); ("3", "rcv") ]
      @ [ "*END" ])
  in
  String.concat "\n"
    [ {|*SPEF "IEEE 1481-1998"|}; {|*DESIGN "hot_pair"|}; "*T_UNIT 1 PS"; "*C_UNIT 1 FF";
      "*R_UNIT 1 OHM"; "*L_UNIT 1 PH"; net "a" ~coupled:true; net "v" ~coupled:false; "" ]

let hot_spec = "driver a 75\ndriver v 75\ninput a 100\ninput v 100\n"

(* A NaN or infinite level compares false against every peak, which would
   silently pass a violating design: the analysis rejects it as a bad
   argument (CLI exit 2, wire bad_request), and the wire accepts exactly
   the finite, non-negative levels the analysis accepts -- 0 included. *)
let test_nonfinite_levels_rejected () =
  Session.with_session (fun session ->
      let design =
        match Session.ingest session ~spef:hot_spef ~spec:hot_spec () with
        | Ok d -> d
        | Error e -> failwith (Rlc_errors.Error.message e)
      in
      let flow xtalk =
        Session.flow session
          {
            Session.Request.default with
            Session.Request.xtalk =
              Some { Session.default_xtalk with Session.alignments = 1; budget = xtalk };
          }
          design
      in
      (match flow Session.default_xtalk.Session.budget with
      | Ok { Session.xtalk = Some x; _ } ->
          Alcotest.(check int)
            "default budget: both victims violate" 2 x.Xtalk.stats.Xtalk.n_violations
      | Ok _ -> Alcotest.fail "no xtalk result"
      | Error e -> Alcotest.fail (Rlc_errors.Error.message e));
      List.iter
        (fun budget ->
          match flow budget with
          | Error (Rlc_errors.Error.Bad_request _) -> ()
          | Error e -> Alcotest.failf "budget %g: %s" budget (Rlc_errors.Error.code e)
          | Ok _ -> Alcotest.failf "budget %g accepted" budget)
        [ Float.nan; Float.infinity; -0.1 ]);
  let rejects f = match f () with _ -> false | exception Invalid_argument _ -> true in
  Alcotest.(check bool) "NaN threshold" true
    (rejects (fun () -> analyze_with ~threshold:Float.nan ()));
  Alcotest.(check bool) "infinite threshold" true
    (rejects (fun () -> analyze_with ~threshold:Float.infinity ()));
  Alcotest.(check bool) "NaN budget" true (rejects (fun () -> analyze_with ~budget:Float.nan ()));
  let wire knob value =
    snd
      (Rlc_service.Protocol.parse_request
         (Printf.sprintf {|{"schema":"rlc-service/1","kind":"xtalk","spef":"x","%s":%s}|} knob
            value))
  in
  List.iter
    (fun (knob, value, accepted) ->
      match (wire knob value, accepted) with
      | Ok _, true | Error (Rlc_errors.Error.Bad_request _), false -> ()
      | Ok _, false -> Alcotest.failf "%s %s accepted" knob value
      | Error e, _ -> Alcotest.failf "%s %s: %s" knob value (Rlc_errors.Error.code e))
    [
      ("threshold", "0", true);
      ("budget", "0", true);
      ("budget", "0.25", true);
      ("budget", "1e400", false);
      ("threshold", "-1e400", false);
      ("threshold", "-0.01", false);
    ];
  (* The wire's 0 threshold runs: every pair is simulated. *)
  let r = analyze_with ~threshold:0. () in
  Alcotest.(check int) "threshold 0 screens nothing" 0 r.Xtalk.stats.Xtalk.n_screened

(* ---------------------------------------------------------- rendering *)

(* [%g] prints NaN and infinity bare, which is not JSON: every renderer
   refuses a non-finite number, naming its field, so the daemon answers
   internal instead of sending a malformed payload. *)
let test_nonfinite_rendering_refused () =
  let flow = Lazy.force flow in
  let raises_naming field f =
    match f () with
    | _ -> Alcotest.failf "rendered a non-finite %s" field
    | exception Failure msg ->
        Alcotest.(check bool) (Printf.sprintf "%S names %s" msg field) true (contains msg field)
  in
  let results =
    Array.mapi
      (fun i (nr : Flow.net_result) -> if i = 3 then { nr with Flow.arrival = Float.nan } else nr)
      flow.Flow.results
  in
  let bad = { flow with Flow.results } in
  raises_naming "arrival_ps" (fun () -> Report.json_string bad);
  raises_naming "arrival_ps" (fun () -> Report.csv_string bad);
  let r = Lazy.force analyzed in
  let victims =
    Array.map
      (fun (v : Xtalk.victim_result) ->
        if v.Xtalk.simulated then { v with Xtalk.coupled_delay = Some Float.infinity } else v)
      r.Xtalk.victims
  in
  raises_naming "coupled_delay_ps" (fun () ->
      Xtalk.json_fragment flow.Flow.design { r with Xtalk.victims });
  (* Finite results render as before. *)
  ignore (Report.json_string flow);
  ignore (Xtalk.json_fragment flow.Flow.design r)

let () =
  Alcotest.run "xtalk"
    [
      ( "noise",
        [
          Alcotest.test_case "limits" `Quick test_noise_limits;
          Alcotest.test_case "monotone in cc" `Quick test_noise_monotone_in_cc;
          Alcotest.test_case "bad arguments" `Quick test_noise_bad_args;
        ] );
      ( "screen",
        [
          Alcotest.test_case "calibrated vs transient" `Slow test_screen_vs_simulation;
          Alcotest.test_case "majority screened" `Slow test_bus_screens_majority;
          Alcotest.test_case "threshold extremes" `Quick test_threshold_extremes;
        ] );
      ( "timing",
        [
          Alcotest.test_case "alignment monotone" `Slow test_alignment_monotone;
          Alcotest.test_case "push-out sign" `Slow test_pushout_sign;
        ] );
      ( "gating", [ Alcotest.test_case "budget" `Slow test_violation_budget ] );
      ( "determinism",
        [
          Alcotest.test_case "fragment across jobs" `Slow test_deterministic_across_jobs;
          Alcotest.test_case "classification across jobs" `Slow
            test_screen_classification_deterministic;
          Alcotest.test_case "full report across jobs" `Slow test_full_report_identical_across_jobs;
          Alcotest.test_case "off mode untouched" `Slow test_off_mode_report_untouched;
        ] );
      ( "early stop",
        [
          Alcotest.test_case "random coupled pairs" `Quick test_until_pair;
          Alcotest.test_case "= full-window runs" `Slow test_matches_full_window;
          Alcotest.test_case "unreachable victim named" `Slow test_unreachable_victim_named;
          Alcotest.test_case "unreachable victims in id order" `Slow
            test_unreachable_victims_in_id_order;
          Alcotest.test_case "alignments bounded" `Quick test_alignments_bounded;
        ] );
      ( "screened sweep",
        [
          Alcotest.test_case "= brute force on random clusters" `Quick test_sweep_screen;
          Alcotest.test_case "unreachable victim names the first offset" `Quick
            test_sweep_unreachable;
          Alcotest.test_case "batched sweeps = each alone" `Quick test_sweep_batch;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "xtalk request" `Quick test_protocol_xtalk_request;
          Alcotest.test_case "non-finite levels rejected" `Slow test_nonfinite_levels_rejected;
        ] );
      ( "rendering",
        [
          Alcotest.test_case "non-finite numbers refused" `Slow test_nonfinite_rendering_refused;
        ] );
    ]
