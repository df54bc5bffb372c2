(* Reproduction harness for the paper's evaluation section.

   One entry per table and figure (DESIGN.md §5).  With no arguments it
   regenerates everything — Table 1, the data series behind Figures 1, 3,
   4, 5, 6, the Figure 7 sweep statistics and the ablations.  Pass subsets
   on the command line: table1 fig1 fig3 fig4 fig5 fig6 fig7 ablation
   (plus `fig7-fast' for a subsampled sweep during development).
   Performance is measured by the repository benchmark in benchmark/. *)

open Rlc_ceff
module Waveform = Rlc_waveform.Waveform
module Measure = Rlc_waveform.Measure
module Units = Rlc_num.Units
module Testbench = Rlc_devices.Testbench
module Characterize = Rlc_liberty.Characterize

let dt_fig = 0.25e-12
let dt_sweep = 0.5e-12
let ps = Units.in_ps
let ff = Units.in_ff

let header title =
  Format.printf "@.==================================================================@.";
  Format.printf "%s@." title;
  Format.printf "==================================================================@."

let series name w =
  Format.printf "@.# %s  (columns: time_ps voltage_V)@." name;
  Format.printf "%a" (Waveform.pp_series ~max_rows:70 ~unit_time:1e-12 ~unit_v:1.) w

let clip_to w t_hi = Waveform.clip w ~t_lo:(Waveform.t_start w) ~t_hi

let cell_exn tech ~size =
  match Characterize.cell_res tech ~size with
  | Ok c -> c
  | Error e -> failwith (Rlc_errors.Error.message e)

let model_of (case : Evaluate.case) mode =
  let cell = cell_exn case.Evaluate.tech ~size:case.Evaluate.size in
  Driver_model.model ~mode ~cell ~edge:Measure.Rising ~input_slew:case.Evaluate.input_slew
    ~line:case.Evaluate.line ~cl:case.Evaluate.cl ()

let reference_of ?(dt = dt_fig) (case : Evaluate.case) =
  Reference.simulate ~dt ~tech:case.Evaluate.tech ~size:case.Evaluate.size
    ~input_slew:case.Evaluate.input_slew ~line:case.Evaluate.line ~cl:case.Evaluate.cl ()

(* ---------------------------------------------------------------- fig1 *)

let fig1 () =
  header "Figure 1: driver output waveform of a 5 mm RLC line driven by a 75X inverter";
  let case = Experiments.fig1 in
  let line = case.Evaluate.line in
  Format.printf "line: %a@." Rlc_tline.Line.pp line;
  let r = reference_of case in
  let m = model_of case Driver_model.Auto in
  Format.printf
    "transmission-line theory: initial step f*Vdd = %.2f V (f = %.2f), plateau ends at 2tf = \
     %.1f ps after launch@."
    (m.Driver_model.f *. m.Driver_model.vdd)
    m.Driver_model.f
    (ps (2. *. m.Driver_model.tf));
  series "HSPICE-substitute near end (kinks A-B-C-D of the paper)"
    (clip_to r.Reference.near (Waveform.t_start r.Reference.near +. 600e-12))

(* ---------------------------------------------------------------- fig3 *)

let fig3 () =
  header
    "Figure 3: single-Ceff failure on a 7 mm line (charge to 50% vs charge to 100%)";
  let case = Experiments.fig3 in
  Format.printf "line: %a@." Rlc_tline.Line.pp case.Evaluate.line;
  let m = model_of case Driver_model.Force_two_ramp in
  let cell = cell_exn case.Evaluate.tech ~size:case.Evaluate.size in
  let c50 =
    Driver_model.single_ceff_variant m ~cell ~edge:Measure.Rising
      ~input_slew:case.Evaluate.input_slew ~f:0.5
  in
  let c100 =
    Driver_model.single_ceff_variant m ~cell ~edge:Measure.Rising
      ~input_slew:case.Evaluate.input_slew ~f:1.0
  in
  Format.printf "Ceff(charge to 50%%) = %.1f fF, Ceff(charge to 100%%) = %.1f fF, Ctot = %.1f fF@."
    (ff c50.Driver_model.value) (ff c100.Driver_model.value)
    (ff (Rlc_moments.Pade.total_cap m.Driver_model.pade));
  let r = reference_of case in
  series "actual driver output (RLC load)"
    (clip_to r.Reference.near (Waveform.t_start r.Reference.near +. 700e-12));
  let drive_into_cap c label =
    let tb =
      Testbench.drive ~dt:dt_fig ~t_stop:1.2e-9 ~tech:case.Evaluate.tech
        ~size:case.Evaluate.size ~input_slew:case.Evaluate.input_slew
        ~load:(Testbench.cap_load c) ()
    in
    series label (clip_to tb.Testbench.output 700e-12)
  in
  drive_into_cap c100.Driver_model.value "driver output for Ceff equating charge till 100%";
  drive_into_cap c50.Driver_model.value "driver output for Ceff equating charge till 50%"

(* ---------------------------------------------------------------- fig4 *)

let fig4 () =
  header "Figure 4: two-ramp construction (breakpoint, Tr1, Tr2, plateau stretch)";
  let case = Experiments.fig3 in
  let m = model_of case Driver_model.Force_two_ramp in
  (match m.Driver_model.shape with
  | Driver_model.Two_ramp { ceff1; ceff2; tr2_new; plateau; _ } ->
      Format.printf "breakpoint f = %.3f (Rs = %.1f Ohm, Z0 = %.1f Ohm)@." m.Driver_model.f
        m.Driver_model.rs m.Driver_model.z0;
      Format.printf "Ceff1 = %.1f fF -> Tr1 = %.1f ps (%d iterations)@."
        (ff ceff1.Driver_model.value)
        (ps ceff1.Driver_model.ramp) ceff1.Driver_model.iterations;
      Format.printf "Ceff2 = %.1f fF -> Tr2 = %.1f ps (%d iterations)@."
        (ff ceff2.Driver_model.value)
        (ps ceff2.Driver_model.ramp) ceff2.Driver_model.iterations;
      Format.printf "plateau 2tf - Tr1 = %.1f ps -> Tr2_new = %.1f ps (Eq. 8)@." (ps plateau)
        (ps tr2_new)
  | _ -> assert false);
  let r = reference_of case in
  let model_wave =
    Waveform.shift_time r.Reference.t_in50 (Driver_model.output_waveform ~n:256 m)
  in
  series "actual waveform"
    (clip_to r.Reference.near (Waveform.t_start r.Reference.near +. 700e-12));
  series "proposed two-ramp model (plateau-stretched)" model_wave

(* ---------------------------------------------------------------- fig5 *)

let fig5 () =
  header "Figure 5: two-ramp driver output vs HSPICE substitute";
  List.iter
    (fun case ->
      Format.printf "@.--- %s: %a@." case.Evaluate.label Rlc_tline.Line.pp case.Evaluate.line;
      let r = reference_of case in
      let m = model_of case Driver_model.Force_two_ramp in
      let cmp = Evaluate.run ~dt:dt_fig case in
      Format.printf
        "delay: ref %.2f ps, model %.2f ps (%+.1f%%); slew: ref %.1f ps, model %.1f ps \
         (%+.1f%%)@."
        (ps cmp.Evaluate.reference.Evaluate.delay) (ps cmp.Evaluate.two_ramp.Evaluate.delay)
        (Evaluate.delay_err_pct cmp cmp.Evaluate.two_ramp)
        (ps cmp.Evaluate.reference.Evaluate.slew) (ps cmp.Evaluate.two_ramp.Evaluate.slew)
        (Evaluate.slew_err_pct cmp cmp.Evaluate.two_ramp);
      let model_wave =
        Waveform.shift_time r.Reference.t_in50 (Driver_model.output_waveform ~n:256 m)
      in
      let t0 = Waveform.t_start r.Reference.near in
      Format.printf "waveform fidelity over 500 ps: RMS %.0f mV, max %.0f mV@."
        (Waveform.rms_diff r.Reference.near model_wave ~t0 ~t1:(t0 +. 500e-12) /. 1e-3)
        (Waveform.max_diff r.Reference.near model_wave ~t0 ~t1:(t0 +. 500e-12) /. 1e-3);
      series "reference near end" (clip_to r.Reference.near (t0 +. 500e-12));
      series "two-ramp model" model_wave)
    [ Experiments.fig5a; Experiments.fig5b ]

(* ---------------------------------------------------------------- fig6 *)

let fig6 () =
  header "Figure 6 left: weak driver (25X) - a single ramp suffices";
  let case = Experiments.fig6_left in
  let r = reference_of case in
  let m = model_of case Driver_model.Auto in
  Format.printf "screen: %a@." Screen.pp m.Driver_model.screen;
  Format.printf "%a@." Driver_model.pp m;
  series "reference near end"
    (clip_to r.Reference.near (Waveform.t_start r.Reference.near +. 1000e-12));
  series "one-ramp model"
    (Waveform.shift_time r.Reference.t_in50 (Driver_model.output_waveform ~n:256 m));

  header "Figure 6 right: near and far end, model PWL replayed through the line";
  let case = Experiments.fig6_right in
  let r = reference_of case in
  let m = model_of case Driver_model.Auto in
  let far = Evaluate.run_far ~dt:dt_fig case m in
  Format.printf
    "far-end delay: ref %.2f ps, model %.2f ps; far-end slew: ref %.1f ps, model %.1f ps@."
    (ps far.Evaluate.far_reference.Evaluate.delay) (ps far.Evaluate.far_model.Evaluate.delay)
    (ps far.Evaluate.far_reference.Evaluate.slew) (ps far.Evaluate.far_model.Evaluate.slew);
  let window = Waveform.t_start r.Reference.near +. 500e-12 in
  series "reference near end" (clip_to r.Reference.near window);
  series "reference far end" (clip_to r.Reference.far window);
  series "model near end (two-ramp source)"
    (Waveform.shift_time r.Reference.t_in50 (clip_to far.Evaluate.near_model_wave 470e-12));
  series "model far end (replayed)"
    (Waveform.shift_time r.Reference.t_in50 (clip_to far.Evaluate.far_model_wave 470e-12))

(* -------------------------------------------------------------- table1 *)

let table1 ?(jobs = 1) () =
  header "Table 1: HSPICE vs one-ramp vs two-ramp (paper numbers in brackets)";
  Format.printf
    "%-18s | %-17s | %-16s | %-8s | %-16s | %-17s | %-16s | %-8s | %-16s@." "case"
    "ref delay [paper]" "2r err% [paper]" "2rF err%" "1r err% [paper]" "ref slew [paper]"
    "2r err% [paper]" "2rF err%" "1r err% [paper]";
  let acc = Array.make 6 0. in
  let n = List.length Experiments.table1 in
  (* Evaluate the rows on the pool; print (and accumulate) sequentially in
     row order afterwards so the output is identical for every [jobs].
     The rows' cells are characterized on the same pool first, one after
     another, so the rows find them stored. *)
  let cases = Array.of_list (List.map Experiments.case_of_row Experiments.table1) in
  let cmps =
    Rlc_parallel.Pool.with_pool ~jobs (fun pool ->
        Array.iter
          (fun (c : Evaluate.case) ->
            ignore (Characterize.cell_res ~pool c.Evaluate.tech ~size:c.Evaluate.size))
          cases;
        Rlc_parallel.Pool.map pool (Array.length cases) (fun i ->
            Evaluate.run ~dt:dt_sweep cases.(i)))
  in
  List.iteri
    (fun idx row ->
      let cmp = cmps.(idx) in
      let d2 = Evaluate.delay_err_pct cmp cmp.Evaluate.two_ramp in
      let d2f = Evaluate.delay_err_pct cmp cmp.Evaluate.two_ramp_flat in
      let d1 = Evaluate.delay_err_pct cmp cmp.Evaluate.one_ramp in
      let s2 = Evaluate.slew_err_pct cmp cmp.Evaluate.two_ramp in
      let s2f = Evaluate.slew_err_pct cmp cmp.Evaluate.two_ramp_flat in
      let s1 = Evaluate.slew_err_pct cmp cmp.Evaluate.one_ramp in
      List.iteri (fun i v -> acc.(i) <- acc.(i) +. Float.abs v) [ d2; d2f; d1; s2; s2f; s1 ];
      Format.printf
        "%-18s | %7.2f [%6.2f] | %+6.1f [%+6.1f] | %+7.1f  | %+6.1f [%+6.1f] | %7.1f \
         [%6.1f] | %+6.1f [%+6.1f] | %+7.1f  | %+6.1f [%+6.1f]@."
        row.Experiments.row_label
        (ps cmp.Evaluate.reference.Evaluate.delay)
        row.Experiments.paper_delay_ps d2 row.Experiments.paper_delay_2r_err d2f d1
        row.Experiments.paper_delay_1r_err
        (ps cmp.Evaluate.reference.Evaluate.slew)
        row.Experiments.paper_slew_ps s2 row.Experiments.paper_slew_2r_err s2f s1
        row.Experiments.paper_slew_1r_err)
    Experiments.table1;
  let fn = float_of_int n in
  Format.printf
    "@.average |error| over the 15 rows:@.  delay: 2-ramp(Eq.8) %.1f%%, 2-ramp(flat) %.1f%%, \
     1-ramp %.1f%%@.  slew : 2-ramp(Eq.8) %.1f%%, 2-ramp(flat) %.1f%%, 1-ramp %.1f%%@."
    (acc.(0) /. fn) (acc.(1) /. fn) (acc.(2) /. fn) (acc.(3) /. fn) (acc.(4) /. fn)
    (acc.(5) /. fn);
  Format.printf
    "shape check: one-ramp delay errors large and positive, one-ramp slew errors large and \
     negative; both two-ramp variants remove most of the error (the flat-step plateau fits \
     this substrate's waveforms best).@."

(* ---------------------------------------------------------------- fig7 *)

let fig7 ?(stride = 1) ?(jobs = 1) () =
  header "Figure 7: model vs reference scatter over the full sweep";
  let cases = Experiments.sweep_cases () in
  let cases = List.filteri (fun i _ -> i mod stride = 0) cases in
  Format.printf
    "grid: %d cases (lengths 1-7 mm, widths 0.8-3.5 um, drivers 25X-125X, slews 50-200 ps)%s%s@."
    (List.length cases)
    (if stride > 1 then Printf.sprintf " [stride %d]" stride else "")
    (if jobs > 1 then Printf.sprintf " [jobs %d]" jobs else "");
  let stats =
    Experiments.run_sweep ~dt:dt_sweep ~jobs
      ~progress:(fun k n -> if k mod 50 = 0 || k = n then Printf.eprintf "  fig7: %d/%d\n%!" k n)
      cases
  in
  let row (e : Experiments.error_stats) =
    [
      float_of_int stats.Experiments.n_inductive;
      e.Experiments.avg_abs_delay_err;
      e.Experiments.avg_abs_slew_err;
      e.Experiments.delay_within_5;
      e.Experiments.delay_within_10;
      e.Experiments.slew_within_5;
      e.Experiments.slew_within_10;
    ]
  in
  Format.printf "@.%-34s %12s %12s %12s@." "statistic" "paper" "Eq.8 stretch" "flat step";
  List.iteri
    (fun i (label, paper) ->
      Format.printf "%-34s %12.1f %12.1f %12.1f@." label paper
        (List.nth (row stats.Experiments.stretch) i)
        (List.nth (row stats.Experiments.flat) i))
    Experiments.paper_fig7_stats;
  (* The paper observed inductive effects "particularly significant in long
     (>= 3 mm) and wider wires"; report that subset separately, where the
     marginal short-line cases do not dilute the statistics. *)
  let long_points =
    List.filter
      (fun p -> p.Experiments.point_case.Evaluate.line.Rlc_tline.Line.length >= 2.9e-3)
      stats.Experiments.points
  in
  let long_stretch =
    Experiments.stats_of_points
      ~delay:(fun p -> p.Experiments.delay_err_pct)
      ~slew:(fun p -> p.Experiments.slew_err_pct)
      long_points
  in
  let long_flat =
    Experiments.stats_of_points
      ~delay:(fun p -> p.Experiments.flat_delay_err_pct)
      ~slew:(fun p -> p.Experiments.flat_slew_err_pct)
      long_points
  in
  Format.printf
    "@.subset len >= 3 mm: %d cases; stretch avg |delay| %.1f%% |slew| %.1f%%; flat avg \
     |delay| %.1f%% |slew| %.1f%%@."
    (List.length long_points) long_stretch.Experiments.avg_abs_delay_err
    long_stretch.Experiments.avg_abs_slew_err long_flat.Experiments.avg_abs_delay_err
    long_flat.Experiments.avg_abs_slew_err;
  (* Sensitivity to the screen margin: Eq. 9 admits breakpoints barely above
     0.5 (Rs just under Z0), where the 50% delay anchor on ramp 1 is
     fragile; tightening Rs/Z0 concentrates on confidently inductive nets. *)
  List.iter
    (fun margin ->
      let subset =
        List.filter
          (fun p -> p.Experiments.screen.Screen.rs_over_z0 < margin)
          stats.Experiments.points
      in
      let st =
        Experiments.stats_of_points
          ~delay:(fun p -> p.Experiments.delay_err_pct)
          ~slew:(fun p -> p.Experiments.flat_slew_err_pct)
          subset
      in
      Format.printf
        "subset Rs/Z0 < %.2f: %4d cases; avg |delay err| %5.1f%%, avg |slew err (flat)| \
         %5.1f%%; delay <10%%: %.0f%%@."
        margin (List.length subset) st.Experiments.avg_abs_delay_err
        st.Experiments.avg_abs_slew_err st.Experiments.delay_within_10)
    [ 1.0; 0.85; 0.7 ];
  Format.printf
    "@.# scatter points (columns: ref_delay_ps model_delay_ps ref_slew_ps model_slew_ps  \
     label)@.";
  List.iter
    (fun p ->
      Format.printf "%8.2f %8.2f %8.1f %8.1f  %s@." (ps p.Experiments.ref_delay)
        (ps p.Experiments.model_delay) (ps p.Experiments.ref_slew) (ps p.Experiments.model_slew)
        p.Experiments.point_case.Evaluate.label)
    stats.Experiments.points

(* ------------------------------------------------------------ ablation *)

let ablation () =
  header "Ablation A: plateau treatment (Eq. 8 stretch vs explicit flat step)";
  (* The paper claims the Tr2 stretch "works better for most cases" because
     real plateaus smear out; quantify over the Table 1 rows. *)
  let acc = Hashtbl.create 4 in
  let add key v =
    let sum, n = Option.value (Hashtbl.find_opt acc key) ~default:(0., 0) in
    Hashtbl.replace acc key (Float.abs v +. sum, n + 1)
  in
  List.iter
    (fun row ->
      let case = Experiments.case_of_row row in
      let r = reference_of ~dt:dt_sweep case in
      let ref_slew = Reference.near_slew r and ref_delay = Reference.near_delay r in
      let cell = cell_exn case.Evaluate.tech ~size:case.Evaluate.size in
      List.iter
        (fun (tag, plateau) ->
          let m =
            Driver_model.model ~mode:Driver_model.Force_two_ramp ~plateau ~cell
              ~edge:Measure.Rising ~input_slew:case.Evaluate.input_slew ~line:case.Evaluate.line
              ~cl:case.Evaluate.cl ()
          in
          add (tag ^ " slew")
            (Measure.pct_error ~actual:ref_slew ~model:(Driver_model.model_slew_10_90 m));
          add (tag ^ " delay")
            (Measure.pct_error ~actual:ref_delay ~model:(Driver_model.model_delay m)))
        [ ("stretch", Driver_model.Stretch_tr2); ("flat-step", Driver_model.Flat_step) ])
    Experiments.table1;
  Hashtbl.iter
    (fun key (sum, n) -> Format.printf "  avg |%s err| = %.1f%% (%d rows)@." key (sum /. float_of_int n) n)
    acc;

  header "Ablation B: gate-resistor tail (reference [11]) on an RC-screened case";
  let case = Experiments.fig6_left in
  let r = reference_of ~dt:dt_sweep case in
  let cell = cell_exn case.Evaluate.tech ~size:case.Evaluate.size in
  List.iter
    (fun (tag, rc_tail) ->
      let m =
        Driver_model.model ~rc_tail ~cell ~edge:Measure.Rising
          ~input_slew:case.Evaluate.input_slew ~line:case.Evaluate.line ~cl:case.Evaluate.cl ()
      in
      Format.printf "  %-14s delay %+6.1f%%  slew %+6.1f%%@." tag
        (Measure.pct_error ~actual:(Reference.near_delay r) ~model:(Driver_model.model_delay m))
        (Measure.pct_error ~actual:(Reference.near_slew r)
           ~model:(Driver_model.model_slew_10_90 m)))
    [ ("pure ramp", false); ("ramp + tail", true) ];

  header "Ablation C: screening on driver-output Tr1 (paper) vs input slew (Ismail et al.)";
  let cases = Experiments.sweep_cases () in
  let both =
    List.filter_map
      (fun (case : Evaluate.case) ->
        match
          let cell = cell_exn case.Evaluate.tech ~size:case.Evaluate.size in
          let m =
            Driver_model.model ~cell ~edge:Measure.Rising ~input_slew:case.Evaluate.input_slew
              ~line:case.Evaluate.line ~cl:case.Evaluate.cl ()
          in
          let input_based =
            Screen.evaluate_input_slew ~line:case.Evaluate.line ~cl:case.Evaluate.cl
              ~rs:m.Driver_model.rs ~input_slew:case.Evaluate.input_slew
          in
          (case, m.Driver_model.screen.Screen.significant, input_based.Screen.significant)
        with
        | v -> Some v
        | exception _ -> None)
      cases
  in
  let count f = List.length (List.filter f both) in
  Format.printf "  cases: %d; output-based inductive: %d; input-based inductive: %d@."
    (List.length both)
    (count (fun (_, o, _) -> o))
    (count (fun (_, _, i) -> i));
  Format.printf "  disagreements: %d (output says inductive, input says RC: %d; converse: %d)@."
    (count (fun (_, o, i) -> o <> i))
    (count (fun (_, o, i) -> o && not i))
    (count (fun (_, o, i) -> i && not o));
  (* Sample a few disagreement cases and show the one-ramp slew error the
     input-based screen would have silently accepted. *)
  let disagreements =
    List.filteri (fun k _ -> k < 5)
      (List.filter_map (fun (c, o, i) -> if o && not i then Some c else None) both)
  in
  List.iter
    (fun case ->
      let cmp = Evaluate.run ~dt:dt_sweep case in
      Format.printf
        "    %-22s one-ramp slew err %+.1f%% (two-ramp %+.1f%%) - inductive despite slow input@."
        case.Evaluate.label
        (Evaluate.slew_err_pct cmp cmp.Evaluate.one_ramp)
        (Evaluate.slew_err_pct cmp cmp.Evaluate.two_ramp))
    disagreements;

  header "Ablation E: reduced-order admittance beyond the paper's q = 2 (AWE, ref [10])";
  let line7 = Experiments.fig3.Evaluate.line in
  let cl7 = Experiments.fig3.Evaluate.cl in
  let s_test = Rlc_num.Cx.make 0. (2. *. Float.pi *. 3e9) in
  let exact = Rlc_tline.Abcd.input_admittance line7 ~cl:cl7 s_test in
  List.iter
    (fun q ->
      let awe = Rlc_moments.Awe.of_line ~q line7 ~cl:cl7 in
      let err =
        Rlc_num.Cx.norm Rlc_num.Cx.(Rlc_moments.Awe.eval awe s_test -: exact)
        /. Rlc_num.Cx.norm exact
      in
      Format.printf "  q=%d: |Y_fit - Y_exact|/|Y| at 3 GHz = %.4f, %s@." q err
        (if Rlc_moments.Awe.is_stable awe then "stable"
         else "UNSTABLE (classic AWE pathology; cf. paper Sec. 1 and ref [6])"))
    [ 1; 2; 3; 4 ];

  header "Ablation D: reference-simulation numerics (ladder refinement, integrator)";
  let case = Experiments.fig1 in
  List.iter
    (fun n ->
      let r =
        Reference.simulate ~dt:dt_sweep ~n_segments:n ~tech:case.Evaluate.tech
          ~size:case.Evaluate.size ~input_slew:case.Evaluate.input_slew ~line:case.Evaluate.line
          ~cl:case.Evaluate.cl ()
      in
      Format.printf "  %3d segments: near delay %.2f ps, slew %.1f ps@." n
        (ps (Reference.near_delay r))
        (ps (Reference.near_slew r)))
    [ 25; 50; 100; 200 ]

(* ---------------------------------------------------------------- main *)

let () =
  let all = [ "table1"; "fig1"; "fig3"; "fig4"; "fig5"; "fig6"; "fig7"; "ablation" ] in
  (* The only flag, --jobs N (or `auto'), fans table1 and fig7 out over a
     domain pool; their output is identical for every N. *)
  let jobs_arg = ref 1 in
  let rec parse acc = function
    | [] -> List.rev acc
    | "--jobs" :: n :: rest ->
        (match n with
        | "auto" -> jobs_arg := Rlc_parallel.Pool.default_jobs ()
        | _ -> (
            match int_of_string_opt n with
            | Some j when j >= 1 -> jobs_arg := j
            | _ ->
                Format.eprintf "--jobs expects a positive integer or `auto', got %S@." n;
                exit 2));
        parse acc rest
    | x :: rest -> parse (x :: acc) rest
  in
  let requested = parse [] (List.tl (Array.to_list Sys.argv)) in
  let requested = match requested with [] -> all | r -> r in
  List.iter
    (fun name ->
      match name with
      | "table1" -> table1 ~jobs:!jobs_arg ()
      | "fig1" -> fig1 ()
      | "fig3" -> fig3 ()
      | "fig4" -> fig4 ()
      | "fig5" -> fig5 ()
      | "fig6" -> fig6 ()
      | "fig7" -> fig7 ~jobs:!jobs_arg ()
      | "fig7-fast" -> fig7 ~stride:7 ~jobs:!jobs_arg ()
      | "ablation" -> ablation ()
      | other ->
          Format.eprintf "unknown experiment %S (known: %s, fig7-fast; flag: --jobs N)@." other
            (String.concat ", " all);
          exit 2)
    requested
