(* Benchmark / reproduction harness.

   One entry per table and figure of the paper's evaluation section
   (DESIGN.md §5).  With no arguments it regenerates everything — Table 1,
   the data series behind Figures 1, 3, 4, 5, 6 and the Figure 7 sweep
   statistics — and then runs the Bechamel performance suite.  Pass subsets
   on the command line: table1 fig1 fig3 fig4 fig5 fig6 fig7 perf
   (plus `fig7-fast` for a subsampled sweep during development). *)

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
     row order afterwards so the output is identical for every [jobs]. *)
  let rows = Array.of_list Experiments.table1 in
  let cmps =
    Rlc_parallel.Pool.with_pool ~jobs (fun pool ->
        Rlc_parallel.Pool.map pool (Array.length rows) (fun i ->
            Evaluate.run ~dt:dt_sweep (Experiments.case_of_row rows.(i))))
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
              ~rs:m.Driver_model.rs ~input_slew:case.Evaluate.input_slew ()
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

(* ---------------------------------------------------------------- perf *)

let perf () =
  header "Bechamel performance suite (model stages)";
  let open Bechamel in
  let open Toolkit in
  let line = Rlc_tline.Line.of_totals ~r:72.44 ~l:5.14e-9 ~c:1.10e-12 ~length:5e-3 in
  let cl = 20e-15 in
  let pade = Rlc_moments.Pade.of_load line ~cl in
  let tech = Rlc_devices.Tech.c018 in
  let cell = cell_exn tech ~size:75. in
  let lib_text =
    Rlc_liberty.Liberty_ast.to_string
      (Rlc_liberty.Liberty_io.library_of_cells ~name:"perf" [ cell ])
  in
  let tests =
    [
      Test.make ~name:"moments+pade-fit (distributed line)"
        (Staged.stage (fun () -> ignore (Rlc_moments.Pade.of_load line ~cl)));
      Test.make ~name:"ceff1 closed form"
        (Staged.stage (fun () -> ignore (Ceff.first_ramp pade ~f:0.6 ~tr:100e-12)));
      Test.make ~name:"ceff2 closed form"
        (Staged.stage (fun () -> ignore (Ceff.second_ramp pade ~f:0.6 ~tr1:70e-12 ~tr2:200e-12)));
      Test.make ~name:"full model flow (cached tables)"
        (Staged.stage (fun () ->
             ignore
               (Driver_model.model ~cell ~edge:Rlc_waveform.Measure.Rising ~input_slew:100e-12
                  ~line ~cl ())));
      Test.make ~name:"liberty parse (1 cell)"
        (Staged.stage (fun () -> ignore (Rlc_liberty.Liberty_ast.parse lib_text)));
      Test.make ~name:"tridiagonal solve n=400"
        (Staged.stage (fun () ->
             let n = 400 in
             let t = Rlc_num.Tridiag.create n in
             for i = 0 to n - 1 do
               t.Rlc_num.Tridiag.diag.(i) <- 4.;
               if i > 0 then t.Rlc_num.Tridiag.lower.(i) <- -1.;
               if i < n - 1 then t.Rlc_num.Tridiag.upper.(i) <- -1.
             done;
             ignore (Rlc_num.Tridiag.solve t (Array.make n 1.))));
      Test.make ~name:"transient RC 1000 steps"
        (Staged.stage (fun () ->
             let nl = Rlc_circuit.Netlist.create () in
             let src = Rlc_circuit.Netlist.node nl "src" in
             Rlc_circuit.Netlist.force_voltage nl src (fun t -> if t <= 0. then 0. else 1.);
             let out = Rlc_circuit.Netlist.node nl "out" in
             Rlc_circuit.Netlist.resistor nl src out 1e3;
             Rlc_circuit.Netlist.capacitor nl out Rlc_circuit.Netlist.ground 1e-12;
             ignore (Rlc_circuit.Engine.transient ~dt:1e-12 ~t_stop:1e-9 nl)));
    ]
  in
  let grouped = Test.make_grouped ~name:"rlc_timing" tests in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:true () in
  let raw = Benchmark.all cfg instances grouped in
  let results = List.map (fun i -> Analyze.all ols i raw) instances in
  let merged = Analyze.merge ols instances results in
  Hashtbl.iter
    (fun measure per_test ->
      Format.printf "@.measure: %s (ns/run)@." measure;
      let rows = Hashtbl.fold (fun name r acc -> (name, r) :: acc) per_test [] in
      List.iter
        (fun (name, r) ->
          let est =
            match Analyze.OLS.estimates r with
            | Some [ e ] -> Printf.sprintf "%14.1f" e
            | _ -> "           n/a"
          in
          Format.printf "  %-50s %s@." name est)
        (List.sort compare rows))
    merged

(* ---------------------------------------------------------------- flow *)

(* One global bus-bit parasitic block, [cap] femtofarads per node — also
   the replacement-block generator for the ECO delta measurements. *)
let bus_bit_block ~bit ~cap =
  Printf.sprintf
    "*D_NET %s %d\n*CONN\n*P %s_drv O\n*P %s_rcv I\n*CAP\n1 %s_1 %d\n2 %s_2 %d\n3 %s_rcv \
     %d\n*RES\n1 %s_drv %s_1 24\n2 %s_1 %s_2 24\n3 %s_2 %s_rcv 24\n*INDUC\n1 %s_drv %s_1 \
     1500\n2 %s_1 %s_2 1500\n3 %s_2 %s_rcv 1500\n*END\n"
    bit (3 * cap) bit bit bit cap bit cap bit cap bit bit bit bit bit bit bit bit bit bit bit
    bit

(* Synthetic W-bit bus: W identical inductive global bits, each feeding an
   identical local net — the repeated-bus-bit shape the flow's result cache
   is built for.  [cap_of] perturbs the per-bit node capacitance (default
   uniform 200 fF); the ECO bench uses it to make every net's cache key
   distinct, so a cold load prices one real solve per net. *)
let flow_sources ?(cap_of = fun _ -> 200) ~bits () =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    "*SPEF \"IEEE 1481-1998\"\n*DESIGN \"bench_bus\"\n*T_UNIT 1 PS\n*C_UNIT 1 FF\n*R_UNIT 1 \
     OHM\n*L_UNIT 1 PH\n";
  let spec = Buffer.create 1024 in
  for i = 0 to bits - 1 do
    let bit = Printf.sprintf "b%d" i and out = Printf.sprintf "o%d" i in
    Buffer.add_string buf (bus_bit_block ~bit ~cap:(cap_of i));
    Buffer.add_string buf
      (Printf.sprintf
         "*D_NET %s 90\n*CONN\n*P %s_drv O\n*P %s_rcv I\n*CAP\n1 %s_1 45\n2 %s_rcv \
          45\n*RES\n1 %s_drv %s_1 60\n2 %s_1 %s_rcv 60\n*END\n"
         out out out out out out out out out);
    Buffer.add_string spec
      (Printf.sprintf
         "driver %s 75\ninput %s 100\ndriver %s 50\nedge %s %s_rcv %s\nload %s %s_rcv 5\n" bit
         bit out bit bit out out out)
  done;
  (Buffer.contents buf, Buffer.contents spec)

let flow_design ~bits =
  let spef_src, spec_src = flow_sources ~bits () in
  let spef = Result.get_ok (Rlc_spef.Spef.parse_res spef_src) in
  let spec = Result.get_ok (Rlc_flow.Spec.parse_res spec_src) in
  match Rlc_flow.Design.ingest ~spef ~spec () with Ok d -> d | Error e -> failwith e

(* All bench flow runs go through the Config record. *)
let flow_run ?(jobs = 1) ?(use_cache = true) ?cache design =
  let cfg =
    { Rlc_flow.Flow.Config.default with Rlc_flow.Flow.Config.jobs = Some jobs; use_cache; cache }
  in
  Rlc_flow.Flow.run_cfg cfg design

let flow_bench () =
  header "Flow: parallel full-design timing (cache effect, domain scaling, determinism)";
  let bits = 16 in
  let design = flow_design ~bits in
  Format.printf "%a@." Rlc_flow.Design.pp design;
  (* Pre-characterize so the wall times below measure the solves, not the
     one-off transistor-level cell characterization. *)
  List.iter
    (fun size -> ignore (cell_exn design.Rlc_flow.Design.tech ~size))
    design.Rlc_flow.Design.sizes;
  let time f =
    let t0 = Unix.gettimeofday () in
    let v = f () in
    (v, Unix.gettimeofday () -. t0)
  in
  let iters (r : Rlc_flow.Flow.result) = r.Rlc_flow.Flow.stats.Rlc_flow.Flow.iterations_spent in
  let total (r : Rlc_flow.Flow.result) = r.Rlc_flow.Flow.stats.Rlc_flow.Flow.iterations_total in

  Format.printf "@.# Ceff fixed-point iterations actually run (%d-bit bus, 2 levels)@." bits;
  let no_cache, t_nc = time (fun () -> flow_run ~use_cache:false design) in
  Format.printf "  no cache        : %5d iterations  (%6.1f ms)@." (iters no_cache)
    (1e3 *. t_nc);
  let cache = Rlc_flow.Flow.create_cache () in
  let cold, t_cold = time (fun () -> flow_run ~cache design) in
  Format.printf "  cold cache      : %5d iterations  (%6.1f ms)  [%d misses, %d hits]@."
    (iters cold) (1e3 *. t_cold) cold.Rlc_flow.Flow.stats.Rlc_flow.Flow.cache_misses
    cold.Rlc_flow.Flow.stats.Rlc_flow.Flow.cache_hits;
  let warm, t_warm = time (fun () -> flow_run ~cache design) in
  Format.printf "  warm cache      : %5d iterations  (%6.1f ms)  [%d hits]@." (iters warm)
    (1e3 *. t_warm) warm.Rlc_flow.Flow.stats.Rlc_flow.Flow.cache_hits;
  Format.printf "  cache speedup   : %.1fx fewer iterations cold (%d -> %d of %d modeled)@."
    (float_of_int (iters no_cache) /. float_of_int (Int.max 1 (iters cold)))
    (iters no_cache) (iters cold) (total cold);

  let rec_jobs = Rlc_parallel.Pool.default_jobs () in
  Format.printf "@.# domain scaling (cold, no cache, wall time; %d core%s recommended)@."
    rec_jobs
    (if rec_jobs = 1 then " — expect oversubscription to hurt, not help" else "s");
  let base = ref 0. in
  List.iter
    (fun jobs ->
      let _, t = time (fun () -> flow_run ~jobs ~use_cache:false design) in
      if jobs = 1 then base := t;
      Format.printf "  jobs %2d: %7.1f ms  (speedup %.2fx)@." jobs (1e3 *. t) (!base /. t))
    (List.sort_uniq compare [ 1; 2; rec_jobs ]);

  let r1 = flow_run design in
  let rn = flow_run ~jobs:(Rlc_parallel.Pool.default_jobs ()) design in
  Format.printf "@.# determinism: JSON report byte-identical jobs 1 vs %d: %b@."
    (Rlc_parallel.Pool.default_jobs ())
    (Rlc_flow.Report.json_string r1 = Rlc_flow.Report.json_string rn)

(* -------------------------------------------------------------- engine *)

(* Perf trajectory for the factor-once transient engine.  Three comparators
   per circuit:
     fast   - current engine (assemble + factor once, per-step RHS rebuild)
     naive  - current engine forced to reassemble and refactor every step
     pre_pr - the seed engine and banded solver, vendored verbatim in
              bench/pre_pr_engine.ml, i.e. the true pre-PR baseline
   plus the LTE-adaptive stepper against fixed-step on the same circuits and
   on the subsampled sweep, the per-step Banded stage costs, and the
   fig7-fast sweep wall time at jobs 1 vs N (clamped to the core count).
   `--json PATH` writes the numbers as BENCH_engine.json. *)

module Netlist = Rlc_circuit.Netlist
module Engine = Rlc_circuit.Engine

(* 25 ps linear rise into the ladders.  A finite edge (like every driver
   waveform in the repo) rather than an ideal step: a zero-rise-time step
   into a low-loss LC ladder keeps a discontinuous wavefront bouncing
   end-to-end, which pins any error-controlled stepper at dt_min and
   benchmarks a workload the timer never sees. *)
let ramp_rise = 25e-12
let ramp_source t = if t <= 0. then 0. else if t >= ramp_rise then 1. else t /. ramp_rise

let rc_1r1c () =
  let nl = Netlist.create () in
  let src = Netlist.node nl "src" in
  Netlist.force_voltage nl src ramp_source;
  let out = Netlist.node nl "out" in
  Netlist.resistor nl src out 1e3;
  Netlist.capacitor nl out Netlist.ground 1e-12;
  (nl, out)

let rc_ladder ~n () =
  let nl = Netlist.create () in
  let src = Netlist.node nl "src" in
  Netlist.force_voltage nl src ramp_source;
  let prev = ref src in
  for i = 1 to n do
    let nd = Netlist.node nl (Printf.sprintf "n%d" i) in
    Netlist.resistor nl !prev nd 10.;
    Netlist.capacitor nl nd Netlist.ground 10e-15;
    prev := nd
  done;
  (nl, !prev)

let rlc_ladder ~n () =
  (* 5 mm-class global line split into n series R-L segments with shunt C. *)
  let nl = Netlist.create () in
  let src = Netlist.node nl "src" in
  Netlist.force_voltage nl src ramp_source;
  let fn = float_of_int n in
  let prev = ref src in
  for i = 1 to n do
    let mid = Netlist.node nl (Printf.sprintf "m%d" i) in
    let nd = Netlist.node nl (Printf.sprintf "n%d" i) in
    Netlist.resistor nl !prev mid (72.44 /. fn);
    Netlist.inductor nl mid nd (5.14e-9 /. fn);
    Netlist.capacitor nl nd Netlist.ground (1.10e-12 /. fn);
    prev := nd
  done;
  (nl, !prev)

let time_per_run ?(target = 0.3) f =
  (* Batched timing: one warm-up call, then a calibration call sizes batches
     of >= ~20 ms so the clock reads never dominate. *)
  f ();
  let t1 = Unix.gettimeofday () in
  f ();
  let once = Unix.gettimeofday () -. t1 in
  let batch = Int.max 1 (int_of_float (0.02 /. Float.max 1e-9 once)) in
  let reps = ref 0 and elapsed = ref 0. in
  let t0 = Unix.gettimeofday () in
  while !elapsed < target do
    for _ = 1 to batch do
      f ()
    done;
    reps := !reps + batch;
    elapsed := Unix.gettimeofday () -. t0
  done;
  !elapsed /. float_of_int !reps

let best_of ?(n = 3) measure =
  (* Minimum over n independent measurements: on shared/virtualized hosts
     the min is the least-interfered estimate. *)
  let best = ref infinity in
  for _ = 1 to n do
    best := Float.min !best (measure ())
  done;
  !best

let max_dv wa wb =
  let va = Waveform.values wa and vb = Waveform.values wb in
  let m = ref 0. in
  Array.iteri (fun i v -> m := Float.max !m (Float.abs (v -. vb.(i)))) va;
  !m

type engine_row = {
  er_name : string;
  er_steps : int;
  er_fast_ns : float;
  er_naive_ns : float;
  er_pre_pr_ns : float;
  er_dv_naive : float;
  er_dv_pre_pr : float;
  (* Stage metrics from one instrumented run (Rlc_obs sink): where a single
     transient spends its time, and how much Newton work it does. *)
  er_compile_s : float;
  er_factor_s : float;
  er_step_loop_s : float;
  er_newton_iters : int;
}

type adaptive_row = {
  ar_name : string;
  ar_fixed_steps : int;
  ar_adaptive_steps : int;
  ar_fixed_ns : float;
  ar_adaptive_ns : float;
  ar_refactors : int;
  ar_rejected : int;
  ar_max_dv : float;
  ar_delay_delta_ps : float;
  ar_slew_delta_ps : float;
}

let engine_bench ?(jobs = 1) ?(smoke = false) ?json () =
  header "Engine: factor-once transient vs per-step reassembly vs pre-PR seed engine";
  let target = if smoke then 0.05 else 0.3 in
  (* Five rounds per comparator in full mode: run-to-run variance on shared
     hosts is large and the min-estimator needs the extra draws to settle. *)
  let rounds = if smoke then 1 else 5 in
  let circuits =
    [
      ("rc_1r1c_1000steps", rc_1r1c (), 1e-12, 1e-9);
      ("rc_ladder100_1000steps", rc_ladder ~n:100 (), 1e-12, 1e-9);
      ("rlc_ladder100_2000steps", rlc_ladder ~n:100 (), 0.5e-12, 1e-9);
    ]
  in
  Format.printf "@.%-26s %6s %12s %12s %12s %8s %8s %11s@." "circuit" "steps" "fast ns/run"
    "naive ns/run" "prePR ns/run" "vs naive" "vs prePR" "steps/s";
  let rows =
    List.map
      (fun (name, (nl, probe), dt, t_stop) ->
        let fast = Engine.transient ~dt ~t_stop nl in
        (* One instrumented run per circuit: the Rlc_obs spans split the wall
           time into compile / factor / step-loop, and the counters give the
           Newton iteration budget.  Timed runs below stay uninstrumented
           (Obs.null) so the ns/run numbers are untouched. *)
        let stage_obs = Rlc_obs.Obs.create () in
        ignore (Engine.transient ~obs:stage_obs ~dt ~t_stop nl);
        let stage_m = Rlc_obs.Obs.snapshot stage_obs in
        let span name = snd (Rlc_obs.Obs.span_total stage_m name) in
        let compile_s = span "engine.compile" in
        let factor_s = span "engine.factor" in
        let step_loop_s = span "engine.step_loop" in
        let newton_iters = Rlc_obs.Obs.counter stage_m "engine.newton_iters" in
        let naive = Engine.transient ~reassemble_per_step:true ~dt ~t_stop nl in
        let pre = Pre_pr_engine.transient ~dt ~t_stop nl in
        let dv_naive = max_dv (Engine.voltage fast probe) (Engine.voltage naive probe) in
        let dv_pre = max_dv (Engine.voltage fast probe) (Pre_pr_engine.voltage pre probe) in
        let t_fast =
          best_of ~n:rounds (fun () ->
              time_per_run ~target (fun () -> ignore (Engine.transient ~dt ~t_stop nl)))
        in
        let t_naive =
          best_of ~n:rounds (fun () ->
              time_per_run ~target (fun () ->
                  ignore (Engine.transient ~reassemble_per_step:true ~dt ~t_stop nl)))
        in
        let t_pre =
          best_of ~n:rounds (fun () ->
              time_per_run ~target (fun () -> ignore (Pre_pr_engine.transient ~dt ~t_stop nl)))
        in
        let steps = Engine.steps fast in
        Format.printf "%-26s %6d %12.0f %12.0f %12.0f %7.2fx %7.2fx %11.0f@." name steps
          (1e9 *. t_fast) (1e9 *. t_naive) (1e9 *. t_pre) (t_naive /. t_fast) (t_pre /. t_fast)
          (float_of_int steps /. t_fast);
        Format.printf "%-26s max |dv| vs naive %.3e V, vs prePR %.3e V@." "" dv_naive dv_pre;
        Format.printf
          "%-26s stages: compile %.0f us, factor %.0f us, step loop %.0f us (%d Newton iters)@."
          "" (1e6 *. compile_s) (1e6 *. factor_s) (1e6 *. step_loop_s) newton_iters;
        {
          er_name = name;
          er_steps = steps;
          er_fast_ns = 1e9 *. t_fast;
          er_naive_ns = 1e9 *. t_naive;
          er_pre_pr_ns = 1e9 *. t_pre;
          er_dv_naive = dv_naive;
          er_dv_pre_pr = dv_pre;
          er_compile_s = compile_s;
          er_factor_s = factor_s;
          er_step_loop_s = step_loop_s;
          er_newton_iters = newton_iters;
        })
      circuits
  in

  (* Adaptive vs fixed on the same circuits.  dt_min is pinned to the fixed
     dt, so the comparison is pure step economy: the LTE controller may only
     coarsen, never out-resolve the fixed grid.  Accuracy is scored where
     timing is measured — 50 % delay and 10–90 slew at the probe — plus the
     max |dv| over a dense resample of the common window. *)
  let ltol_default = (Engine.default_adaptive ()).Engine.ltol in
  Format.printf "@.adaptive stepping (ltol %g, dt_min = fixed dt):@." ltol_default;
  Format.printf "%-26s %7s %7s %7s %9s %8s %7s %7s %10s %10s@." "circuit" "f-steps" "a-steps"
    "ratio" "speedup" "refact" "reject" "|dv|mV" "d50 ps" "slew ps";
  let adaptive_rows =
    List.map2
      (fun (name, (nl, probe), dt, t_stop) (er : engine_row) ->
        let ap = Engine.default_adaptive ~dt_min:dt () in
        let fixed = Engine.transient ~dt ~t_stop nl in
        let ad = Engine.transient ~adaptive:ap ~dt ~t_stop nl in
        let wf = Engine.voltage fixed probe and wa = Engine.voltage ad probe in
        let max_dv = Waveform.max_diff ~n:2001 wf wa ~t0:0. ~t1:t_stop in
        let t50 w = Measure.t_frac_exn w ~vdd:1. ~edge:Measure.Rising ~frac:0.5 in
        let slew w =
          match Measure.slew_10_90 w ~vdd:1. ~edge:Measure.Rising with
          | Some s -> s
          | None -> Float.nan
        in
        let delay_delta = Float.abs (t50 wa -. t50 wf) in
        let slew_delta = Float.abs (slew wa -. slew wf) in
        let t_ad =
          best_of ~n:rounds (fun () ->
              time_per_run ~target (fun () ->
                  ignore (Engine.transient ~adaptive:ap ~dt ~t_stop nl)))
        in
        let row =
          {
            ar_name = name;
            ar_fixed_steps = Engine.steps fixed;
            ar_adaptive_steps = Engine.steps ad;
            ar_fixed_ns = er.er_fast_ns;
            ar_adaptive_ns = 1e9 *. t_ad;
            ar_refactors = Engine.refactors ad;
            ar_rejected = Engine.steps_rejected ad;
            ar_max_dv = max_dv;
            ar_delay_delta_ps = 1e12 *. delay_delta;
            ar_slew_delta_ps = 1e12 *. slew_delta;
          }
        in
        (* "-" when the waveform never completes the 10-90 swing inside the
           window (the slow RC circuits at 1 ns). *)
        let opt v = if Float.is_finite v then Printf.sprintf "%.3f" v else "-" in
        Format.printf "%-26s %7d %7d %6.1fx %8.2fx %8d %7d %7.2f %10s %10s@." name
          row.ar_fixed_steps row.ar_adaptive_steps
          (float_of_int row.ar_fixed_steps /. float_of_int row.ar_adaptive_steps)
          (row.ar_fixed_ns /. row.ar_adaptive_ns)
          row.ar_refactors row.ar_rejected (1e3 *. max_dv) (opt row.ar_delay_delta_ps)
          (opt row.ar_slew_delta_ps);
        row)
      circuits rows
  in

  (* Per-step linear-stage costs in isolation.  The new engine pays blit +
     solve_factored per step; the seed engine re-factored from scratch (the
     copy below stands in for its per-step re-stamp). *)
  let bn = 200 and bbw = 2 in
  let master = Rlc_num.Banded.create ~n:bn ~bw:bbw in
  let master_pre = Pre_pr_banded.create ~n:bn ~bw:bbw in
  for i = 0 to bn - 1 do
    Rlc_num.Banded.set master i i 4.;
    Pre_pr_banded.set master_pre i i 4.;
    if i > 0 then (
      Rlc_num.Banded.set master i (i - 1) (-1.);
      Pre_pr_banded.set master_pre i (i - 1) (-1.));
    if i < bn - 1 then (
      Rlc_num.Banded.set master i (i + 1) (-1.);
      Pre_pr_banded.set master_pre i (i + 1) (-1.))
  done;
  let rhs = Array.make bn 1. in
  let scratch = Rlc_num.Banded.copy master in
  let b = Array.make bn 0. in
  let t_factor =
    time_per_run ~target (fun () ->
        Rlc_num.Banded.blit ~src:master ~dst:scratch;
        Rlc_num.Banded.factor scratch)
  in
  let factored = Rlc_num.Banded.copy master in
  Rlc_num.Banded.factor factored;
  let t_solve =
    time_per_run ~target (fun () ->
        Array.blit rhs 0 b 0 bn;
        Rlc_num.Banded.solve_factored factored b)
  in
  let t_pre_solve =
    time_per_run ~target (fun () ->
        Array.blit rhs 0 b 0 bn;
        Pre_pr_banded.solve_in_place (Pre_pr_banded.copy master_pre) b)
  in
  Format.printf
    "@.banded stages (n=%d, bw=%d): factor %.0f ns; per-step solve_factored %.0f ns; pre-PR \
     per-step copy+solve_in_place %.0f ns (%.1fx)@."
    bn bbw (1e9 *. t_factor) (1e9 *. t_solve) (1e9 *. t_pre_solve) (t_pre_solve /. t_solve);

  (* Sweep scaling on the fig7-fast grid.  Pre-warm the (mutex-shared) cell
     characterization memo so both wall times measure the solves. *)
  let stride = if smoke then 70 else 7 in
  let cases = List.filteri (fun i _ -> i mod stride = 0) (Experiments.sweep_cases ()) in
  List.iter
    (fun (c : Evaluate.case) -> ignore (cell_exn c.Evaluate.tech ~size:c.Evaluate.size))
    cases;
  let rec_domains = Rlc_parallel.Pool.default_jobs () in
  (* Requested fan-out clamped to the core count (the old default of 4
     oversubscribed 1-core containers and recorded jobs-4 slower than
     jobs-1 in BENCH_engine.json). *)
  let jn_requested = if jobs > 1 then jobs else 4 in
  let jn = Experiments.effective_jobs jn_requested in
  let wall f =
    let t0 = Unix.gettimeofday () in
    let v = f () in
    (v, Unix.gettimeofday () -. t0)
  in
  Format.printf "@.sweep scaling: %d cases (stride %d), jobs 1 vs %d (%d core%s available)%s@."
    (List.length cases) stride jn rec_domains
    (if rec_domains = 1 then "" else "s")
    (if jn < jn_requested then Printf.sprintf " - requested %d, clamped" jn_requested else "");
  let s1, w1 = wall (fun () -> Experiments.run_sweep ~dt:dt_sweep ~jobs:1 cases) in
  let sn, wn = wall (fun () -> Experiments.run_sweep ~dt:dt_sweep ~jobs:jn cases) in
  let stats_identical =
    s1.Experiments.n_inductive = sn.Experiments.n_inductive
    && s1.Experiments.stretch = sn.Experiments.stretch
    && s1.Experiments.flat = sn.Experiments.flat
  in
  Format.printf
    "sweep (%d inductive): jobs 1 %.2f s, jobs %d %.2f s -> %.2fx; statistics identical: %b@."
    s1.Experiments.n_inductive w1 jn wn (w1 /. wn) stats_identical;

  (* The same sweep under adaptive stepping: total engine steps (via obs
     counters) and wall clock at jobs 1, plus the worst per-point deviation
     of the reference delay/slew — the acceptance bar is < 1 %. *)
  let sweep_steps adaptive =
    let obs = Rlc_obs.Obs.create () in
    let s, w = wall (fun () -> Experiments.run_sweep ~obs ~dt:dt_sweep ?adaptive ~jobs:1 cases) in
    (s, w, Rlc_obs.Obs.counter (Rlc_obs.Obs.snapshot obs) "engine.steps")
  in
  let sf, wf_sweep, steps_fixed = sweep_steps None in
  let sa, wa_sweep, steps_adaptive =
    sweep_steps (Some (Engine.default_adaptive ~dt_min:dt_sweep ()))
  in
  let max_ref_dev =
    List.fold_left2
      (fun acc (pf : Experiments.sweep_point) (pa : Experiments.sweep_point) ->
        let rel a b = Float.abs (a -. b) /. Float.abs b in
        Float.max acc
          (Float.max
             (rel pa.Experiments.ref_delay pf.Experiments.ref_delay)
             (rel pa.Experiments.ref_slew pf.Experiments.ref_slew)))
      0. sf.Experiments.points sa.Experiments.points
  in
  Format.printf
    "sweep adaptive (ltol %g): %d -> %d engine steps (%.1fx fewer), wall %.2f s -> %.2f s \
     (%.2fx); max reference delay/slew deviation %.3f%%@."
    ltol_default steps_fixed steps_adaptive
    (float_of_int steps_fixed /. float_of_int steps_adaptive)
    wf_sweep wa_sweep (wf_sweep /. wa_sweep) (100. *. max_ref_dev);

  match json with
  | None -> ()
  | Some path ->
      let buf = Buffer.create 4096 in
      let fl v =
        (* %.17g round-trips; trim the common case to something readable. *)
        if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
        else Printf.sprintf "%.6g" v
      in
      Printf.bprintf buf "{\n  \"schema\": \"rlc-bench-engine/1\",\n";
      Printf.bprintf buf "  \"smoke\": %b,\n" smoke;
      Printf.bprintf buf "  \"circuits\": [\n";
      List.iteri
        (fun i r ->
          Printf.bprintf buf
            "    {\"name\": \"%s\", \"steps\": %d, \"fast_ns_per_run\": %s, \
             \"naive_ns_per_run\": %s, \"pre_pr_ns_per_run\": %s, \"speedup_vs_naive\": %s, \
             \"speedup_vs_pre_pr\": %s, \"steps_per_sec_fast\": %s, \"max_dv_vs_naive_V\": %s, \
             \"max_dv_vs_pre_pr_V\": %s, \"stages\": {\"compile_us\": %s, \"factor_us\": %s, \
             \"step_loop_us\": %s, \"newton_iters\": %d}}%s\n"
            r.er_name r.er_steps (fl r.er_fast_ns) (fl r.er_naive_ns) (fl r.er_pre_pr_ns)
            (fl (r.er_naive_ns /. r.er_fast_ns))
            (fl (r.er_pre_pr_ns /. r.er_fast_ns))
            (fl (float_of_int r.er_steps /. (r.er_fast_ns *. 1e-9)))
            (fl r.er_dv_naive) (fl r.er_dv_pre_pr)
            (fl (1e6 *. r.er_compile_s))
            (fl (1e6 *. r.er_factor_s))
            (fl (1e6 *. r.er_step_loop_s))
            r.er_newton_iters
            (if i = List.length rows - 1 then "" else ","))
        rows;
      Printf.bprintf buf "  ],\n";
      Printf.bprintf buf "  \"adaptive\": {\n    \"ltol\": %s,\n    \"circuits\": [\n"
        (fl ltol_default);
      List.iteri
        (fun i (r : adaptive_row) ->
          Printf.bprintf buf
            "      {\"name\": \"%s\", \"fixed_steps\": %d, \"adaptive_steps\": %d, \
             \"step_ratio\": %s, \"fixed_ns_per_run\": %s, \"adaptive_ns_per_run\": %s, \
             \"speedup\": %s, \"refactors\": %d, \"steps_rejected\": %d, \"max_dv_V\": %s, \
             \"delay_delta_ps\": %s, \"slew_delta_ps\": %s}%s\n"
            r.ar_name r.ar_fixed_steps r.ar_adaptive_steps
            (fl (float_of_int r.ar_fixed_steps /. float_of_int r.ar_adaptive_steps))
            (fl r.ar_fixed_ns) (fl r.ar_adaptive_ns)
            (fl (r.ar_fixed_ns /. r.ar_adaptive_ns))
            r.ar_refactors r.ar_rejected (fl r.ar_max_dv)
            (if Float.is_finite r.ar_delay_delta_ps then fl r.ar_delay_delta_ps else "null")
            (if Float.is_finite r.ar_slew_delta_ps then fl r.ar_slew_delta_ps else "null")
            (if i = List.length adaptive_rows - 1 then "" else ","))
        adaptive_rows;
      Printf.bprintf buf "    ],\n";
      Printf.bprintf buf
        "    \"sweep\": {\"engine_steps_fixed\": %d, \"engine_steps_adaptive\": %d, \
         \"step_ratio\": %s, \"wall_s_fixed\": %s, \"wall_s_adaptive\": %s, \"speedup\": %s, \
         \"max_ref_deviation_pct\": %s}\n  },\n"
        steps_fixed steps_adaptive
        (fl (float_of_int steps_fixed /. float_of_int steps_adaptive))
        (fl wf_sweep) (fl wa_sweep)
        (fl (wf_sweep /. wa_sweep))
        (fl (100. *. max_ref_dev));
      Printf.bprintf buf
        "  \"banded_stages\": {\"n\": %d, \"bw\": %d, \"factor_ns\": %s, \"solve_factored_ns\": \
         %s, \"pre_pr_copy_solve_ns\": %s},\n"
        bn bbw (fl (1e9 *. t_factor)) (fl (1e9 *. t_solve)) (fl (1e9 *. t_pre_solve));
      Printf.bprintf buf
        "  \"sweep\": {\"cases\": %d, \"inductive\": %d, \"jobs\": %d, \"jobs_requested\": %d, \
         \"recommended_domains\": %d, \"wall_s_jobs1\": %s, \"wall_s_jobsN\": %s, \"speedup\": \
         %s, \"stats_identical\": %b}\n"
        (List.length cases) s1.Experiments.n_inductive jn jn_requested rec_domains (fl w1)
        (fl wn)
        (fl (w1 /. wn)) stats_identical;
      Printf.bprintf buf "}\n";
      let oc = open_out path in
      output_string oc (Buffer.contents buf);
      close_out oc;
      Format.printf "wrote %s@." path

(* -------------------------------------------------------------- service *)

(* What the resident daemon buys per request: one Session/Server pair driven
   straight through Server.handle_line (no transport), so the numbers are
   the protocol + dispatch + solve cost.  The first flow request pays cell
   characterization and every Ceff solve; the session keeps both, so warm
   requests should be all cache hits.  `--json` writes BENCH_service.json
   (or the given path when the engine group is not also writing there). *)

module Sjson = Rlc_service.Json

let service_request fields =
  Sjson.to_string (Sjson.Obj (("schema", Sjson.Str Rlc_service.Protocol.schema) :: fields))

let service_request_v2 fields =
  Sjson.to_string (Sjson.Obj (("schema", Sjson.Str Rlc_service.Protocol.schema_v2) :: fields))

(* Concurrent serving: the real serve_unix transport under N simultaneous
   clients.  The listener and the worker domains run for real; clients keep
   one request in flight each, so sustained req/s and the pooled latency
   percentiles measure admission + dispatch + solve under contention.  On
   the benched 1-core box recommended_domain_count is 1, workers stays 1,
   and the numbers degrade gracefully to a serialization measurement —
   byte-identity of every served report is asserted either way. *)

type service_telemetry = {
  st_span_s : float;
  st_samples : int;
  st_rps : float;
  st_p50_ms : float;
  st_p95_ms : float;
  st_p99_ms : float;
  st_hit_ratio : float;
  st_prom_valid : bool;
}

type service_conc = {
  sc_clients : int;
  sc_requests_per_client : int;
  sc_workers : int;
  sc_recommended : int;
  sc_oversubscribed : bool;
  sc_baseline_rps : float;
  sc_rps : float;
  sc_p50_ms : float;
  sc_p95_ms : float;
  sc_p99_ms : float;
  sc_identical : bool;
  sc_telemetry : service_telemetry option;
}

let string_contains hay needle =
  let hl = String.length hay and nl = String.length needle in
  let rec go i = i + nl <= hl && (String.equal (String.sub hay i nl) needle || go (i + 1)) in
  nl = 0 || go 0

(* Digest of the daemon's own [metrics] response: the rolling-window rates
   and quantiles the server computed about the run we just drove, plus a
   sanity bit on the Prometheus exposition. *)
let telemetry_of_response resp =
  match Sjson.parse resp with
  | Error _ -> None
  | Ok j -> (
      let num obj name =
        match Sjson.member name obj with
        | Some (Sjson.Float f) -> f
        | Some (Sjson.Int n) -> float_of_int n
        | _ -> Float.nan
      in
      match Sjson.member "window" j with
      | Some w ->
          let prom_valid =
            match Sjson.member "prometheus" j with
            | Some (Sjson.Str s) ->
                String.length s >= 6
                && String.equal (String.sub s 0 6) "# HELP"
                && string_contains s "service_requests_total"
            | _ -> false
          in
          Some
            {
              st_span_s = num w "span_s";
              st_samples =
                (match Sjson.member "samples" w with Some (Sjson.Int n) -> n | _ -> 0);
              st_rps = num w "requests_per_s";
              st_p50_ms = num w "p50_ms";
              st_p95_ms = num w "p95_ms";
              st_p99_ms = num w "p99_ms";
              st_hit_ratio = num w "cache_hit_ratio";
              st_prom_valid = prom_valid;
            }
      | None -> None)

let service_concurrent_measure ?(smoke = false) ~flow_req () =
  let recommended = Domain.recommended_domain_count () in
  let workers = Int.max 1 (Int.min 4 recommended) in
  (* The concurrent measure owns its session — obs-enabled, so the serve
     loop's ticker feeds the telemetry window — which also keeps the serial
     cold/warm/ping numbers above on an obs-off session.  Spans stay off,
     like a daemon run without --trace: the window only needs counters and
     histograms, and span buffers would grow with the request count. *)
  let session =
    Rlc_service.Session.create
      ~config:
        { Rlc_service.Session.Config.default with obs = Rlc_obs.Obs.create ~spans:false () }
      ()
  in
  Fun.protect ~finally:(fun () -> Rlc_service.Session.close session) @@ fun () ->
  let server =
    Rlc_service.Server.create ~timeout_s:0. ~workers ~queue_capacity:64
      ~tick_period_s:0.05 session
  in
  (* Warm through the transport-free path so every measured request is all
     cache hits, and remember the report every client must reproduce. *)
  let warm_resp = fst (Rlc_service.Server.handle_line server flow_req) in
  let expected =
    match Sjson.parse warm_resp with
    | Ok j -> (
        match Sjson.member "report" j with
        | Some (Sjson.Str s) -> s
        | _ -> failwith ("warm flow request failed: " ^ warm_resp))
    | Error _ -> failwith "warm flow response unparseable"
  in
  let path = Filename.temp_file "rlc_bench_service" ".sock" in
  let listener = Domain.spawn (fun () -> Rlc_service.Server.serve_unix server ~path) in
  let connect () =
    (* The serve loop binds after the domain spawns; retry until it has. *)
    let rec go tries =
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      try
        Unix.connect fd (Unix.ADDR_UNIX path);
        fd
      with Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) when tries > 0 ->
        Unix.close fd;
        Unix.sleepf 0.02;
        go (tries - 1)
    in
    go 250
  in
  let run_client n =
    let fd = connect () in
    let ic = Unix.in_channel_of_descr fd and oc = Unix.out_channel_of_descr fd in
    let lat = Array.make n 0. in
    let ok = ref true in
    for i = 0 to n - 1 do
      let t0 = Unix.gettimeofday () in
      output_string oc flow_req;
      output_char oc '\n';
      flush oc;
      let resp = input_line ic in
      lat.(i) <- Unix.gettimeofday () -. t0;
      match Sjson.parse resp with
      | Ok j -> (
          match Sjson.member "report" j with
          | Some (Sjson.Str s) -> if not (String.equal s expected) then ok := false
          | _ -> ok := false)
      | Error _ -> ok := false
    done;
    close_out_noerr oc;
    close_in_noerr ic;
    (lat, !ok)
  in
  let requests = if smoke then 4 else 16 in
  let clients = if smoke then 2 else 4 in
  let t0 = Unix.gettimeofday () in
  let _, base_ok = run_client requests in
  let baseline_rps = float_of_int requests /. (Unix.gettimeofday () -. t0) in
  let t0 = Unix.gettimeofday () in
  let results =
    List.map Domain.join
      (List.init clients (fun _ -> Domain.spawn (fun () -> run_client requests)))
  in
  let total_s = Unix.gettimeofday () -. t0 in
  (* Let at least two more ticks land so the window cleanly spans the run,
     then scrape the daemon's own metrics over the socket it just served. *)
  Unix.sleepf 0.12;
  let telemetry =
    let fd = connect () in
    let ic = Unix.in_channel_of_descr fd and oc = Unix.out_channel_of_descr fd in
    output_string oc (service_request [ ("kind", Sjson.Str "metrics") ]);
    output_char oc '\n';
    flush oc;
    let resp = input_line ic in
    close_out_noerr oc;
    close_in_noerr ic;
    telemetry_of_response resp
  in
  Rlc_service.Server.stop server;
  Domain.join listener;
  let identical = base_ok && List.for_all snd results in
  if not identical then failwith "concurrent serving: reports diverged from the warm report";
  (* Client-side latency percentiles through the same log2 histogram +
     quantile machinery the daemon's telemetry uses. *)
  let sink = Rlc_obs.Obs.create () in
  List.iter
    (fun (lat, _) -> Array.iter (Rlc_obs.Obs.observe sink "bench.latency_s") lat)
    results;
  let summary =
    match
      List.assoc_opt "bench.latency_s" (Rlc_obs.Obs.snapshot sink).Rlc_obs.Obs.m_stats
    with
    | Some s -> s
    | None -> failwith "concurrent serving: latency histogram missing"
  in
  let pct p = Rlc_obs.Obs.Histogram.quantile summary p in
  {
    sc_clients = clients;
    sc_requests_per_client = requests;
    sc_workers = workers;
    sc_recommended = recommended;
    sc_oversubscribed = workers > recommended || clients > recommended;
    sc_baseline_rps = baseline_rps;
    sc_rps = float_of_int (clients * requests) /. total_s;
    sc_p50_ms = 1e3 *. pct 0.5;
    sc_p95_ms = 1e3 *. pct 0.95;
    sc_p99_ms = 1e3 *. pct 0.99;
    sc_identical = identical;
    sc_telemetry = telemetry;
  }

let print_service_concurrent sc =
  Format.printf
    "@.concurrent socket serving (%d clients x %d requests, %d worker%s, %d recommended \
     domain%s):@."
    sc.sc_clients sc.sc_requests_per_client sc.sc_workers
    (if sc.sc_workers = 1 then "" else "s")
    sc.sc_recommended
    (if sc.sc_recommended = 1 then "" else "s");
  Format.printf "  sustained : %8.0f requests/s  (1 client: %.0f/s, %.2fx)@." sc.sc_rps
    sc.sc_baseline_rps
    (sc.sc_rps /. Float.max 1e-9 sc.sc_baseline_rps);
  Format.printf "  latency   : p50 %.2f ms   p95 %.2f ms   p99 %.2f ms@." sc.sc_p50_ms
    sc.sc_p95_ms sc.sc_p99_ms;
  (if sc.sc_oversubscribed then
     Format.printf
       "  note      : oversubscribed (more workers or clients than cores) — \
        throughput numbers measure scheduling, not parallelism@.");
  (match sc.sc_telemetry with
  | Some t ->
      Format.printf
        "  telemetry : daemon window %.2fs/%d samples, %.0f req/s, server-side p50 %.2f \
         ms, hit ratio %.2f, prometheus %s@."
        t.st_span_s t.st_samples t.st_rps t.st_p50_ms t.st_hit_ratio
        (if t.st_prom_valid then "ok" else "INVALID")
  | None -> Format.printf "  telemetry : metrics scrape failed@.");
  Format.printf "  reports   : byte-identical across all clients@."

(* Incremental (ECO) serving: design_load once, then 1-net flow_delta
   requests against the resident handle (rlc-service/2).  The bus is
   generated with per-bit capacitances so every net's cache key is
   distinct — a cold load prices one real Ceff solve per net, and a 1-net
   delta prices exactly the dirty cone (the edited bit plus its fan-out
   local net).  Each delta bumps b0 to a fresh capacitance, so every
   measured delta re-solves its cone for real instead of hitting the
   session cache.  Byte-identity is asserted two ways: the v2 design_load
   report against a v1 flow of the same sources, and the final delta
   report against a v1 flow of the cumulatively edited sources. *)

type service_eco = {
  se_bits : int;
  se_nets : int;
  se_load_ms : float;  (* cold design_load wall, fresh session *)
  se_delta_ms : float;  (* mean 1-net flow_delta wall *)
  se_speedup : float;  (* load_ms / delta_ms *)
  se_deltas : int;
  se_retimed : int;  (* per delta *)
  se_reused : int;
  se_rps : float;  (* sustained flow_delta requests/s *)
  se_p50_ms : float;
  se_p95_ms : float;
  se_identical : bool;
}

let service_eco_measure ?(smoke = false) () =
  let bits = 16 in
  let cap_of i = 200 + i in
  let spef_src, spec_src = flow_sources ~cap_of ~bits () in
  let session = Rlc_service.Session.create () in
  Fun.protect ~finally:(fun () -> Rlc_service.Session.close session) @@ fun () ->
  let server = Rlc_service.Server.create ~timeout_s:0. session in
  let handle_line req = fst (Rlc_service.Server.handle_line server req) in
  let str_field resp name =
    match Sjson.parse resp with
    | Ok j -> ( match Sjson.member name j with Some (Sjson.Str s) -> Some s | _ -> None)
    | Error _ -> None
  in
  let int_field resp name =
    match Sjson.parse resp with
    | Ok j -> ( match Sjson.member name j with Some (Sjson.Int n) -> n | _ -> -1)
    | Error _ -> -1
  in
  let flow_report ~cap0 =
    let spef_src, spec_src =
      flow_sources ~cap_of:(fun i -> if i = 0 then cap0 else cap_of i) ~bits ()
    in
    let resp =
      handle_line
        (service_request
           [
             ("kind", Sjson.Str "flow");
             ("spef", Sjson.Str spef_src);
             ("spec", Sjson.Str spec_src);
           ])
    in
    match str_field resp "report" with
    | Some r -> r
    | None -> failwith ("eco: one-shot flow failed: " ^ resp)
  in
  let t0 = Unix.gettimeofday () in
  let load_resp =
    handle_line
      (service_request_v2
         [
           ("kind", Sjson.Str "design_load");
           ("spef", Sjson.Str spef_src);
           ("spec", Sjson.Str spec_src);
         ])
  in
  let load_s = Unix.gettimeofday () -. t0 in
  let handle =
    match str_field load_resp "handle" with
    | Some h -> h
    | None -> failwith ("eco: design_load failed: " ^ load_resp)
  in
  let deltas = if smoke then 2 else 6 in
  let sink = Rlc_obs.Obs.create () in
  let retimed = ref 0 and reused = ref 0 and total_s = ref 0. in
  let last_cap = ref (cap_of 0) in
  let last_report = ref "" in
  for k = 1 to deltas do
    let cap = 500 + (10 * k) in
    last_cap := cap;
    let req =
      service_request_v2
        [
          ("kind", Sjson.Str "flow_delta");
          ("handle", Sjson.Str handle);
          ("nets", Sjson.Obj [ ("b0", Sjson.Str (bus_bit_block ~bit:"b0" ~cap)) ]);
        ]
    in
    let t0 = Unix.gettimeofday () in
    let resp = handle_line req in
    let dt = Unix.gettimeofday () -. t0 in
    total_s := !total_s +. dt;
    Rlc_obs.Obs.observe sink "bench.delta_s" dt;
    (match str_field resp "report" with
    | Some r -> last_report := r
    | None -> failwith ("eco: flow_delta failed: " ^ resp));
    retimed := int_field resp "retimed_nets";
    reused := int_field resp "reused_nets"
  done;
  (* Byte-identity, both schema generations against the one-shot v1 flow:
     the cold-load report against the pristine sources, the last delta's
     report against the cumulatively edited sources. *)
  let identical =
    (match str_field load_resp "report" with
    | Some r -> String.equal r (flow_report ~cap0:(cap_of 0))
    | None -> false)
    && String.equal !last_report (flow_report ~cap0:!last_cap)
  in
  if not identical then failwith "eco: delta reports diverged from cold one-shot flows";
  let summary =
    match
      List.assoc_opt "bench.delta_s" (Rlc_obs.Obs.snapshot sink).Rlc_obs.Obs.m_stats
    with
    | Some s -> s
    | None -> failwith "eco: delta latency histogram missing"
  in
  let pct p = Rlc_obs.Obs.Histogram.quantile summary p in
  let delta_s = !total_s /. float_of_int deltas in
  {
    se_bits = bits;
    se_nets = 2 * bits;
    se_load_ms = 1e3 *. load_s;
    se_delta_ms = 1e3 *. delta_s;
    se_speedup = load_s /. Float.max 1e-9 delta_s;
    se_deltas = deltas;
    se_retimed = !retimed;
    se_reused = !reused;
    se_rps = float_of_int deltas /. Float.max 1e-9 !total_s;
    se_p50_ms = 1e3 *. pct 0.5;
    se_p95_ms = 1e3 *. pct 0.95;
    se_identical = identical;
  }

let print_service_eco se =
  Format.printf "@.incremental (ECO) serving, rlc-service/2 (%d nets, distinct keys):@."
    se.se_nets;
  Format.printf "  design_load : %8.1f ms  (cold, fresh session)@." se.se_load_ms;
  Format.printf
    "  flow_delta  : %8.1f ms/request  (1-net edit: %d retimed, %d reused; %.1fx vs cold \
     load)@."
    se.se_delta_ms se.se_retimed se.se_reused se.se_speedup;
  Format.printf "  sustained   : %8.1f deltas/s   p50 %.2f ms   p95 %.2f ms@." se.se_rps
    se.se_p50_ms se.se_p95_ms;
  Format.printf "  reports     : byte-identical to cold one-shot flows of the edited design@."

let service_bench ?(smoke = false) ?json () =
  header "Service: resident daemon, cold vs warm flow requests";
  let bits = if smoke then 4 else 16 in
  let spef_src, spec_src = flow_sources ~bits () in
  let flow_req =
    service_request
      [ ("kind", Sjson.Str "flow"); ("spef", Sjson.Str spef_src); ("spec", Sjson.Str spec_src) ]
  in
  let ping_req = service_request [ ("kind", Sjson.Str "ping") ] in
  let session = Rlc_service.Session.create () in
  Fun.protect ~finally:(fun () -> Rlc_service.Session.close session) @@ fun () ->
  let server = Rlc_service.Server.create ~timeout_s:0. session in
  let handle req = fst (Rlc_service.Server.handle_line server req) in
  let field resp name =
    match Sjson.parse resp with Ok j -> Sjson.member name j | Error _ -> None
  in
  let int_field resp name = match field resp name with Some (Sjson.Int n) -> n | _ -> -1 in
  let expect_ok what resp =
    match field resp "ok" with
    | Some (Sjson.Bool true) -> ()
    | _ -> failwith (what ^ " request failed: " ^ resp)
  in
  let t0 = Unix.gettimeofday () in
  let cold_resp = handle flow_req in
  let cold_s = Unix.gettimeofday () -. t0 in
  expect_ok "cold flow" cold_resp;
  let cold_misses = int_field cold_resp "cache_misses" in
  let warm_resp = handle flow_req in
  expect_ok "warm flow" warm_resp;
  let warm_misses = int_field warm_resp "cache_misses" in
  let target = if smoke then 0.05 else 0.3 in
  let warm_s = time_per_run ~target (fun () -> expect_ok "warm flow" (handle flow_req)) in
  let ping_s = time_per_run ~target (fun () -> expect_ok "ping" (handle ping_req)) in
  Format.printf "@.%d-bit bus flow over Server.handle_line (no transport):@." bits;
  Format.printf "  cold : %8.1f ms/request  (%d Ceff cache misses)@." (1e3 *. cold_s)
    cold_misses;
  Format.printf "  warm : %8.2f ms/request  (%d misses, %.0f requests/s, %.1fx vs cold)@."
    (1e3 *. warm_s) warm_misses (1. /. warm_s) (cold_s /. warm_s);
  Format.printf "  ping : %8.1f us/request  (%.0f requests/s)@." (1e6 *. ping_s) (1. /. ping_s);
  let conc = service_concurrent_measure ~smoke ~flow_req () in
  print_service_concurrent conc;
  let eco = service_eco_measure ~smoke () in
  print_service_eco eco;
  match json with
  | None -> ()
  | Some path ->
      let buf = Buffer.create 512 in
      let fl v =
        if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
        else Printf.sprintf "%.6g" v
      in
      Printf.bprintf buf "{\n  \"schema\": \"rlc-bench-service/1\",\n";
      Printf.bprintf buf "  \"smoke\": %b,\n  \"bits\": %d,\n" smoke bits;
      Printf.bprintf buf
        "  \"flow\": {\"cold_ms\": %s, \"warm_ms\": %s, \"speedup\": %s, \
         \"warm_requests_per_sec\": %s, \"cold_cache_misses\": %d, \"warm_cache_misses\": \
         %d},\n"
        (fl (1e3 *. cold_s)) (fl (1e3 *. warm_s))
        (fl (cold_s /. warm_s))
        (fl (1. /. warm_s))
        cold_misses warm_misses;
      Printf.bprintf buf "  \"ping\": {\"us_per_request\": %s, \"requests_per_sec\": %s},\n"
        (fl (1e6 *. ping_s))
        (fl (1. /. ping_s));
      Printf.bprintf buf
        "  \"concurrent\": {\"clients\": %d, \"requests_per_client\": %d, \"workers\": %d, \
         \"recommended_domains\": %d, \"oversubscribed\": %b, \"baseline_rps\": %s, \
         \"rps\": %s, \"speedup_vs_1_client\": %s, \"p50_ms\": %s, \"p95_ms\": %s, \
         \"p99_ms\": %s, \"reports_identical\": %b},\n"
        conc.sc_clients conc.sc_requests_per_client conc.sc_workers conc.sc_recommended
        conc.sc_oversubscribed (fl conc.sc_baseline_rps) (fl conc.sc_rps)
        (fl (conc.sc_rps /. Float.max 1e-9 conc.sc_baseline_rps))
        (fl conc.sc_p50_ms) (fl conc.sc_p95_ms) (fl conc.sc_p99_ms) conc.sc_identical;
      Printf.bprintf buf
        "  \"eco\": {\"bits\": %d, \"nets\": %d, \"load_ms\": %s, \"delta_ms\": %s, \
         \"speedup_vs_cold_load\": %s, \"deltas\": %d, \"retimed_nets\": %d, \
         \"reused_nets\": %d, \"retimed_ratio\": %s, \"delta_requests_per_sec\": %s, \
         \"p50_ms\": %s, \"p95_ms\": %s, \"reports_identical\": %b},\n"
        eco.se_bits eco.se_nets (fl eco.se_load_ms) (fl eco.se_delta_ms) (fl eco.se_speedup)
        eco.se_deltas eco.se_retimed eco.se_reused
        (fl (float_of_int eco.se_retimed /. float_of_int (Int.max 1 (eco.se_retimed + eco.se_reused))))
        (fl eco.se_rps) (fl eco.se_p50_ms) (fl eco.se_p95_ms) eco.se_identical;
      (let flj v = if Float.is_nan v then "null" else fl v in
       match conc.sc_telemetry with
       | None -> Printf.bprintf buf "  \"telemetry\": null\n"
       | Some t ->
           Printf.bprintf buf
             "  \"telemetry\": {\"window_span_s\": %s, \"samples\": %d, \
              \"requests_per_s\": %s, \"p50_ms\": %s, \"p95_ms\": %s, \"p99_ms\": %s, \
              \"cache_hit_ratio\": %s, \"prometheus_valid\": %b}\n"
             (flj t.st_span_s) t.st_samples (flj t.st_rps) (flj t.st_p50_ms)
             (flj t.st_p95_ms) (flj t.st_p99_ms) (flj t.st_hit_ratio) t.st_prom_valid);
      Printf.bprintf buf "}\n";
      let oc = open_out path in
      output_string oc (Buffer.contents buf);
      close_out oc;
      Format.printf "wrote %s@." path

(* ---------------------------------------------------------------- xtalk *)

(* The crosstalk analysis is screen-then-simulate; the bench prices both
   halves.  A coupled bus like examples/bus8_coupled.spef (adjacent bits
   strongly coupled, next-nearest and the o* locals weakly) is generated at
   the requested width, then:

   - the screen alone (threshold 1.0 dismisses everything) prices the
     closed form per pair;
   - the full analysis prices the coupled-cluster transients the survivors
     pay for, end to end at jobs 1 vs --jobs N, and per run of each kind:
     a victim's noise run stops once an energy bound proves its far-end
     peak final, while its alignment runs stop at the far end's first 50 %
     crossing, so the two are reported apart (engine steps and step-loop ms
     per run).

   `--json` writes the numbers as BENCH_xtalk.json, with a host block. *)

let nproc () =
  match open_in "/proc/cpuinfo" with
  | exception Sys_error _ -> Domain.recommended_domain_count ()
  | ic ->
      Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
      let n = ref 0 in
      (try
         while true do
           if String.starts_with ~prefix:"processor" (input_line ic) then incr n
         done
       with End_of_file -> ());
      if !n = 0 then Domain.recommended_domain_count () else !n

(* The checkout's revision, with "-dirty" when the tree has local changes. *)
let git_revision () =
  match Unix.open_process_in "git describe --always --dirty 2>/dev/null" with
  | exception Unix.Unix_error _ -> "unknown"
  | ic -> (
      let line = try Some (input_line ic) with End_of_file -> None in
      match (Unix.close_process_in ic, line) with
      | Unix.WEXITED 0, Some rev -> String.trim rev
      | _ -> "unknown")

let host_json ~smoke =
  Printf.sprintf
    "{\"nproc\": %d, \"recommended_domains\": %d, \"smoke\": %b, \"git_revision\": %S, \
     \"ocaml_version\": %S}"
    (nproc ()) (Domain.recommended_domain_count ()) smoke (git_revision ()) Sys.ocaml_version

let xtalk_sources ~bits =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    "*SPEF \"IEEE 1481-1998\"\n*DESIGN \"bench_bus_coupled\"\n*T_UNIT 1 PS\n*C_UNIT 1 \
     FF\n*R_UNIT 1 OHM\n*L_UNIT 1 PH\n";
  let spec = Buffer.create 1024 in
  for i = 0 to bits - 1 do
    let bit = Printf.sprintf "b%d" i and out = Printf.sprintf "o%d" i in
    let couplings = Buffer.create 128 in
    (* Strong coupling to the right-hand neighbour, a weak tail to the bit
       after it: the weak pairs are what the screen dismisses. *)
    if i < bits - 1 then
      Buffer.add_string couplings
        (Printf.sprintf "4 %s_1 b%d_1 30\n5 %s_2 b%d_2 30\n6 %s_rcv b%d_rcv 30\n" bit (i + 1)
           bit (i + 1) bit (i + 1));
    if i < bits - 2 then
      Buffer.add_string couplings (Printf.sprintf "7 %s_2 b%d_2 3\n" bit (i + 2));
    Buffer.add_string buf
      (Printf.sprintf
         "*D_NET %s 600\n*CONN\n*P %s_drv O\n*P %s_rcv I\n*CAP\n1 %s_1 200\n2 %s_2 200\n3 \
          %s_rcv 200\n%s*RES\n1 %s_drv %s_1 24\n2 %s_1 %s_2 24\n3 %s_2 %s_rcv 24\n*INDUC\n1 \
          %s_drv %s_1 1500\n2 %s_1 %s_2 1500\n3 %s_2 %s_rcv 1500\n*END\n"
         bit bit bit bit bit bit (Buffer.contents couplings) bit bit bit bit bit bit bit bit
         bit bit bit bit);
    let out_coupling =
      if i < bits - 1 then Printf.sprintf "3 %s_1 o%d_1 3\n" out (i + 1) else ""
    in
    Buffer.add_string buf
      (Printf.sprintf
         "*D_NET %s 90\n*CONN\n*P %s_drv O\n*P %s_rcv I\n*CAP\n1 %s_1 45\n2 %s_rcv \
          45\n%s*RES\n1 %s_drv %s_1 60\n2 %s_1 %s_rcv 60\n*END\n"
         out out out out out out_coupling out out out out);
    Buffer.add_string spec
      (Printf.sprintf
         "driver %s 75\ninput %s 100\ndriver %s 50\nedge %s %s_rcv %s\nload %s %s_rcv 5\n" bit
         bit out bit bit out out out)
  done;
  (Buffer.contents buf, Buffer.contents spec)

let xtalk_bench ?(smoke = false) ~jobs ?json () =
  header "Xtalk: closed-form screen vs coupled-cluster simulation";
  let bits = if smoke then 4 else 8 in
  let alignments = if smoke then 3 else 9 in
  let spef_src, spec_src = xtalk_sources ~bits in
  let spef =
    match Rlc_spef.Spef.parse_res spef_src with
    | Ok s -> s
    | Error e -> failwith (Rlc_errors.Error.message e)
  in
  let spec =
    match Rlc_flow.Spec.parse_res spec_src with
    | Ok s -> s
    | Error e -> failwith (Rlc_errors.Error.message e)
  in
  let design =
    match Rlc_flow.Design.ingest ~spef ~spec () with Ok d -> d | Error e -> failwith e
  in
  let flow = Rlc_flow.Flow.run_cfg Rlc_flow.Flow.Config.default design in
  let module X = Rlc_xtalk.Xtalk in
  let analyze ?(threshold = X.Config.default.X.Config.threshold) ~jobs () =
    X.analyze
      ~config:{ X.Config.default with X.Config.threshold; alignments; jobs = Some jobs }
      flow
  in
  (* Screen only: threshold 1.0 dismisses every pair, so the wall clock is
     the closed form plus bookkeeping. *)
  let target = if smoke then 0.05 else 0.3 in
  let screen_s = time_per_run ~target (fun () -> ignore (analyze ~threshold:1.0 ~jobs:1 ())) in
  let screened_all = analyze ~threshold:1.0 ~jobs:1 () in
  let n_pairs = screened_all.X.stats.X.n_pairs in
  (* Full analysis, serial then parallel. *)
  let t0 = Unix.gettimeofday () in
  let r1 = analyze ~jobs:1 () in
  let w1 = Unix.gettimeofday () -. t0 in
  let t0 = Unix.gettimeofday () in
  let rn = analyze ~jobs () in
  let wn = Unix.gettimeofday () -. t0 in
  let identical = X.json_fragment design r1 = X.json_fragment design rn in
  let stats = r1.X.stats in
  (* Transients run: one noise cluster per simulated victim + the sweep. *)
  let n_victim_sims =
    Array.fold_left (fun acc (v : X.victim_result) -> if v.X.simulated then acc + 1 else acc) 0 r1.X.victims
  in
  let n_transients = n_victim_sims + stats.X.n_alignment_sims in
  (* Per kind, from one traced serial analysis: each simulated victim runs
     its noise cluster and then its [alignments] sweep runs, so the engine
     step loops come in blocks of 1 + alignments led by the noise run.  The
     classification is checked against the analysis' own step counters. *)
  let obs = Rlc_obs.Obs.create () in
  ignore
    (X.analyze ~config:{ X.Config.default with X.Config.alignments; jobs = Some 1; obs } flow);
  let m = Rlc_obs.Obs.snapshot obs in
  let loops =
    List.filter (fun sp -> sp.Rlc_obs.Obs.sp_name = "engine.step_loop") m.Rlc_obs.Obs.m_spans
    |> List.sort (fun a b -> Float.compare a.Rlc_obs.Obs.sp_start b.Rlc_obs.Obs.sp_start)
  in
  let kind ~noise =
    let runs = ref 0 and steps = ref 0 and dur = ref 0. in
    List.iteri
      (fun i sp ->
        if (i mod (alignments + 1) = 0) = noise then begin
          incr runs;
          steps := !steps + int_of_string (List.assoc "steps" sp.Rlc_obs.Obs.sp_args);
          dur := !dur +. sp.Rlc_obs.Obs.sp_dur
        end)
      loops;
    let per x = if !runs = 0 then 0. else x /. float_of_int !runs in
    (!runs, !steps, per (float_of_int !steps), per (1e3 *. !dur))
  in
  let ((noise_runs, noise_steps, _, _) as noise) = kind ~noise:true in
  let ((align_runs, align_steps, _, _) as align) = kind ~noise:false in
  if
    noise_runs <> n_victim_sims
    || align_runs <> stats.X.n_alignment_sims
    || noise_steps <> Rlc_obs.Obs.counter m "xtalk.noise_steps"
    || align_steps <> Rlc_obs.Obs.counter m "xtalk.alignment_steps"
  then failwith "xtalk bench: step loops do not split into noise and alignment runs";
  let screen_rate = float_of_int stats.X.n_screened /. float_of_int (max 1 n_pairs) in
  let rec_domains = Rlc_parallel.Pool.default_jobs () in
  Format.printf "@.%d-bit coupled bus, %d ordered pairs, %d alignments:@." bits n_pairs
    alignments;
  Format.printf "  screen only  : %8.2f ms  (%5.1f us/pair)@." (1e3 *. screen_s)
    (1e6 *. screen_s /. float_of_int (max 1 n_pairs));
  Format.printf "  full analysis: %8.1f ms  (%d screened = %.0f%%, %d coupled transients)@."
    (1e3 *. w1) stats.X.n_screened (100. *. screen_rate) n_transients;
  List.iter
    (fun (name, (runs, _, steps, ms)) ->
      Format.printf "  %-9s x %3d: %8.1f steps, %6.2f ms step loop per run@." name runs steps ms)
    [ ("noise", noise); ("alignment", align) ];
  Format.printf "  jobs %-2d      : %8.1f ms  (%.2fx, identical: %b)@." jobs (1e3 *. wn)
    (w1 /. wn) identical;
  match json with
  | None -> ()
  | Some path ->
      let fl v =
        if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
        else Printf.sprintf "%.6g" v
      in
      let kind_json (runs, _, steps, ms) =
        Printf.sprintf "{\"runs\": %d, \"steps_per_run\": %s, \"step_loop_ms_per_run\": %s}" runs
          (fl steps) (fl ms)
      in
      let buf = Buffer.create 512 in
      Printf.bprintf buf "{\n  \"schema\": \"rlc-bench-xtalk/2\",\n";
      Printf.bprintf buf "  \"host\": %s,\n" (host_json ~smoke);
      Printf.bprintf buf "  \"bits\": %d,\n  \"alignments\": %d,\n" bits alignments;
      Printf.bprintf buf
        "  \"screen\": {\"pairs\": %d, \"screened\": %d, \"rate\": %s, \"ms_total\": %s, \
         \"us_per_pair\": %s},\n"
        n_pairs stats.X.n_screened (fl screen_rate)
        (fl (1e3 *. screen_s))
        (fl (1e6 *. screen_s /. float_of_int (max 1 n_pairs)));
      Printf.bprintf buf
        "  \"simulate\": {\"victims\": %d, \"alignment_sims\": %d, \"transients\": %d, \
         \"noise\": %s, \"alignment\": %s},\n"
        n_victim_sims stats.X.n_alignment_sims n_transients (kind_json noise) (kind_json align);
      Printf.bprintf buf
        "  \"scaling\": {\"jobs\": %d, \"recommended_domains\": %d, \"wall_s_jobs1\": %s, \
         \"wall_s_jobsN\": %s, \"speedup\": %s, \"fragments_identical\": %b}\n"
        jobs rec_domains (fl w1) (fl wn)
        (fl (w1 /. wn))
        identical;
      Printf.bprintf buf "}\n";
      let oc = open_out path in
      output_string oc (Buffer.contents buf);
      close_out oc;
      Format.printf "wrote %s@." path

(* ------------------------------------------------------------- optimize *)

(* Two measurements behind `rlc_timing optimize`:

   1. the compiled-transient candidate kernel: the sweep's unit of work is
      a small-circuit adaptive replay repeated across candidate values.
      Engine.Compiled amortizes compile + DC solve + state allocation
      across runs (the handle cache restamps new values into the shared
      structure); the bench asserts the reuse is >= 3x AND that every
      waveform is bit-identical to a fresh Engine.transient run;
   2. the end-to-end sizing run on a deliberately under-sized bus: search
      ladder stats (candidates / screened / escalations), characterization
      and handle-cache hit ratios, jobs scaling with byte-identical
      reports asserted.

   `--json` writes the numbers as BENCH_optimize.json. *)

let optimize_bench ?(smoke = false) ~jobs ?json () =
  header "Optimize: compiled-transient reuse and the sizing sweep";
  let module Engine = Rlc_circuit.Engine in
  let module Netlist = Rlc_circuit.Netlist in
  let module Waveform = Rlc_waveform.Waveform in
  (* -------------------- 1. candidate-evaluation kernel ----------------- *)
  (* The coupled-cluster replay a candidate sweep repeats: an 8-bit bus,
     victim quiet, aggressors ramping at a candidate-dependent alignment.
     Candidates differ only in source timing, so the handle restamps clean
     — every factored per-rung/per-offcut solver state and the DC point
     survive across runs.  The recompile baseline rebuilds all of it each
     run, and at this node count (production [Ladder.default_segments] is
     40-100 for mm-scale lines) the nodal matrix is past the banded cutoff:
     each of those rebuilds is a dense O(n^3) factorization, one per rung
     touched plus one per breakpoint offcut, against O(n^2) per step. *)
  let kbits = 8 and ksegs = 64 in
  let tr = 30e-12 in
  let ramp t0 t = if t <= t0 then 0. else if t >= t0 +. tr then 1. else (t -. t0) /. tr in
  let build t_off =
    let nl = Netlist.create () in
    let nodes = Array.make_matrix kbits ksegs Netlist.ground in
    for b = 0 to kbits - 1 do
      let src = Netlist.node nl (Printf.sprintf "s%d" b) in
      if b = 0 then Netlist.force_voltage nl ~breakpoints:[] src (fun _ -> 0.)
      else begin
        (* Per-bit stagger: bus bits switch at distinct times, so each run
           lands on many source kinks (each an offcut factorization for the
           recompile baseline). *)
        let t0b = t_off +. (3e-12 *. float_of_int b) in
        Netlist.force_voltage nl ~breakpoints:[ t0b; t0b +. tr ] src (ramp t0b)
      end;
      let prev = ref src in
      for s = 0 to ksegs - 1 do
        let n = Netlist.node nl (Printf.sprintf "n%d_%d" b s) in
        nodes.(b).(s) <- n;
        let r = if s = 0 then 100. else 120. /. float_of_int ksegs in
        Netlist.resistor nl !prev n r;
        Netlist.inductor nl !prev n (1e-10 /. float_of_int ksegs);
        Netlist.capacitor nl n Netlist.ground (60e-15 /. float_of_int ksegs);
        prev := n
      done
    done;
    for b = 0 to kbits - 2 do
      for s = 0 to ksegs - 1 do
        Netlist.capacitor nl nodes.(b).(s) nodes.(b + 1).(s) (30e-15 /. float_of_int ksegs)
      done
    done;
    (nl, nodes.(0).(ksegs - 1))
  in
  let n_cands = if smoke then 2 else 8 in
  let offs = Array.init n_cands (fun i -> 10e-12 +. (5e-12 *. float_of_int i)) in
  let dt = 0.5e-12 and t_stop = 120e-12 in
  let adaptive = Engine.default_adaptive ~dt_min:dt () in
  let fresh_eval i =
    let nl, victim = build offs.(i mod n_cands) in
    (Engine.transient ~record_nodes:[ victim ] ~adaptive ~dt ~t_stop nl, victim)
  in
  let compiled_eval i =
    let nl, victim = build offs.(i mod n_cands) in
    ( Engine.Compiled.run ~record_nodes:[ victim ] ~adaptive ~dt ~t_stop
        (Engine.Compiled.cached nl),
      victim )
  in
  Engine.Compiled.clear_cache ();
  let identical = ref true in
  for i = 0 to n_cands - 1 do
    let rf, vf = fresh_eval i and rc, vc = compiled_eval i in
    if
      Engine.times rf <> Engine.times rc
      || Waveform.values (Engine.voltage rf vf) <> Waveform.values (Engine.voltage rc vc)
    then identical := false
  done;
  (* Runs cost 0.1-0.5 s each, so measure a fixed rep count (caches are
     already warm from the identity pass) instead of time_per_run's
     calibrated batching. *)
  let reps = if smoke then 2 else 6 in
  let measure eval =
    ignore (eval 0);
    let t0 = Unix.gettimeofday () in
    for i = 0 to reps - 1 do ignore (eval i) done;
    (Unix.gettimeofday () -. t0) /. float_of_int reps
  in
  let fresh_s = measure fresh_eval in
  let compiled_s = measure compiled_eval in
  let kernel_speedup = fresh_s /. compiled_s in
  Format.printf
    "@.candidate kernel (%d-bit coupled cluster, %d segments/bit, %d alignment candidates):@."
    kbits ksegs n_cands;
  Format.printf "  fresh transient : %7.1f ms/run  (compile + DC + dense factor per rung/offcut)@."
    (1e3 *. fresh_s);
  Format.printf "  compiled handle : %7.1f ms/run  (restamp: factored states and DC survive)@."
    (1e3 *. compiled_s);
  Format.printf "  speedup         : %7.2fx  (waveforms bit-identical: %b)@." kernel_speedup
    !identical;
  if not !identical then begin
    Format.eprintf "FAIL: compiled kernel waveforms differ from fresh transients@.";
    exit 1
  end;
  if kernel_speedup < 3. then begin
    Format.eprintf "FAIL: compiled-reuse speedup %.2fx < 3x@." kernel_speedup;
    exit 1
  end;
  (* ------------------------ 2. sizing sweep --------------------------- *)
  let bits = if smoke then 4 else 16 in
  let spef_src, spec_src = flow_sources ~bits () in
  let spef = Result.get_ok (Rlc_spef.Spef.parse_res spef_src) in
  let spec = Result.get_ok (Rlc_flow.Spec.parse_res spec_src) in
  (* Under-size every driver to 25X so the optimizer has real work. *)
  let spec =
    {
      spec with
      Rlc_flow.Spec.drivers = List.map (fun (n, _) -> (n, 25.)) spec.Rlc_flow.Spec.drivers;
    }
  in
  let required = Rlc_num.Units.ps 150. in
  let run_opt ~jobs =
    let cfg =
      { Rlc_flow.Flow.Config.default with Rlc_flow.Flow.Config.jobs = Some jobs }
    in
    let t0 = Unix.gettimeofday () in
    match Rlc_flow.Optimize.run ~required cfg ~spef ~spec () with
    | Ok o -> (o, Unix.gettimeofday () -. t0)
    | Error e -> failwith (Rlc_errors.Error.message e)
  in
  let o1, w1 = run_opt ~jobs:1 in
  let on_, wn = run_opt ~jobs in
  let reports_identical =
    Rlc_flow.Report.optimize_json_string o1 = Rlc_flow.Report.optimize_json_string on_
  in
  let s = o1.Rlc_flow.Optimize.stats in
  let module O = Rlc_flow.Optimize in
  let ratio a b = if a + b = 0 then 0. else float_of_int a /. float_of_int (a + b) in
  Format.printf "@.sizing sweep (%d-bit bus, 25X seeds, required %.0f ps):@." bits
    (1e12 *. required);
  Format.printf "  violations      : %d -> %d  (%d resized, %d repeater recs, %d unfixable)@."
    s.O.o_violations_before s.O.o_violations_after s.O.o_resized s.O.o_repeaters
    s.O.o_unfixable;
  Format.printf "  search ladder   : %d candidates, %d screened, %d escalations@."
    s.O.o_candidates s.O.o_screened s.O.o_escalations;
  Format.printf "  characterization: %.0f%% hit (%d/%d);  handles: %.0f%% hit (%d/%d)@."
    (100. *. ratio s.O.o_char_hits s.O.o_char_misses)
    s.O.o_char_hits
    (s.O.o_char_hits + s.O.o_char_misses)
    (100. *. ratio s.O.o_handle_hits s.O.o_handle_misses)
    s.O.o_handle_hits
    (s.O.o_handle_hits + s.O.o_handle_misses);
  Format.printf
    "  jobs 1 -> %-2d    : %6.2f s -> %6.2f s  (%.2fx incl. warm memo caches, reports \
     identical: %b)@."
    jobs w1 wn (w1 /. wn) reports_identical;
  if not reports_identical then begin
    Format.eprintf "FAIL: optimize reports differ across jobs counts@.";
    exit 1
  end;
  match json with
  | None -> ()
  | Some path ->
      let fl v =
        if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
        else Printf.sprintf "%.6g" v
      in
      let buf = Buffer.create 512 in
      Printf.bprintf buf "{\n  \"schema\": \"rlc-bench-optimize/1\",\n";
      Printf.bprintf buf "  \"smoke\": %b,\n" smoke;
      Printf.bprintf buf
        "  \"kernel\": {\"bits\": %d, \"segments\": %d, \"candidates\": %d, \
         \"fresh_ms_per_run\": %s, \"compiled_ms_per_run\": %s, \"speedup\": %s, \
         \"waveforms_identical\": %b},\n"
        kbits ksegs n_cands
        (fl (1e3 *. fresh_s))
        (fl (1e3 *. compiled_s))
        (fl kernel_speedup) !identical;
      Printf.bprintf buf
        "  \"sizing\": {\"bits\": %d, \"required_ps\": %s, \"violations_before\": %d, \
         \"violations_after\": %d, \"resized\": %d, \"repeater_recommendations\": %d, \
         \"unfixable\": %d, \"candidates\": %d, \"screened\": %d, \"escalations\": %d, \
         \"char_hit_ratio\": %s, \"handle_hit_ratio\": %s, \"wall_s_jobs1\": %s, \
         \"wall_s_jobsN\": %s, \"jobs\": %d, \"speedup\": %s, \"reports_identical\": %b}\n"
        bits
        (fl (1e12 *. required))
        s.O.o_violations_before s.O.o_violations_after s.O.o_resized s.O.o_repeaters
        s.O.o_unfixable s.O.o_candidates s.O.o_screened s.O.o_escalations
        (fl (ratio s.O.o_char_hits s.O.o_char_misses))
        (fl (ratio s.O.o_handle_hits s.O.o_handle_misses))
        (fl w1) (fl wn) jobs
        (fl (w1 /. wn))
        reports_identical;
      Printf.bprintf buf "}\n";
      let oc = open_out path in
      output_string oc (Buffer.contents buf);
      close_out oc;
      Format.printf "wrote %s@." path

(* ---------------------------------------------------------------- main *)

let () =
  let all =
    [
      "table1"; "fig1"; "fig3"; "fig4"; "fig5"; "fig6"; "fig7"; "ablation"; "flow"; "engine";
      "service"; "service_concurrent"; "xtalk"; "optimize"; "perf";
    ]
  in
  (* Flags: --jobs N (table1/fig7/engine fan out over a domain pool),
     --json PATH (engine group writes BENCH_engine.json there; implies the
     engine group unless engine, service or xtalk was requested explicitly;
     when several groups run, service and xtalk fall back to
     BENCH_service.json / BENCH_xtalk.json so nothing clobbers anything),
     --smoke (short timings for CI). *)
  let json_out = ref None and jobs_arg = ref 1 and smoke = ref false in
  let rec parse acc = function
    | [] -> List.rev acc
    | "--json" :: path :: rest ->
        json_out := Some path;
        parse acc rest
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
    | "--smoke" :: rest ->
        smoke := true;
        parse acc rest
    | x :: rest -> parse (x :: acc) rest
  in
  let requested = parse [] (List.tl (Array.to_list Sys.argv)) in
  let requested = match requested with [] -> all | r -> r in
  let requested =
    if
      !json_out <> None
      && (not (List.mem "engine" requested))
      && (not (List.mem "service" requested))
      && (not (List.mem "xtalk" requested))
      && not (List.mem "optimize" requested)
    then requested @ [ "engine" ]
    else requested
  in
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
      | "flow" -> flow_bench ()
      | "engine" -> engine_bench ~jobs:!jobs_arg ~smoke:!smoke ?json:!json_out ()
      | "service" ->
          let json =
            match !json_out with
            | Some p when not (List.mem "engine" requested) -> Some p
            | Some _ -> Some "BENCH_service.json"
            | None -> None
          in
          service_bench ~smoke:!smoke ?json ()
      | "service_concurrent" ->
          (* Just the concurrent serving measurement, no JSON artifact —
             the `service` group embeds the same numbers in its file. *)
          header "Service: concurrent socket serving";
          let bits = if !smoke then 4 else 16 in
          let spef_src, spec_src = flow_sources ~bits () in
          let flow_req =
            service_request
              [
                ("kind", Sjson.Str "flow");
                ("spef", Sjson.Str spef_src);
                ("spec", Sjson.Str spec_src);
              ]
          in
          print_service_concurrent (service_concurrent_measure ~smoke:!smoke ~flow_req ())
      | "xtalk" ->
          (* Like service: never clobber the engine group's --json path. *)
          let json =
            match !json_out with Some _ -> Some "BENCH_xtalk.json" | None -> None
          in
          xtalk_bench ~smoke:!smoke ~jobs:!jobs_arg ?json ()
      | "optimize" ->
          (* Like xtalk: never clobber the engine group's --json path. *)
          let json =
            match !json_out with Some _ -> Some "BENCH_optimize.json" | None -> None
          in
          optimize_bench ~smoke:!smoke ~jobs:!jobs_arg ?json ()
      | "perf" -> perf ()
      | other ->
          Format.eprintf
            "unknown experiment %S (known: %s, fig7-fast; flags: --jobs N, --json PATH, \
             --smoke)@."
            other (String.concat ", " all);
          exit 2)
    requested
