(* Core-model tests: Ceff closed forms against quadrature, hand integrals,
   the paper's printed formulas, and time-domain circuit simulation; the
   Eq. 9 screen; and the end-to-end driver model against the reference
   simulator on paper-named cases. *)
open Rlc_ceff
open Rlc_moments
open Rlc_tline
open Rlc_waveform
open Rlc_num

let check_float ?(eps = 1e-9) msg expected actual =
  Alcotest.(check (float eps)) msg expected actual

let cell_exn tech ~size =
  match Rlc_liberty.Characterize.cell_res tech ~size with
  | Ok c -> c
  | Error e -> failwith (Rlc_errors.Error.message e)

let check_rel ?(tol = 1e-6) msg expected actual =
  Alcotest.(check (float (tol *. (Float.abs expected +. 1e-300)))) msg expected actual

let tech = Rlc_devices.Tech.c018

(* Loads with known pole structure. *)
let pade_rc = Pade.of_tree (Tree.make ~cap:0. ~children:[ (100., 0., Tree.leaf 1e-12) ] ())

let pade_underdamped =
  (* zeta ~ 0.22: complex poles. *)
  Pade.of_tree (Tree.make ~cap:0. ~children:[ (14., 1e-9, Tree.leaf 1e-12) ] ())

let pade_overdamped =
  (* zeta ~ 7.9: real poles. *)
  Pade.of_tree (Tree.make ~cap:0. ~children:[ (500., 1e-9, Tree.leaf 1e-12) ] ())

let line7 = Line.of_totals ~r:101.3 ~l:7.1e-9 ~c:1.54e-12 ~length:7e-3
let pade_line7 = Pade.of_load line7 ~cl:10e-15

(* ------------------------------------------------------------- poles *)

let test_pole_classification () =
  (match Ceff.poles_of pade_underdamped with
  | Ceff.Pole_pair (s1, s2) ->
      Alcotest.(check bool) "complex pair" true (s1.Cx.im > 0. && s2.Cx.im < 0.)
  | _ -> Alcotest.fail "expected a pole pair");
  (match Ceff.poles_of pade_overdamped with
  | Ceff.Pole_pair (s1, s2) ->
      Alcotest.(check bool) "real poles" true (s1.Cx.im = 0. && s2.Cx.im = 0.);
      Alcotest.(check bool) "stable" true (s1.Cx.re < 0. && s2.Cx.re < 0.)
  | _ -> Alcotest.fail "expected a pole pair");
  (match Ceff.poles_of pade_rc with
  | Ceff.Single_pole s -> check_rel "pole at -1/RC" (-1e10) s
  | _ -> Alcotest.fail "lumped RC should degenerate to a single pole")

let test_unstable_rejected () =
  let bad = { Pade.a1 = 1e-12; a2 = 0.; a3 = 0.; b1 = -1e-10; b2 = 1e-20 } in
  Alcotest.(check bool) "raises Unstable_load" true
    (match Ceff.first_ramp bad ~f:0.5 ~tr:100e-12 with
    | _ -> false
    | exception Ceff.Unstable_load _ -> true)

(* ---------------------------------------------------- charge algebra *)

let test_rc_hand_integral () =
  (* Series RC driven by a ramp: Ceff = C (1 - (RC/(fT)) (1 - e^{-fT/RC})). *)
  let r = 100. and c = 1e-12 in
  let check_at f tr =
    let rc = r *. c in
    let ft = f *. tr in
    let expected = c *. (1. -. (rc /. ft *. (1. -. Float.exp (-.ft /. rc)))) in
    check_rel
      (Printf.sprintf "f=%.2f tr=%g" f tr)
      expected
      (Ceff.first_ramp pade_rc ~f ~tr)
  in
  check_at 0.5 100e-12;
  check_at 1.0 100e-12;
  check_at 0.7 50e-12;
  check_at 1.0 2e-9

let test_first_ramp_vs_numeric () =
  List.iter
    (fun (name, pade) ->
      List.iter
        (fun (f, tr) ->
          check_rel ~tol:1e-8
            (Printf.sprintf "%s f=%.2f tr=%.0f ps" name f (Units.in_ps tr))
            (Ceff.first_ramp_numeric pade ~f ~tr)
            (Ceff.first_ramp pade ~f ~tr))
        [ (0.3, 50e-12); (0.6, 100e-12); (1.0, 80e-12); (0.95, 400e-12) ])
    [ ("rc", pade_rc); ("underdamped", pade_underdamped); ("overdamped", pade_overdamped);
      ("line7", pade_line7) ]

let test_second_ramp_vs_numeric () =
  List.iter
    (fun (name, pade) ->
      List.iter
        (fun (f, tr1, tr2) ->
          check_rel ~tol:1e-8
            (Printf.sprintf "%s f=%.2f" name f)
            (Ceff.second_ramp_numeric pade ~f ~tr1 ~tr2)
            (Ceff.second_ramp pade ~f ~tr1 ~tr2))
        [ (0.55, 40e-12, 150e-12); (0.7, 60e-12, 300e-12); (0.3, 30e-12, 100e-12) ])
    [ ("underdamped", pade_underdamped); ("overdamped", pade_overdamped); ("line7", pade_line7) ]

let test_paper_eq4_matches () =
  List.iter
    (fun (f, tr) ->
      check_rel ~tol:1e-9 "Eq. 4 = complex implementation"
        (Ceff.first_ramp pade_overdamped ~f ~tr)
        (Ceff.first_ramp_paper_real pade_overdamped ~f ~tr))
    [ (0.4, 60e-12); (0.8, 120e-12); (1.0, 100e-12) ]

let test_paper_eq6_matches () =
  List.iter
    (fun (f, tr1, tr2) ->
      check_rel ~tol:1e-9 "Eq. 6 = complex implementation"
        (Ceff.second_ramp pade_overdamped ~f ~tr1 ~tr2)
        (Ceff.second_ramp_paper_real pade_overdamped ~f ~tr1 ~tr2))
    [ (0.55, 40e-12, 150e-12); (0.75, 80e-12, 250e-12) ]

let test_paper_real_rejects_complex_poles () =
  Alcotest.(check bool) "complex poles rejected" true
    (match Ceff.first_ramp_paper_real pade_underdamped ~f:0.5 ~tr:100e-12 with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_pure_cap_identity () =
  let p = Pade.fit [| 0.; 0.5e-12; 0.; 0.; 0.; 0. |] in
  check_rel "any f/tr gives Ctot" 0.5e-12 (Ceff.first_ramp p ~f:0.37 ~tr:123e-12)

let test_slow_ramp_limit () =
  (* A very slow ramp sees the full capacitance: Ceff -> a1. *)
  let c = Ceff.first_ramp pade_line7 ~f:1.0 ~tr:1e-6 in
  check_rel ~tol:1e-3 "slow ramp converges to Ctot" (Pade.total_cap pade_line7) c

let test_fast_ramp_shielding () =
  (* Fast ramps see less charge than the total capacitance on RC loads. *)
  let fast = Ceff.first_ramp pade_rc ~f:1.0 ~tr:20e-12 in
  let slow = Ceff.first_ramp pade_rc ~f:1.0 ~tr:2e-9 in
  Alcotest.(check bool) "shielding monotone" true (fast < slow && slow <= 1e-12 +. 1e-15)

let test_initial_current_identity () =
  (* I(0+) = (vdd/tr) a3/b2: the residues must sum to the high-frequency
     (near-end) capacitance. *)
  let p = pade_line7 in
  let i0 = Ceff.ramp_current p ~vdd:1.8 ~tr:100e-12 0. in
  check_rel ~tol:1e-6 "high-frequency cap" (1.8 /. 100e-12 *. (p.Pade.a3 /. p.Pade.b2)) i0

let test_ceff50_vs_ceff100 () =
  (* Figure 3's two single-Ceff variants: charge to 50% sees less of the
     load than charge to 100%. *)
  let tr = 150e-12 in
  let c50 = Ceff.first_ramp pade_line7 ~f:0.5 ~tr in
  let c100 = Ceff.first_ramp pade_line7 ~f:1.0 ~tr in
  Alcotest.(check bool)
    (Printf.sprintf "c50=%.0f fF < c100=%.0f fF <= ctot" (Units.in_ff c50) (Units.in_ff c100))
    true
    (c50 < c100 && c100 <= Pade.total_cap pade_line7 *. 1.0001)

(* Time-domain oracle: the charge drawn from a ramp source by the actual
   discretized line equals sum C_i v_i(T); Ceff from the Pade closed form
   must agree within the Pade fit + discretization error. *)
let test_charge_matches_circuit_simulation () =
  let open Rlc_circuit in
  let line = line7 and cl = 10e-15 in
  let vdd = 1.8 and tr = 150e-12 and f = 0.6 in
  let nl = Netlist.create () in
  let src = Netlist.node nl "src" in
  Netlist.force_voltage nl src (fun t -> if t <= 0. then 0. else Float.min vdd (vdd *. t /. tr));
  let far = ref Netlist.ground in
  Ladder.attach_load ~n_segments:200 line ~cl nl src far;
  let r = Engine.transient ~dt:0.1e-12 ~t_stop:(f *. tr) nl in
  (* Q(T) = sum_i C_i v_i(T): every ladder cap is C_tot/n at the chain
     nodes, plus cl at the far end. *)
  let n_seg = 200 in
  let dc = Line.total_c line /. float_of_int n_seg in
  let t_end = f *. tr in
  let q = ref 0. in
  (* Ladder nodes were allocated after src: mid/new pairs; shunt caps sit on
     every second allocated node. *)
  for i = 1 to n_seg do
    let node = src + (2 * i) in
    q := !q +. (dc *. Engine.voltage_at r node t_end)
  done;
  q := !q +. (cl *. Engine.voltage_at r !far t_end);
  let ceff_sim = !q /. (f *. vdd) in
  let ceff_model = Ceff.first_ramp pade_line7 ~f ~tr in
  let rel = Float.abs ((ceff_model -. ceff_sim) /. ceff_sim) in
  Alcotest.(check bool)
    (Printf.sprintf "closed form %.1f fF vs simulated charge %.1f fF (%.1f%%)"
       (Units.in_ff ceff_model) (Units.in_ff ceff_sim) (100. *. rel))
    true (rel < 0.08)

let prop_first_ramp_bounded_for_rc_chains =
  QCheck.Test.make ~name:"Ceff in (0, Ctot] for random RC chains" ~count:150
    QCheck.(
      triple (float_range 10. 500.) (float_range 0.1e-12 2e-12) (float_range 20e-12 500e-12))
    (fun (r, c, tr) ->
      let p = Pade.of_tree (Tree.make ~cap:0. ~children:[ (r, 0., Tree.leaf c) ] ()) in
      let v = Ceff.first_ramp p ~f:1.0 ~tr in
      v > 0. && v <= (c *. (1. +. 1e-9)))

let prop_closed_form_equals_quadrature =
  QCheck.Test.make ~name:"closed form = quadrature for random RLC loads" ~count:60
    QCheck.(
      quad (float_range 10. 300.) (float_range 0.5e-9 8e-9) (float_range 0.2e-12 2e-12)
        (float_range 30e-12 300e-12))
    (fun (r, l, c, tr) ->
      let p = Pade.of_tree (Tree.make ~cap:0. ~children:[ (r, l, Tree.leaf c) ] ()) in
      let a = Ceff.first_ramp p ~f:0.7 ~tr in
      let b = Ceff.first_ramp_numeric p ~f:0.7 ~tr in
      Float.abs (a -. b) < 1e-6 *. Float.abs b)

(* -------------------------------------------------------------- screen *)

let line5 = Line.of_totals ~r:72.44 ~l:5.14e-9 ~c:1.10e-12 ~length:5e-3

let test_screen_all_pass () =
  let v = Screen.evaluate ~line:line5 ~cl:20e-15 ~rs:40. ~tr1:70e-12 in
  Alcotest.(check bool) "significant" true v.Screen.significant

let test_screen_individual_criteria () =
  let base ~cl ~rs ~tr1 = Screen.evaluate ~line:line5 ~cl ~rs ~tr1 in
  let v = base ~cl:(0.5 *. Line.total_c line5) ~rs:40. ~tr1:70e-12 in
  Alcotest.(check bool) "big CL fails" false v.Screen.significant;
  Alcotest.(check bool) "cl flag" false v.Screen.cl_ok;
  let v = base ~cl:20e-15 ~rs:200. ~tr1:70e-12 in
  Alcotest.(check bool) "weak driver fails" false v.Screen.significant;
  Alcotest.(check bool) "rs flag" false v.Screen.rs_ok;
  let v = base ~cl:20e-15 ~rs:40. ~tr1:400e-12 in
  Alcotest.(check bool) "slow output edge fails" false v.Screen.significant;
  Alcotest.(check bool) "tr flag" false v.Screen.tr_ok

let test_screen_resistive_line () =
  let lossy = Line.of_totals ~r:400. ~l:5e-9 ~c:1.1e-12 ~length:5e-3 in
  let v = Screen.evaluate ~line:lossy ~cl:20e-15 ~rs:40. ~tr1:70e-12 in
  Alcotest.(check bool) "overdamped line fails Rl <= 2 Z0" false v.Screen.rl_ok

(* -------------------------------------------------- end-to-end model *)

let fig1_case =
  Evaluate.case ~label:"5/1.6 75x s100" ~length_mm:5. ~width_um:1.6 ~size:75.
    ~input_slew_ps:100. ()

let fig6l_case =
  Evaluate.case ~label:"4/1.6 25x s100" ~length_mm:4. ~width_um:1.6 ~size:25.
    ~input_slew_ps:100. ()

let fig1_cmp = lazy (Evaluate.run ~dt:0.5e-12 fig1_case)

let test_inductive_case_uses_two_ramp () =
  let c = Lazy.force fig1_cmp in
  Alcotest.(check bool) "screen fires" true
    c.Evaluate.auto_model.Driver_model.screen.Screen.significant;
  (match c.Evaluate.auto_model.Driver_model.shape with
  | Driver_model.Two_ramp _ -> ()
  | Driver_model.One_ramp _ -> Alcotest.fail "expected two-ramp");
  let f = c.Evaluate.auto_model.Driver_model.f in
  Alcotest.(check bool) (Printf.sprintf "breakpoint f=%.2f in (0.5, 0.8)" f) true
    (f > 0.5 && f < 0.8)

let test_two_ramp_accuracy_on_fig1 () =
  let c = Lazy.force fig1_cmp in
  let derr = Evaluate.delay_err_pct c c.Evaluate.two_ramp in
  let serr = Evaluate.slew_err_pct c c.Evaluate.two_ramp in
  Alcotest.(check bool) (Printf.sprintf "two-ramp delay err %.1f%% within 15%%" derr) true
    (Float.abs derr < 15.);
  Alcotest.(check bool) (Printf.sprintf "two-ramp slew err %.1f%% within 25%%" serr) true
    (Float.abs serr < 25.)

let test_one_ramp_fails_on_fig1 () =
  (* The paper's headline: single-Ceff overestimates delay and grossly
     underestimates slew on inductive lines. *)
  let c = Lazy.force fig1_cmp in
  let derr = Evaluate.delay_err_pct c c.Evaluate.one_ramp in
  let serr = Evaluate.slew_err_pct c c.Evaluate.one_ramp in
  Alcotest.(check bool) (Printf.sprintf "one-ramp delay err %.1f%% > +25%%" derr) true
    (derr > 25.);
  Alcotest.(check bool) (Printf.sprintf "one-ramp slew err %.1f%% < -25%%" serr) true
    (serr < -25.)

let test_two_ramp_beats_one_ramp () =
  let c = Lazy.force fig1_cmp in
  Alcotest.(check bool) "delay improves" true
    (Float.abs (Evaluate.delay_err_pct c c.Evaluate.two_ramp)
    < Float.abs (Evaluate.delay_err_pct c c.Evaluate.one_ramp));
  Alcotest.(check bool) "slew improves" true
    (Float.abs (Evaluate.slew_err_pct c c.Evaluate.two_ramp)
    < Float.abs (Evaluate.slew_err_pct c c.Evaluate.one_ramp))

let test_weak_driver_screens_rc () =
  let c = Evaluate.run ~dt:0.5e-12 fig6l_case in
  Alcotest.(check bool) "screen rejects 25X" false
    c.Evaluate.auto_model.Driver_model.screen.Screen.significant;
  (match c.Evaluate.auto_model.Driver_model.shape with
  | Driver_model.One_ramp _ -> ()
  | Driver_model.Two_ramp _ -> Alcotest.fail "expected one-ramp");
  let derr = Evaluate.delay_err_pct c c.Evaluate.auto in
  Alcotest.(check bool) (Printf.sprintf "one-ramp delay err %.1f%% within 20%%" derr) true
    (Float.abs derr < 20.)

let test_model_waveform_consistency () =
  let c = Lazy.force fig1_cmp in
  let m = c.Evaluate.two_ramp_model in
  let w = Driver_model.output_waveform ~n:1024 m in
  Alcotest.(check bool) "monotone" true (Waveform.is_monotone_rising ~tol:1e-12 w);
  check_float ~eps:1e-9 "ends at vdd" tech.Rlc_devices.Tech.vdd (Waveform.v_final w);
  let t50 = Measure.t_frac_exn w ~vdd:tech.Rlc_devices.Tech.vdd ~edge:Measure.Rising ~frac:0.5 in
  check_float ~eps:1e-13 "50% crossing = table delay" m.Driver_model.delay_50 t50

let test_breakpoint_on_waveform () =
  let c = Lazy.force fig1_cmp in
  let m = c.Evaluate.two_ramp_model in
  match m.Driver_model.shape with
  | Driver_model.Two_ramp { ceff1; _ } ->
      let t0 = fst (List.hd (Rlc_waveform.Pwl.points m.Driver_model.pwl)) in
      let t_break = t0 +. (m.Driver_model.f *. ceff1.Driver_model.ramp) in
      check_float ~eps:1e-6 "waveform hits f*vdd at the breakpoint"
        (m.Driver_model.f *. m.Driver_model.vdd)
        (Rlc_waveform.Pwl.eval m.Driver_model.pwl t_break)
  | _ -> Alcotest.fail "expected two-ramp"

let test_forced_one_ramp_slew_geometry () =
  let c = Lazy.force fig1_cmp in
  let m = c.Evaluate.one_ramp_model in
  match m.Driver_model.shape with
  | Driver_model.One_ramp { ceff; _ } ->
      check_rel ~tol:1e-3 "slew = 0.8 Tr" (0.8 *. ceff.Driver_model.ramp)
        (Driver_model.model_slew_10_90 m)
  | _ -> Alcotest.fail "expected one-ramp"

let test_flat_step_geometry () =
  let c = Lazy.force fig1_cmp in
  let m = c.Evaluate.two_ramp_flat_model in
  match m.Driver_model.shape with
  | Driver_model.Two_ramp { ceff1; plateau; plateau_mode = Driver_model.Flat_step; _ } ->
      Alcotest.(check bool) "plateau positive for fig1" true (plateau > 0.);
      (* The waveform must hold the breakpoint voltage across the plateau. *)
      let t0 = fst (List.hd (Rlc_waveform.Pwl.points m.Driver_model.pwl)) in
      let t_break = t0 +. (m.Driver_model.f *. ceff1.Driver_model.ramp) in
      let v_mid = Rlc_waveform.Pwl.eval m.Driver_model.pwl (t_break +. (0.5 *. plateau)) in
      check_float ~eps:1e-9 "flat during plateau" (m.Driver_model.f *. m.Driver_model.vdd) v_mid;
      (* Both plateau treatments complete the transition at the same time. *)
      let stretch = c.Evaluate.two_ramp_model in
      check_float ~eps:1e-22 "same completion time"
        (Driver_model.transition_end stretch)
        (Driver_model.transition_end m)
  | _ -> Alcotest.fail "expected flat-step two-ramp"

let test_flat_step_slew_longer () =
  (* Holding at the breakpoint pushes the 90% crossing later: flat-step slew
     >= stretch slew (this substrate's waveforms have pronounced plateaus,
     which is why the flat variant scores better in the ablation). *)
  let c = Lazy.force fig1_cmp in
  Alcotest.(check bool) "flat slew >= stretch slew" true
    (c.Evaluate.two_ramp_flat.Evaluate.slew >= c.Evaluate.two_ramp.Evaluate.slew -. 1e-15);
  check_float ~eps:1e-15 "same delay anchor" c.Evaluate.two_ramp.Evaluate.delay
    c.Evaluate.two_ramp_flat.Evaluate.delay

let test_rc_tail_activation () =
  (* On the RC-screened 25X case the tangency construction must fire and
     lengthen the modeled slew. *)
  let case = fig6l_case in
  let cell = cell_exn case.Evaluate.tech ~size:case.Evaluate.size in
  let build rc_tail =
    Driver_model.model ~rc_tail ~cell ~edge:Measure.Rising ~input_slew:case.Evaluate.input_slew
      ~line:case.Evaluate.line ~cl:case.Evaluate.cl ()
  in
  let plain = build false and tailed = build true in
  (match tailed.Driver_model.shape with
  | Driver_model.One_ramp { tail = Some t; ceff } ->
      Alcotest.(check bool) "tangency above 50%" true
        (t.Driver_model.v_switch > 0.5 *. tailed.Driver_model.vdd);
      Alcotest.(check bool) "tau = Rs * Ctot plausible" true
        (t.Driver_model.tau > 0.2 *. ceff.Driver_model.ramp);
      (* Tangency: the exponential initial slope equals the ramp slope. *)
      let slope_ramp = tailed.Driver_model.vdd /. ceff.Driver_model.ramp in
      let slope_exp = (tailed.Driver_model.vdd -. t.Driver_model.v_switch) /. t.Driver_model.tau in
      check_rel ~tol:1e-9 "tangent slopes" slope_ramp slope_exp
  | _ -> Alcotest.fail "expected a tail");
  Alcotest.(check bool) "tail lengthens slew" true
    (Driver_model.model_slew_10_90 tailed > Driver_model.model_slew_10_90 plain);
  check_float ~eps:1e-15 "delay unchanged" (Driver_model.model_delay plain)
    (Driver_model.model_delay tailed)

let test_rc_tail_improves_rc_slew () =
  (* Reproduces the paper's pointer to [11]: with strong resistive
     shielding the exponential tail recovers the slew a bare ramp misses. *)
  let c = Evaluate.run ~dt:0.5e-12 fig6l_case in
  let cell = cell_exn fig6l_case.Evaluate.tech ~size:fig6l_case.Evaluate.size in
  let tailed =
    Driver_model.model ~rc_tail:true ~cell ~edge:Measure.Rising
      ~input_slew:fig6l_case.Evaluate.input_slew ~line:fig6l_case.Evaluate.line
      ~cl:fig6l_case.Evaluate.cl ()
  in
  let err m = Float.abs (Measure.pct_error ~actual:c.Evaluate.reference.Evaluate.slew ~model:m) in
  Alcotest.(check bool) "tail beats bare ramp on slew" true
    (err (Driver_model.model_slew_10_90 tailed) < err c.Evaluate.one_ramp.Evaluate.slew)

let test_far_end_replay () =
  let c = Lazy.force fig1_cmp in
  let far = Evaluate.run_far ~dt:0.5e-12 fig1_case c.Evaluate.two_ramp_model in
  let derr =
    Measure.pct_error ~actual:far.Evaluate.far_reference.Evaluate.delay
      ~model:far.Evaluate.far_model.Evaluate.delay
  in
  Alcotest.(check bool) (Printf.sprintf "far-end delay err %.1f%% within 15%%" derr) true
    (Float.abs derr < 15.)

let prop_far_end_tracks_reference_on_screened_cases =
  (* DESIGN.md §6: across random Eq. 9-passing cases, replaying the model
     waveform must reproduce the reference far-end 50% delay.  Draws are
     kept small because each involves two transistor-level transients. *)
  QCheck.Test.make ~name:"far-end delay of model within 15% across screened cases" ~count:5
    QCheck.(
      triple (Gen.float_range 4. 6.5 |> make) (Gen.float_range 1.4 2.6 |> make)
        (Gen.float_range 75. 115. |> make))
    (fun (len_mm, wid_um, size) ->
      let case =
        Evaluate.case
          ~label:(Printf.sprintf "rand %.1f/%.1f %.0fx" len_mm wid_um size)
          ~length_mm:len_mm ~width_um:wid_um ~size ~input_slew_ps:100. ()
      in
      let cell = cell_exn case.Evaluate.tech ~size in
      let m =
        Driver_model.model ~cell ~edge:Measure.Rising ~input_slew:case.Evaluate.input_slew
          ~line:case.Evaluate.line ~cl:case.Evaluate.cl ()
      in
      (* Only screened-inductive draws are in the model's claimed domain. *)
      QCheck.assume m.Driver_model.screen.Screen.significant;
      let far = Evaluate.run_far ~dt:1e-12 case m in
      let err =
        Measure.pct_error ~actual:far.Evaluate.far_reference.Evaluate.delay
          ~model:far.Evaluate.far_model.Evaluate.delay
      in
      Float.abs err < 15.)

(* ----------------------------------------------------------- reference *)

let test_replay_pwl_time_axis () =
  (* The internal "start the source at 10 ps" shift must round-trip: the
     returned waveforms sit on the caller's PWL time axis (driver-model
     waveforms put t = 0 at the input 50 % crossing, so starts are often
     negative), and the forced near-end node reproduces the PWL exactly at
     its own breakpoints. *)
  let line =
    (Evaluate.case ~label:"axis" ~length_mm:2. ~width_um:1.2 ~size:75. ~input_slew_ps:100. ())
      .Evaluate.line
  in
  let pwl = Pwl.ramp ~t0:(-20e-12) ~v0:0. ~v1:1.8 ~transition:80e-12 in
  let check_mode label adaptive =
    let near, far = Reference.replay_pwl ?adaptive ~pwl ~line ~cl:20e-15 () in
    check_float ~eps:1e-18
      (label ^ ": grid starts 10 ps before the source, on the caller's axis")
      (-30e-12) (Waveform.t_start near);
    check_float ~eps:1e-18 (label ^ ": far shares the near time axis")
      (Waveform.t_start near) (Waveform.t_start far);
    Alcotest.(check bool) (label ^ ": window covers the PWL plus the tail") true
      (Waveform.t_end near >= Pwl.end_time pwl +. 1e-9 -. 1e-15);
    List.iter
      (fun (t, v) ->
        check_float ~eps:1e-9 (Printf.sprintf "%s: forced node at %g" label t) v
          (Waveform.value_at near t))
      (Pwl.points pwl)
  in
  check_mode "fixed" None;
  check_mode "adaptive" (Some (Rlc_circuit.Engine.default_adaptive ()))

let test_default_t_stop_covers_table1 () =
  (* The default window must keep >= 20 time-of-flights after the ramp for
     every Table-1 line — the longest (6 mm, widest) line is the binding
     case; a shrunken window would clip the far-end 90 % crossing. *)
  List.iter
    (fun (r : Experiments.paper_row) ->
      let case = Experiments.case_of_row r in
      let t0 = 30e-12 in
      let stop =
        Reference.default_t_stop ~t0 ~input_slew:case.Evaluate.input_slew
          ~line:case.Evaluate.line
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s: window >= t0 + slew + 20 tf" r.Experiments.row_label)
        true
        (stop -. t0 -. case.Evaluate.input_slew
        >= 20. *. Line.time_of_flight case.Evaluate.line -. 1e-15))
    Experiments.table1

let test_adaptive_matches_fixed_on_table1 () =
  (* Acceptance bar for the adaptive engine: the reference delay/slew of
     every scored point must agree with fixed-step to < 1 % while the
     engine takes at least 3x fewer steps (exact counts at jobs 1).  Two
     inputs: a Table-1 case at the default dt_min, and every 70th case of
     the Figure 7 grid with dt_min pinned to the fixed dt.  Sizes are
     characterized first, so neither count includes characterization.
     The adaptive run's steps, refactors and rejected steps are pinned
     exactly ([expect]), so a change to how the transistor-level benches
     step or reuse their solver states shows up here. *)
  let dt = 0.5e-12 in
  let check name ~adaptive ~expect:(steps, refactors, rejected) cases =
    List.iter
      (fun (c : Evaluate.case) -> ignore (cell_exn c.Evaluate.tech ~size:c.Evaluate.size))
      cases;
    let sweep adaptive =
      let obs = Rlc_obs.Obs.create () in
      let s = Experiments.run_sweep ~obs ~dt ?adaptive ~jobs:1 cases in
      (s.Experiments.points, Rlc_obs.Obs.counter (Rlc_obs.Obs.snapshot obs))
    in
    let fixed, fixed_counter = sweep None in
    let adapt, adaptive_counter = sweep (Some adaptive) in
    let fixed_steps = fixed_counter "engine.steps" in
    let adaptive_steps = adaptive_counter "engine.steps" in
    Alcotest.(check bool) (name ^ ": some case scored") true (fixed <> []);
    Alcotest.(check int) (name ^ ": adaptive engine.steps") steps adaptive_steps;
    Alcotest.(check int) (name ^ ": adaptive engine.refactors") refactors
      (adaptive_counter "engine.refactors");
    Alcotest.(check int) (name ^ ": adaptive engine.steps_rejected") rejected
      (adaptive_counter "engine.steps_rejected");
    Alcotest.(check bool)
      (Printf.sprintf "%s: 3x fewer steps (%d adaptive vs %d fixed)" name adaptive_steps
         fixed_steps)
      true
      (adaptive_steps * 3 <= fixed_steps);
    let rel what a b =
      let e = 100. *. Float.abs (a -. b) /. Float.abs b in
      Alcotest.(check bool) (Printf.sprintf "%s within 1%% (%.2f%%)" what e) true (e < 1.)
    in
    List.iter2
      (fun (f : Experiments.sweep_point) (a : Experiments.sweep_point) ->
        let label = f.Experiments.point_case.Evaluate.label in
        rel (label ^ " reference delay") a.Experiments.ref_delay f.Experiments.ref_delay;
        rel (label ^ " reference slew") a.Experiments.ref_slew f.Experiments.ref_slew)
      fixed adapt
  in
  check "table 1" ~adaptive:(Rlc_circuit.Engine.default_adaptive ()) ~expect:(234, 12, 8)
    [ Experiments.case_of_row (List.nth Experiments.table1 11) ];
  check "sweep"
    ~adaptive:(Rlc_circuit.Engine.default_adaptive ~dt_min:dt ())
    ~expect:(805, 45, 8)
    (List.filteri (fun i _ -> i mod 70 = 0) (Experiments.sweep_cases ()))

(* --------------------------------------------------------------- sweep *)

let test_sweep_jobs_deterministic () =
  (* run_sweep must produce identical points and statistics for every jobs
     value, and the parallel progress callback must deliver each completed
     count exactly once. *)
  let cases =
    Evaluate.case ~label:"short" ~length_mm:1. ~width_um:0.8 ~size:25. ~input_slew_ps:200. ()
    :: List.map Experiments.case_of_row (List.filteri (fun i _ -> i < 4) Experiments.table1)
  in
  let s1 = Experiments.run_sweep ~dt:1e-12 ~jobs:1 cases in
  let seen = ref [] in
  let mu = Mutex.create () in
  let s4 =
    Experiments.run_sweep ~dt:1e-12 ~jobs:4
      ~progress:(fun k _n ->
        Mutex.lock mu;
        seen := k :: !seen;
        Mutex.unlock mu)
      cases
  in
  Alcotest.(check int) "n_swept" s1.Experiments.n_swept s4.Experiments.n_swept;
  Alcotest.(check int) "n_inductive" s1.Experiments.n_inductive s4.Experiments.n_inductive;
  Alcotest.(check bool) "some case was inductive" true (s1.Experiments.n_inductive > 0);
  Alcotest.(check bool) "stretch stats identical" true
    (s1.Experiments.stretch = s4.Experiments.stretch);
  Alcotest.(check bool) "flat stats identical" true (s1.Experiments.flat = s4.Experiments.flat);
  let key p =
    ( p.Experiments.ref_delay,
      p.Experiments.ref_slew,
      p.Experiments.model_delay,
      p.Experiments.model_slew,
      p.Experiments.delay_err_pct,
      p.Experiments.slew_err_pct )
  in
  Alcotest.(check bool) "points identical and in case order" true
    (List.map key s1.Experiments.points = List.map key s4.Experiments.points);
  let expected = List.init s4.Experiments.n_inductive (fun i -> i + 1) in
  Alcotest.(check (list int)) "progress counts each completion once" expected
    (List.sort compare !seen)

(* The sweep characterizes its distinct sizes before the screen pass, so
   the screen's concurrent jobs never miss the same cell at once: k sizes
   cost exactly k misses. *)
let test_sweep_characterizes_each_size_once () =
  let sizes = [ 30.; 45.; 90. ] in
  let cases =
    List.concat_map
      (fun size ->
        List.map
          (fun length_mm ->
            Evaluate.case ~label:"short" ~length_mm ~width_um:0.8 ~size ~input_slew_ps:200. ())
          [ 0.25; 0.5; 0.75; 1. ])
      sizes
  in
  Rlc_liberty.Characterize.clear_cache ();
  let before = Rlc_liberty.Characterize.stats () in
  ignore (Experiments.run_sweep ~dt:1e-12 ~jobs:2 cases);
  let after = Rlc_liberty.Characterize.stats () in
  Alcotest.(check int) "one miss per distinct size" (List.length sizes)
    (after.Rlc_obs.Memo.misses - before.Rlc_obs.Memo.misses)

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "rlc_ceff"
    [
      ( "poles",
        [
          Alcotest.test_case "classification" `Quick test_pole_classification;
          Alcotest.test_case "unstable rejected" `Quick test_unstable_rejected;
        ] );
      ( "charge",
        [
          Alcotest.test_case "RC hand integral" `Quick test_rc_hand_integral;
          Alcotest.test_case "first ramp vs quadrature" `Quick test_first_ramp_vs_numeric;
          Alcotest.test_case "second ramp vs quadrature" `Quick test_second_ramp_vs_numeric;
          Alcotest.test_case "paper Eq. 4" `Quick test_paper_eq4_matches;
          Alcotest.test_case "paper Eq. 6" `Quick test_paper_eq6_matches;
          Alcotest.test_case "Eq. 4 rejects complex poles" `Quick test_paper_real_rejects_complex_poles;
          Alcotest.test_case "pure cap identity" `Quick test_pure_cap_identity;
          Alcotest.test_case "slow ramp limit" `Quick test_slow_ramp_limit;
          Alcotest.test_case "fast ramp shielding" `Quick test_fast_ramp_shielding;
          Alcotest.test_case "initial current identity" `Quick test_initial_current_identity;
          Alcotest.test_case "Ceff50 < Ceff100" `Quick test_ceff50_vs_ceff100;
          Alcotest.test_case "charge vs circuit simulation" `Quick test_charge_matches_circuit_simulation;
          q prop_first_ramp_bounded_for_rc_chains;
          q prop_closed_form_equals_quadrature;
        ] );
      ( "screen",
        [
          Alcotest.test_case "all pass" `Quick test_screen_all_pass;
          Alcotest.test_case "individual criteria" `Quick test_screen_individual_criteria;
          Alcotest.test_case "resistive line" `Quick test_screen_resistive_line;
        ] );
      ( "model",
        [
          Alcotest.test_case "inductive -> two-ramp" `Slow test_inductive_case_uses_two_ramp;
          Alcotest.test_case "two-ramp accuracy (fig1)" `Slow test_two_ramp_accuracy_on_fig1;
          Alcotest.test_case "one-ramp failure (fig1)" `Slow test_one_ramp_fails_on_fig1;
          Alcotest.test_case "two-ramp beats one-ramp" `Slow test_two_ramp_beats_one_ramp;
          Alcotest.test_case "weak driver -> RC" `Slow test_weak_driver_screens_rc;
          Alcotest.test_case "waveform consistency" `Slow test_model_waveform_consistency;
          Alcotest.test_case "breakpoint placement" `Slow test_breakpoint_on_waveform;
          Alcotest.test_case "one-ramp slew geometry" `Slow test_forced_one_ramp_slew_geometry;
          Alcotest.test_case "flat-step geometry" `Slow test_flat_step_geometry;
          Alcotest.test_case "flat-step slew" `Slow test_flat_step_slew_longer;
          Alcotest.test_case "rc-tail activation" `Slow test_rc_tail_activation;
          Alcotest.test_case "rc-tail improves slew" `Slow test_rc_tail_improves_rc_slew;
          Alcotest.test_case "far-end replay" `Slow test_far_end_replay;
          q prop_far_end_tracks_reference_on_screened_cases;
        ] );
      ( "reference",
        [
          Alcotest.test_case "replay_pwl time axis round-trips" `Quick
            test_replay_pwl_time_axis;
          Alcotest.test_case "default_t_stop covers 20 tf on Table 1" `Quick
            test_default_t_stop_covers_table1;
          Alcotest.test_case "adaptive matches fixed on Table 1 (<1%)" `Slow
            test_adaptive_matches_fixed_on_table1;
        ] );
      ( "sweep",
        [
          Alcotest.test_case "jobs-parallel sweep deterministic" `Slow test_sweep_jobs_deterministic;
          Alcotest.test_case "sweep characterizes each size once" `Quick
            test_sweep_characterizes_each_size_once;
        ] );
    ]
