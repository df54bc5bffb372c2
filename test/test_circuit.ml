(* Validation of the nodal transient engine against closed-form circuit
   responses: these are the physics the "HSPICE substitute" must get right
   before any effective-capacitance experiment can be trusted. *)
open Rlc_circuit
open Rlc_waveform
module Memo = Rlc_obs.Memo

let check_float ?(eps = 1e-9) msg expected actual =
  Alcotest.(check (float eps)) msg expected actual

let step v t = if t <= 0. then 0. else v

(* ------------------------------------------------------- linear circuits *)

let test_rc_step () =
  (* 1 kOhm into 1 pF: tau = 1 ns. *)
  let nl = Netlist.create () in
  let src = Netlist.node nl "src" and out = Netlist.node nl "out" in
  Netlist.force_voltage nl src (step 1.);
  Netlist.resistor nl src out 1e3;
  Netlist.capacitor nl out Netlist.ground 1e-12;
  let r = Engine.transient ~dt:5e-12 ~t_stop:5e-9 nl in
  let w = Engine.voltage r out in
  let tau = 1e-9 in
  List.iter
    (fun t ->
      let expected = 1. -. Float.exp (-.t /. tau) in
      check_float ~eps:2e-3 (Printf.sprintf "rc at %g" t) expected (Waveform.value_at w t))
    [ 0.3e-9; 1e-9; 2e-9; 4e-9 ]

let test_rc_divider_dc () =
  let nl = Netlist.create () in
  let src = Netlist.node nl "src" and mid = Netlist.node nl "mid" in
  Netlist.force_voltage nl src (fun _ -> 1.8);
  Netlist.resistor nl src mid 2e3;
  Netlist.resistor nl mid Netlist.ground 1e3;
  let v = Engine.dc_operating_point nl in
  check_float ~eps:1e-9 "divider" 0.6 v.(mid)

let test_series_rlc_underdamped () =
  (* R = 20 Ohm, L = 5 nH, C = 1 pF: zeta ~ 0.141, wn = 1.414e10. *)
  let r = 20. and l = 5e-9 and c = 1e-12 and v = 1. in
  let nl = Netlist.create () in
  let src = Netlist.node nl "src" and mid = Netlist.node nl "mid" and out = Netlist.node nl "out" in
  Netlist.force_voltage nl src (step v);
  Netlist.resistor nl src mid r;
  Netlist.inductor nl mid out l;
  Netlist.capacitor nl out Netlist.ground c;
  let res = Engine.transient ~dt:0.2e-12 ~t_stop:2e-9 nl in
  let w = Engine.voltage res out in
  let wn = 1. /. Float.sqrt (l *. c) in
  let zeta = r /. 2. *. Float.sqrt (c /. l) in
  let wd = wn *. Float.sqrt (1. -. (zeta *. zeta)) in
  let expected t =
    let e = Float.exp (-.zeta *. wn *. t) in
    v *. (1. -. (e *. (Float.cos (wd *. t) +. (zeta /. Float.sqrt (1. -. (zeta *. zeta)) *. Float.sin (wd *. t)))))
  in
  List.iter
    (fun t ->
      check_float ~eps:5e-3 (Printf.sprintf "rlc at %g" t) (expected t) (Waveform.value_at w t))
    [ 0.1e-9; 0.22e-9; 0.5e-9; 1.0e-9; 1.8e-9 ];
  (* Underdamped response must overshoot the supply. *)
  Alcotest.(check bool) "overshoots" true (Waveform.v_max w > 1.2)

let test_current_source_into_rc () =
  (* 1 mA into 1 kOhm || cap: settles to 1 V. *)
  let nl = Netlist.create () in
  let out = Netlist.node nl "out" in
  Netlist.current_source nl Netlist.ground out (step 1e-3);
  Netlist.resistor nl out Netlist.ground 1e3;
  Netlist.capacitor nl out Netlist.ground 1e-12;
  let r = Engine.transient ~dt:10e-12 ~t_stop:10e-9 nl in
  check_float ~eps:2e-3 "settles to IR" 1. (Engine.voltage_at r out 9e-9)

let test_lc_ladder_time_of_flight () =
  (* Matched-source lossless line: far end sees a full-swing step delayed by
     the time of flight sqrt(Ltot * Ctot). *)
  let l_tot = 5e-9 and c_tot = 1e-12 and n = 60 in
  let z0 = Float.sqrt (l_tot /. c_tot) in
  let tf = Float.sqrt (l_tot *. c_tot) in
  let nl = Netlist.create () in
  let src = Netlist.node nl "src" in
  Netlist.force_voltage nl src (step 1.);
  let drive = Netlist.node nl "drive" in
  Netlist.resistor nl src drive z0;
  let dl = l_tot /. float_of_int n and dc = c_tot /. float_of_int n in
  let last =
    List.fold_left
      (fun prev i ->
        let nn = Netlist.node nl (Printf.sprintf "n%d" i) in
        Netlist.inductor nl prev nn dl;
        Netlist.capacitor nl nn Netlist.ground dc;
        nn)
      drive
      (List.init n (fun i -> i))
  in
  let r = Engine.transient ~dt:0.25e-12 ~t_stop:0.5e-9 nl in
  let far = Engine.voltage r last in
  (match Waveform.first_crossing far ~level:0.5 ~direction:Waveform.Rising with
  | Some t50 ->
      Alcotest.(check bool)
        (Printf.sprintf "far-end 50%% at %.1f ps vs tf %.1f ps" (t50 /. 1e-12) (tf /. 1e-12))
        true
        (Float.abs (t50 -. tf) < 0.08 *. tf)
  | None -> Alcotest.fail "far end never crossed 50%");
  (* Open far end doubles the incident half-swing wave: settles near 1 V. *)
  check_float ~eps:0.05 "far end settles" 1. (Waveform.v_final far)

let test_pwl_replay () =
  (* Forced PWL source reproduces itself at the forced node. *)
  let p = Pwl.two_ramp ~t0:20e-12 ~vdd:1.8 ~f:0.55 ~tr1:30e-12 ~tr2:180e-12 in
  let nl = Netlist.create () in
  let src = Netlist.node nl "src" and out = Netlist.node nl "out" in
  Netlist.force_voltage nl src (Pwl.eval p);
  Netlist.resistor nl src out 50.;
  Netlist.capacitor nl out Netlist.ground 10e-15;
  let r = Engine.transient ~dt:1e-12 ~t_stop:400e-12 nl in
  let w = Engine.voltage r src in
  List.iter
    (fun t -> check_float ~eps:1e-6 (Printf.sprintf "pwl at %g" t) (Pwl.eval p t) (Waveform.value_at w t))
    [ 25e-12; 50e-12; 150e-12; 350e-12 ]

(* ---------------------------------------------------------- nonlinear *)

(* A nonlinear element that behaves exactly like a grounded linear resistor:
   the Newton path must then agree with the plain resistor stamp. *)
let nonlinear_resistor node g =
  {
    Netlist.nl_name = "gres";
    nl_nodes = [| node |];
    nl_eval =
      (fun v i gm ->
        i.(0) <- g *. v.(0);
        gm.(0) <- g);
  }

let test_nonlinear_matches_linear () =
  let build use_nonlinear =
    let nl = Netlist.create () in
    let src = Netlist.node nl "src" and out = Netlist.node nl "out" in
    Netlist.force_voltage nl src (fun _ -> 2.);
    Netlist.resistor nl src out 1e3;
    if use_nonlinear then Netlist.nonlinear nl (nonlinear_resistor out 1e-3)
    else Netlist.resistor nl out Netlist.ground 1e3;
    let v = Engine.dc_operating_point nl in
    v.(out)
  in
  check_float ~eps:1e-9 "nonlinear = linear" (build false) (build true)

let test_diode_clamp_dc () =
  (* Source 1 V -> 1 kOhm -> diode to ground.  Check KCL at the solution:
     (1 - v)/R = Is (exp (v/vt) - 1). *)
  let is_ = 1e-14 and vt = 0.02585 in
  let nl = Netlist.create () in
  let src = Netlist.node nl "src" and out = Netlist.node nl "out" in
  Netlist.force_voltage nl src (fun _ -> 1.);
  Netlist.resistor nl src out 1e3;
  Netlist.nonlinear nl
    {
      Netlist.nl_name = "diode";
      nl_nodes = [| out |];
      nl_eval =
        (fun v i g ->
          (* Exponent clamp keeps early Newton iterations finite. *)
          let x = Float.min (v.(0) /. vt) 60. in
          let e = Float.exp x in
          i.(0) <- is_ *. (e -. 1.);
          g.(0) <- is_ *. e /. vt);
    };
  let v = Engine.dc_operating_point nl in
  let i_r = (1. -. v.(out)) /. 1e3 in
  let i_d = is_ *. (Float.exp (v.(out) /. vt) -. 1.) in
  check_float ~eps:1e-9 "KCL balance" 0. (i_r -. i_d);
  Alcotest.(check bool) "forward drop plausible" true (v.(out) > 0.4 && v.(out) < 0.75)

(* Newton non-convergence is a typed error: the engine says when, callers
   say what (a net, a driver size), and the printed message carries both.
   A device whose current is NaN can never converge. *)
let test_newton_diverged_typed () =
  let nl = Netlist.create () in
  let src = Netlist.node nl "src" and out = Netlist.node nl "out" in
  Netlist.force_voltage nl src (fun _ -> 1.);
  Netlist.resistor nl src out 1e3;
  Netlist.nonlinear nl
    {
      Netlist.nl_name = "nan";
      nl_nodes = [| out |];
      nl_eval =
        (fun _ i g ->
          i.(0) <- Float.nan;
          g.(0) <- 1e-3);
    };
  let dt = 1e-12 and t_stop = 10e-12 in
  (match Engine.transient ~dt ~t_stop nl with
  | _ -> Alcotest.fail "a NaN device current cannot converge"
  | exception Engine.Newton_diverged { t; within } ->
      check_float ~eps:0. "at the operating point" 0. t;
      Alcotest.(check (list string)) "the engine names no context" [] within);
  match
    Engine.within "net b1" (fun () ->
        Engine.within "size 75X" (fun () -> Engine.transient ~dt ~t_stop nl))
  with
  | _ -> Alcotest.fail "expected Newton_diverged"
  | exception (Engine.Newton_diverged { within; _ } as e) ->
      Alcotest.(check (list string)) "outermost first" [ "net b1"; "size 75X" ] within;
      Alcotest.(check string) "message"
        "Engine: Newton failed to converge at t=0 s (net b1; size 75X)" (Printexc.to_string e)

(* -------------------------------------------------------- factor-once *)

(* The factor-once fast path (assemble + factor the linear system once, then
   only rebuild the RHS) must reproduce the per-step reassembly path sample
   for sample.  One builder per stamp class. *)

let build_rc_ladder () =
  let nl = Netlist.create () in
  let src = Netlist.node nl "src" in
  Netlist.force_voltage nl src (step 1.);
  let prev = ref src and probes = ref [ src ] in
  for i = 1 to 20 do
    let nd = Netlist.node nl (Printf.sprintf "n%d" i) in
    Netlist.resistor nl !prev nd 50.;
    Netlist.capacitor nl nd Netlist.ground 20e-15;
    prev := nd;
    probes := nd :: !probes
  done;
  (nl, !probes)

let build_rlc_ladder () =
  let nl = Netlist.create () in
  let src = Netlist.node nl "src" in
  Netlist.force_voltage nl src (step 1.);
  let prev = ref src and probes = ref [ src ] in
  for i = 1 to 12 do
    let mid = Netlist.node nl (Printf.sprintf "m%d" i) in
    let nd = Netlist.node nl (Printf.sprintf "n%d" i) in
    Netlist.resistor nl !prev mid 5.;
    Netlist.inductor nl mid nd 0.4e-9;
    Netlist.capacitor nl nd Netlist.ground 80e-15;
    prev := nd;
    probes := nd :: mid :: !probes
  done;
  (nl, !probes)

let build_coupled_pair () =
  (* Aggressor drives a coupled segment; victim closed through a resistor so
     mutual inductance induces observable noise. *)
  let nl = Netlist.create () in
  let src = Netlist.node nl "src" in
  Netlist.force_voltage nl src (step 1.);
  let a1 = Netlist.node nl "a1" and a2 = Netlist.node nl "a2" in
  let b1 = Netlist.node nl "b1" and b2 = Netlist.node nl "b2" in
  Netlist.resistor nl src a1 25.;
  Netlist.coupled_pair nl (a1, a2) 2e-9 (b1, b2) 2e-9 ~k:0.5;
  Netlist.capacitor nl a2 Netlist.ground 0.2e-12;
  Netlist.resistor nl b1 Netlist.ground 50.;
  Netlist.capacitor nl b2 Netlist.ground 0.2e-12;
  Netlist.resistor nl b2 Netlist.ground 1e3;
  (nl, [ a1; a2; b1; b2 ])

let build_nonlinear_clamp () =
  (* Step through a resistor into a capacitor clamped by a diode: exercises
     the Newton path (several iterations per step) on top of linear
     stamps. *)
  let is_ = 1e-14 and vt = 0.02585 in
  let nl = Netlist.create () in
  let src = Netlist.node nl "src" and out = Netlist.node nl "out" in
  Netlist.force_voltage nl src (step 1.);
  Netlist.resistor nl src out 1e3;
  Netlist.capacitor nl out Netlist.ground 0.1e-12;
  Netlist.nonlinear nl
    {
      Netlist.nl_name = "diode";
      nl_nodes = [| out |];
      nl_eval =
        (fun v i g ->
          let x = Float.min (v.(0) /. vt) 60. in
          let e = Float.exp x in
          i.(0) <- is_ *. (e -. 1.);
          g.(0) <- is_ *. e /. vt);
    };
  (nl, [ src; out ])

let check_factored_equivalence name build ~dt ~t_stop () =
  let nl, probes = build () in
  let fast = Engine.transient ~dt ~t_stop nl in
  let naive = Engine.transient ~reassemble_per_step:true ~dt ~t_stop nl in
  Alcotest.(check int)
    (Printf.sprintf "%s newton total" name)
    (Engine.newton_total naive) (Engine.newton_total fast);
  List.iter
    (fun node ->
      let vf = Waveform.values (Engine.voltage fast node) in
      let vn = Waveform.values (Engine.voltage naive node) in
      Array.iteri
        (fun i v ->
          if v <> vn.(i) then
            Alcotest.failf "%s: node %s step %d: fast %.17g <> naive %.17g" name
              (Netlist.node_name nl node) i v vn.(i))
        vf)
    probes

let test_equiv_rc () = check_factored_equivalence "rc-ladder" build_rc_ladder ~dt:1e-12 ~t_stop:0.5e-9 ()
let test_equiv_rlc () = check_factored_equivalence "rlc-ladder" build_rlc_ladder ~dt:0.5e-12 ~t_stop:0.5e-9 ()

let test_equiv_coupled () =
  check_factored_equivalence "coupled-pair" build_coupled_pair ~dt:1e-12 ~t_stop:1e-9 ()

let test_equiv_nonlinear () =
  check_factored_equivalence "nonlinear-clamp" build_nonlinear_clamp ~dt:1e-12 ~t_stop:0.5e-9 ()

let test_record_nodes () =
  let nl, probes = build_rc_ladder () in
  let out = List.hd probes in
  let some_mid = List.nth probes 10 in
  let full = Engine.transient ~dt:1e-12 ~t_stop:0.2e-9 nl in
  let sel = Engine.transient ~record_nodes:[ out ] ~dt:1e-12 ~t_stop:0.2e-9 nl in
  Alcotest.(check bool) "probe recorded" true (Engine.is_recorded sel out);
  Alcotest.(check bool) "other node dropped" false (Engine.is_recorded sel some_mid);
  let vf = Waveform.values (Engine.voltage full out) in
  let vs = Waveform.values (Engine.voltage sel out) in
  Array.iteri
    (fun i v ->
      if v <> vs.(i) then
        Alcotest.failf "selective recording changed the waveform at step %d" i)
    vf;
  (match Engine.voltage sel some_mid with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "voltage on an unrecorded node must raise");
  match Engine.transient ~record_nodes:[ 9999 ] ~dt:1e-12 ~t_stop:0.1e-9 nl with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "out-of-range record node must be rejected"

(* ------------------------------------------------------------ adaptive *)

(* Ramp source with declared corner breakpoints into an RC: the adaptive
   grid must track the fixed-step reference within the LTE budget while
   taking far fewer steps, and must land exactly on the declared kinks. *)
let build_ramp_rc () =
  let t0 = 10e-12 and tr = 50e-12 in
  let nl = Netlist.create () in
  let src = Netlist.node nl "src" and out = Netlist.node nl "out" in
  Netlist.force_voltage nl ~breakpoints:[ t0; t0 +. tr ] src (fun t ->
      if t <= t0 then 0. else if t >= t0 +. tr then 1. else (t -. t0) /. tr);
  Netlist.resistor nl src out 1e3;
  Netlist.capacitor nl out Netlist.ground 1e-12;
  (nl, out, t0, tr)

(* Step economy of an adaptive run against its fixed-step twin: at least
   3x fewer steps, and rung reuse keeping the factorizations (one per
   rung first used, one per breakpoint offcut) to a quarter of the steps. *)
let check_step_economy name ~fixed ad =
  Alcotest.(check bool)
    (Printf.sprintf "%s: 3x fewer steps (%d adaptive vs %d fixed)" name (Engine.steps ad)
       (Engine.steps fixed))
    true
    (Engine.steps ad * 3 <= Engine.steps fixed);
  Alcotest.(check bool)
    (Printf.sprintf "%s: refactors (%d) << steps (%d)" name (Engine.refactors ad)
       (Engine.steps ad))
    true
    (Engine.refactors ad * 4 <= Engine.steps ad)

let test_adaptive_rc () =
  let t_stop = 5e-9 in
  let nl_f, out_f, _, _ = build_ramp_rc () in
  let fixed = Engine.transient ~dt:0.25e-12 ~t_stop nl_f in
  let nl_a, out_a, _, _ = build_ramp_rc () in
  (* ltol pinned to 1 mV: this test scores waveform tracking against the LTE
     budget (the looser timing-grade default is scored in test_ceff). *)
  let adaptive = Engine.default_adaptive ~dt_min:0.25e-12 ~ltol:1e-3 () in
  let ad = Engine.transient ~adaptive ~dt:0.25e-12 ~t_stop nl_a in
  let wf = Engine.voltage fixed out_f and wa = Engine.voltage ad out_a in
  List.iter
    (fun t ->
      check_float ~eps:2e-3
        (Printf.sprintf "adaptive rc at %g" t)
        (Waveform.value_at wf t) (Waveform.value_at wa t))
    [ 30e-12; 60e-12; 0.2e-9; 0.5e-9; 1e-9; 2e-9; 4e-9 ];
  check_step_economy "ramp rc" ~fixed ad

(* A 5 mm-class global line (72.44 Ohm / 5.14 nH / 1.10 pF) as 100 R-L-C
   segments behind a 25 ps ramp, at the timing-grade default ltol with
   dt_min pinned to the fixed dt: the controller may only coarsen. *)
let test_adaptive_rlc_ladder () =
  let dt = 0.5e-12 and t_stop = 1e-9 and n = 100 in
  let nl = Netlist.create () in
  let src = Netlist.node nl "src" in
  Netlist.force_voltage nl src (fun t -> Float.min 1. (Float.max 0. (t /. 25e-12)));
  let prev = ref src in
  for i = 1 to n do
    let mid = Netlist.node nl (Printf.sprintf "m%d" i) in
    let nd = Netlist.node nl (Printf.sprintf "n%d" i) in
    Netlist.resistor nl !prev mid (72.44 /. float_of_int n);
    Netlist.inductor nl mid nd (5.14e-9 /. float_of_int n);
    Netlist.capacitor nl nd Netlist.ground (1.10e-12 /. float_of_int n);
    prev := nd
  done;
  let fixed = Engine.transient ~dt ~t_stop nl in
  let ad = Engine.transient ~adaptive:(Engine.default_adaptive ~dt_min:dt ()) ~dt ~t_stop nl in
  check_step_economy "rlc ladder" ~fixed ad

let test_adaptive_breakpoints_exact () =
  let t_stop = 1e-9 in
  let nl, _, t0, tr = build_ramp_rc () in
  let adaptive = Engine.default_adaptive ~dt_min:0.25e-12 () in
  let r = Engine.transient ~adaptive ~dt:0.25e-12 ~t_stop nl in
  let ts = Engine.times r in
  let hit x = Array.exists (fun v -> v = x) ts in
  Alcotest.(check bool) "ramp start hit exactly" true (hit t0);
  Alcotest.(check bool) "ramp end hit exactly" true (hit (t0 +. tr));
  Alcotest.(check bool) "t_stop hit exactly" true (ts.(Array.length ts - 1) = t_stop);
  (* Times strictly increasing on the adaptive grid. *)
  let mono = ref true in
  for i = 1 to Array.length ts - 1 do
    if ts.(i) <= ts.(i - 1) then mono := false
  done;
  Alcotest.(check bool) "strictly increasing grid" true !mono

let test_adaptive_rlc_rings () =
  (* Underdamped series RLC: the LTE control must shrink steps through the
     ringing; the analytic solution is the referee. *)
  let r = 20. and l = 5e-9 and c = 1e-12 and v = 1. in
  let build () =
    let nl = Netlist.create () in
    let src = Netlist.node nl "src" and mid = Netlist.node nl "mid" and out = Netlist.node nl "out" in
    Netlist.force_voltage nl src (step v);
    Netlist.resistor nl src mid r;
    Netlist.inductor nl mid out l;
    Netlist.capacitor nl out Netlist.ground c;
    (nl, out)
  in
  let nl, out = build () in
  let adaptive = Engine.default_adaptive ~dt_min:0.2e-12 ~ltol:1e-3 () in
  let res = Engine.transient ~adaptive ~dt:0.2e-12 ~t_stop:2e-9 nl in
  let w = Engine.voltage res out in
  let wn = 1. /. Float.sqrt (l *. c) in
  let zeta = r /. 2. *. Float.sqrt (c /. l) in
  let wd = wn *. Float.sqrt (1. -. (zeta *. zeta)) in
  let expected t =
    let e = Float.exp (-.zeta *. wn *. t) in
    v *. (1. -. (e *. (Float.cos (wd *. t) +. (zeta /. Float.sqrt (1. -. (zeta *. zeta)) *. Float.sin (wd *. t)))))
  in
  List.iter
    (fun t ->
      check_float ~eps:8e-3 (Printf.sprintf "adaptive rlc at %g" t) (expected t)
        (Waveform.value_at w t))
    [ 0.1e-9; 0.22e-9; 0.5e-9; 1.0e-9; 1.8e-9 ];
  Alcotest.(check bool) "overshoots" true (Waveform.v_max w > 1.2)

let test_adaptive_obs_reconcile () =
  let module Obs = Rlc_obs.Obs in
  let obs = Obs.create () in
  let nl, _, _, _ = build_ramp_rc () in
  let adaptive = Engine.default_adaptive ~dt_min:0.25e-12 () in
  let r = Engine.transient ~obs ~adaptive ~dt:0.25e-12 ~t_stop:2e-9 nl in
  let m = Obs.snapshot obs in
  Alcotest.(check int) "steps counter" (Engine.steps r) (Obs.counter m "engine.steps");
  Alcotest.(check int) "rejected counter" (Engine.steps_rejected r)
    (Obs.counter m "engine.steps_rejected");
  Alcotest.(check int) "refactor counter" (Engine.refactors r) (Obs.counter m "engine.refactors");
  (* The step-size histogram saw exactly the accepted steps. *)
  let hist = List.assoc_opt "engine.step_size_ns" m.Obs.m_stats in
  (match hist with
  | None -> Alcotest.fail "step-size histogram missing"
  | Some s -> Alcotest.(check int) "histogram count" (Engine.steps r) s.Obs.count);
  (* Fixed-step runs keep the adaptive stats at zero. *)
  let nl2, _, _, _ = build_ramp_rc () in
  let rf = Engine.transient ~dt:0.5e-12 ~t_stop:0.5e-9 nl2 in
  Alcotest.(check int) "fixed: no rejections" 0 (Engine.steps_rejected rf);
  Alcotest.(check int) "fixed: no refactor stat" 0 (Engine.refactors rf)

let test_adaptive_nonlinear () =
  (* Newton path under adaptive stepping: diode-clamped RC, compared against
     a fine fixed-step run. *)
  let t_stop = 0.5e-9 in
  let nl_f, probes_f = build_nonlinear_clamp () in
  let fixed = Engine.transient ~dt:0.25e-12 ~t_stop nl_f in
  let nl_a, probes_a = build_nonlinear_clamp () in
  let adaptive = Engine.default_adaptive ~dt_min:0.25e-12 ~ltol:1e-3 () in
  let ad = Engine.transient ~adaptive ~dt:0.25e-12 ~t_stop nl_a in
  let out_f = List.nth probes_f 1 and out_a = List.nth probes_a 1 in
  let wf = Engine.voltage fixed out_f and wa = Engine.voltage ad out_a in
  List.iter
    (fun t ->
      check_float ~eps:2e-3
        (Printf.sprintf "adaptive diode at %g" t)
        (Waveform.value_at wf t) (Waveform.value_at wa t))
    [ 0.05e-9; 0.1e-9; 0.2e-9; 0.45e-9 ]

let test_adaptive_rejects_bad_params () =
  let nl, _, _, _ = build_ramp_rc () in
  let bad a =
    match Engine.transient ~adaptive:a ~dt:1e-12 ~t_stop:1e-9 nl with
    | _ -> false
    | exception Invalid_argument _ -> true
  in
  Alcotest.(check bool) "dt_min <= 0" true
    (bad { Engine.dt_min = 0.; dt_max = 1e-12; ltol = 1e-3 });
  Alcotest.(check bool) "dt_max < dt_min" true
    (bad { Engine.dt_min = 1e-12; dt_max = 0.5e-12; ltol = 1e-3 });
  Alcotest.(check bool) "ltol <= 0" true
    (bad { Engine.dt_min = 1e-12; dt_max = 4e-12; ltol = 0. });
  Alcotest.(check bool) "adaptive + reassemble" true
    (match
       Engine.transient ~reassemble_per_step:true
         ~adaptive:(Engine.default_adaptive ()) ~dt:1e-12 ~t_stop:1e-9 nl
     with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* ----------------------------------------------------------- netlist *)

let test_floating_node_rejected () =
  let nl = Netlist.create () in
  let a = Netlist.node nl "a" and b = Netlist.node nl "b" in
  Netlist.resistor nl a b 1e3;
  Alcotest.(check bool) "floating pair detected" true
    (match Netlist.validate nl with _ -> false | exception Failure _ -> true)

let test_double_force_rejected () =
  let nl = Netlist.create () in
  let a = Netlist.node nl "a" in
  Netlist.force_voltage nl a (fun _ -> 1.);
  Alcotest.(check bool) "double force" true
    (match Netlist.force_voltage nl a (fun _ -> 2.) with
    | _ -> false
    | exception Invalid_argument _ -> true);
  Alcotest.(check bool) "force ground" true
    (match Netlist.force_voltage nl Netlist.ground (fun _ -> 2.) with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_invalid_element_values () =
  let nl = Netlist.create () in
  let a = Netlist.node nl "a" in
  Alcotest.(check bool) "zero resistance" true
    (match Netlist.resistor nl a Netlist.ground 0. with
    | _ -> false
    | exception Invalid_argument _ -> true);
  Alcotest.(check bool) "negative capacitance" true
    (match Netlist.capacitor nl a Netlist.ground (-1e-15) with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_engine_stats_and_options () =
  let nl = Netlist.create () in
  let src = Netlist.node nl "src" and out = Netlist.node nl "out" in
  Netlist.force_voltage nl src (step 1.);
  Netlist.resistor nl src out 1e3;
  Netlist.capacitor nl out Netlist.ground 1e-12;
  let r = Engine.transient ~dt:10e-12 ~t_stop:1e-9 nl in
  Alcotest.(check int) "step count" 100 (Engine.steps r);
  (* Linear circuit: exactly one solve per step. *)
  Alcotest.(check int) "newton total" 100 (Engine.newton_total r);
  Alcotest.(check int) "newton worst" 1 (Engine.newton_worst r);
  let rejected ?adaptive ~dt ~t_stop () =
    match Engine.transient ?adaptive ~dt ~t_stop nl with
    | _ -> false
    | exception Invalid_argument _ -> true
  in
  Alcotest.(check bool) "invalid dt rejected" true (rejected ~dt:0. ~t_stop:1e-9 ());
  List.iter
    (fun (what, dt, t_stop) ->
      Alcotest.(check bool) ("invalid dt rejected: " ^ what) true (rejected ~dt ~t_stop ()))
    [
      ("NaN dt", Float.nan, 1e-9);
      ("infinite dt", Float.infinity, 1e-9);
      ("NaN t_stop", 10e-12, Float.nan);
      ("infinite t_stop", 10e-12, Float.infinity);
    ];
  let ad = Engine.default_adaptive () in
  List.iter
    (fun (what, adaptive) ->
      Alcotest.(check bool) ("invalid dt rejected: " ^ what) true
        (rejected ~adaptive ~dt:10e-12 ~t_stop:1e-9 ()))
    [
      ("NaN dt_max", { ad with Engine.dt_max = Float.nan });
      ("NaN ltol", { ad with Engine.ltol = Float.nan });
      ("infinite dt_min", { ad with Engine.dt_min = Float.infinity; dt_max = Float.infinity });
    ];
  (* A NaN dt_min once made the stepper spin without ever landing on a
     breakpoint; the deadline turns such a regression into a failure. *)
  Alcotest.(check bool) "invalid dt rejected: NaN dt_min" true
    (Rlc_errors.Deadline.with_ambient (Rlc_errors.Deadline.start 1.) (fun () ->
         rejected ~adaptive:{ ad with Engine.dt_min = Float.nan } ~dt:10e-12 ~t_stop:1e-9 ()))

let test_nonlinear_newton_counts () =
  let nl = Netlist.create () in
  let src = Netlist.node nl "src" and out = Netlist.node nl "out" in
  Netlist.force_voltage nl src (step 1.);
  Netlist.resistor nl src out 1e3;
  Netlist.nonlinear nl (nonlinear_resistor out 1e-3);
  let r = Engine.transient ~dt:10e-12 ~t_stop:0.2e-9 nl in
  (* Nonlinear path needs at least the verification iteration. *)
  Alcotest.(check bool) "newton ran" true (Engine.newton_total r >= Engine.steps r);
  Alcotest.(check bool) "bounded iterations" true (Engine.newton_worst r <= 10)

let test_pp_summary () =
  let nl = Netlist.create () in
  let a = Netlist.node nl "a" in
  Netlist.force_voltage nl a (fun _ -> 1.);
  let b = Netlist.node nl "b" in
  Netlist.resistor nl a b 10.;
  Netlist.capacitor nl b Netlist.ground 1e-15;
  let s = Format.asprintf "%a" Netlist.pp_summary nl in
  Alcotest.(check string) "summary" "netlist<3 nodes, 1R 1C 0L 0I 0K 0 nonlinear, 1 forced>" s

let test_node_names () =
  let nl = Netlist.create () in
  let a = Netlist.node nl "alpha" in
  let b = Netlist.node nl "beta" in
  Alcotest.(check string) "ground name" "gnd" (Netlist.node_name nl Netlist.ground);
  Alcotest.(check string) "first" "alpha" (Netlist.node_name nl a);
  Alcotest.(check string) "second" "beta" (Netlist.node_name nl b)

(* ------------------------------------------------------------ property *)

let prop_rc_charge_conservation =
  QCheck.Test.make ~name:"RC step settles to the source voltage" ~count:25
    QCheck.(pair (float_range 100. 5000.) (float_range 0.1e-12 2e-12))
    (fun (r, c) ->
      let nl = Netlist.create () in
      let src = Netlist.node nl "src" and out = Netlist.node nl "out" in
      Netlist.force_voltage nl src (step 1.5);
      Netlist.resistor nl src out r;
      Netlist.capacitor nl out Netlist.ground c;
      let tau = r *. c in
      let res = Engine.transient ~dt:(tau /. 200.) ~t_stop:(8. *. tau) nl in
      Float.abs (Engine.voltage_at res out (7.5 *. tau) -. 1.5) < 5e-3)

(* ------------------------------------------------------------ compiled *)

(* Bit-identity: a reused compiled handle must consume exactly the floats a
   fresh Engine.transient consumes — waveforms compare with (<>), never
   with a tolerance — across circuit kinds and stepping modes.  Each handle
   runs twice so the second run exercises the cached DC entry and the
   per-step-size transient-state reuse. *)
let check_compiled_identity name build ~dt ~t_stop () =
  List.iter
    (fun (mode, adaptive) ->
      let nl, probes = build () in
      let fresh = Engine.transient ?adaptive ~dt ~t_stop nl in
      let h = Engine.Compiled.compile nl in
      List.iteri
        (fun k r ->
          if Engine.times fresh <> Engine.times r then
            Alcotest.failf "%s/%s run %d: time grids differ" name mode k;
          List.iter
            (fun node ->
              let vf = Waveform.values (Engine.voltage fresh node) in
              let vr = Waveform.values (Engine.voltage r node) in
              Array.iteri
                (fun i v ->
                  if v <> vr.(i) then
                    Alcotest.failf "%s/%s run %d: node %s step %d: fresh %.17g <> compiled %.17g"
                      name mode k (Netlist.node_name nl node) i v vr.(i))
                vf)
            probes)
        [
          Engine.Compiled.run ?adaptive ~dt ~t_stop h;
          Engine.Compiled.run ?adaptive ~dt ~t_stop h;
        ])
    [ ("fixed", None); ("adaptive", Some (Engine.default_adaptive ~dt_min:dt ())) ]

let test_compiled_rc () =
  check_compiled_identity "rc-ladder" build_rc_ladder ~dt:1e-12 ~t_stop:0.5e-9 ()

let test_compiled_rlc () =
  check_compiled_identity "rlc-ladder" build_rlc_ladder ~dt:0.5e-12 ~t_stop:0.5e-9 ()

let test_compiled_coupled () =
  check_compiled_identity "coupled-pair" build_coupled_pair ~dt:1e-12 ~t_stop:1e-9 ()

let test_compiled_nonlinear () =
  check_compiled_identity "nonlinear-clamp" build_nonlinear_clamp ~dt:1e-12 ~t_stop:0.5e-9 ()

let build_rc_pair r c =
  let nl = Netlist.create () in
  let src = Netlist.node nl "src" and out = Netlist.node nl "out" in
  Netlist.force_voltage nl src (step 1.);
  Netlist.resistor nl src out r;
  Netlist.capacitor nl out Netlist.ground c;
  (nl, out)

let assert_same_waveform msg fresh compiled node =
  let vf = Waveform.values (Engine.voltage fresh node) in
  let vc = Waveform.values (Engine.voltage compiled node) in
  Array.iteri
    (fun i v ->
      if v <> vc.(i) then
        Alcotest.failf "%s: step %d: fresh %.17g <> compiled %.17g" msg i v vc.(i))
    vf

let test_compiled_restamp () =
  (* New element values into a used handle: results must match a fresh
     compile of the new netlist exactly (stale companion history, cached DC
     and cached states must all be invalidated). *)
  let nl1, _ = build_rc_pair 1e3 1e-12 in
  let h = Engine.Compiled.compile nl1 in
  let (_ : Engine.result) = Engine.Compiled.run ~dt:5e-12 ~t_stop:2e-9 h in
  let nl2, out2 = build_rc_pair 2e3 0.5e-12 in
  Engine.Compiled.restamp h nl2;
  let r2 = Engine.Compiled.run ~dt:5e-12 ~t_stop:2e-9 h in
  let fresh2 = Engine.transient ~dt:5e-12 ~t_stop:2e-9 nl2 in
  assert_same_waveform "restamped values" fresh2 r2 out2;
  (* Identical values restamped after a run must also replay cleanly (the
     handle keeps its cached state on a value-identical restamp). *)
  Engine.Compiled.restamp h nl2;
  let r3 = Engine.Compiled.run ~dt:5e-12 ~t_stop:2e-9 h in
  assert_same_waveform "identical restamp" fresh2 r3 out2;
  (* A structurally different netlist must be rejected, not absorbed. *)
  let nl3, out3 = build_rc_pair 1e3 1e-12 in
  Netlist.capacitor nl3 out3 Netlist.ground 1e-15;
  match Engine.Compiled.restamp h nl3 with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "restamp with extra element must raise"

let test_compiled_cache_keying () =
  Engine.Compiled.clear_cache ();
  let s0 = Engine.Compiled.cache_stats () in
  let nl1, _ = build_rc_pair 1e3 1e-12 in
  let ha = Engine.Compiled.cached nl1 in
  (* Same structure, different values: must hit and restamp, not rebuild. *)
  let nl2, out2 = build_rc_pair 2e3 2e-12 in
  let hb = Engine.Compiled.cached nl2 in
  Alcotest.(check bool) "same-structure netlists share the handle" true (ha == hb);
  let s1 = Engine.Compiled.cache_stats () in
  Alcotest.(check int) "first lookup missed" 1 (s1.Memo.misses - s0.Memo.misses);
  Alcotest.(check int) "second lookup hit" 1 (s1.Memo.hits - s0.Memo.hits);
  (* The restamped hit must still be exact. *)
  let r = Engine.Compiled.run ~dt:5e-12 ~t_stop:2e-9 hb in
  let fresh = Engine.transient ~dt:5e-12 ~t_stop:2e-9 nl2 in
  assert_same_waveform "cached handle after restamp" fresh r out2;
  (* A different topology (one more element) must key to a fresh handle. *)
  let nl3, out3 = build_rc_pair 1e3 1e-12 in
  Netlist.capacitor nl3 out3 Netlist.ground 5e-15;
  let hc = Engine.Compiled.cached nl3 in
  Alcotest.(check bool) "different structure gets its own handle" true (hc != ha);
  let s2 = Engine.Compiled.cache_stats () in
  Alcotest.(check int) "topology change missed" 1 (s2.Memo.misses - s1.Memo.misses);
  Engine.Compiled.clear_cache ()

(* Two domains each cache a handle: one entry per domain, and a
   [clear_cache] from the calling domain drops the worker's handle too.
   Each job waits for the other to start, so both domains run one. *)
let test_compiled_cache_clear_all_domains () =
  Engine.Compiled.clear_cache ();
  let arrived = Atomic.make 0 in
  let ran =
    Rlc_parallel.Pool.with_pool ~jobs:2 (fun pool ->
        Rlc_parallel.Pool.map pool 2 (fun _ ->
            Atomic.incr arrived;
            let t0 = Unix.gettimeofday () in
            while Atomic.get arrived < 2 && Unix.gettimeofday () -. t0 < 10. do
              Domain.cpu_relax ()
            done;
            let nl, _ = build_rc_pair 1e3 1e-12 in
            ignore (Engine.Compiled.cached nl);
            Domain.self ()))
  in
  Alcotest.(check bool) "two domains ran" true (ran.(0) <> ran.(1));
  Alcotest.(check int) "one handle per domain" 2 (Engine.Compiled.cache_stats ()).Memo.entries;
  Engine.Compiled.clear_cache ();
  Alcotest.(check int) "clear drops every domain's handles" 0
    (Engine.Compiled.cache_stats ()).Memo.entries

(* A candidate sweep's unit of work: one coupled bus replayed at several
   aggressor alignments.  Bit 0 is the quiet victim; the other bits ramp at
   staggered times, so each run lands on many source kinks (one offcut
   factorization each).  Candidates differ only in source timing, so after
   one pass through the structure-keyed handle cache a second pass finds
   every rung and offcut state it needs already factored, where a fresh
   transient factors each one again. *)
let build_staggered_bus t_off =
  let bits = 4 and segs = 16 and tr = 30e-12 in
  let fs = float_of_int segs in
  let nl = Netlist.create () in
  let nodes = Array.make_matrix bits segs Netlist.ground in
  for b = 0 to bits - 1 do
    let src = Netlist.node nl (Printf.sprintf "s%d" b) in
    (if b = 0 then Netlist.force_voltage nl ~breakpoints:[] src (fun _ -> 0.)
     else
       let t0 = t_off +. (3e-12 *. float_of_int b) in
       Netlist.force_voltage nl ~breakpoints:[ t0; t0 +. tr ] src (fun t ->
           if t <= t0 then 0. else if t >= t0 +. tr then 1. else (t -. t0) /. tr));
    let prev = ref src in
    for s = 0 to segs - 1 do
      let n = Netlist.node nl (Printf.sprintf "n%d_%d" b s) in
      nodes.(b).(s) <- n;
      Netlist.resistor nl !prev n (if s = 0 then 100. else 120. /. fs);
      Netlist.inductor nl !prev n (1e-10 /. fs);
      Netlist.capacitor nl n Netlist.ground (60e-15 /. fs);
      prev := n
    done
  done;
  for b = 0 to bits - 2 do
    for s = 0 to segs - 1 do
      Netlist.capacitor nl nodes.(b).(s) nodes.(b + 1).(s) (30e-15 /. fs)
    done
  done;
  (nl, nodes.(0).(segs - 1))

let test_compiled_candidate_sweep () =
  let dt = 0.5e-12 and t_stop = 120e-12 in
  let adaptive = Engine.default_adaptive ~dt_min:dt () in
  let offsets = [ 10e-12; 15e-12; 20e-12; 25e-12 ] in
  Engine.Compiled.clear_cache ();
  let m0 = (Engine.Compiled.cache_stats ()).Memo.misses in
  let pass k =
    List.iter
      (fun off ->
        let nl, victim = build_staggered_bus off in
        let r =
          Engine.Compiled.run ~record_nodes:[ victim ] ~adaptive ~dt ~t_stop
            (Engine.Compiled.cached nl)
        in
        let fresh = Engine.transient ~record_nodes:[ victim ] ~adaptive ~dt ~t_stop nl in
        if Engine.times fresh <> Engine.times r then
          Alcotest.failf "pass %d, offset %g: time grids differ" k off;
        assert_same_waveform (Printf.sprintf "pass %d, offset %g" k off) fresh r victim;
        if Engine.refactors fresh = 0 then
          Alcotest.failf "offset %g: a fresh transient factored nothing" off;
        if k = 2 && Engine.refactors r <> 0 then
          Alcotest.failf "second pass, offset %g: %d refactors (fresh: %d)" off
            (Engine.refactors r) (Engine.refactors fresh))
      offsets
  in
  pass 1;
  pass 2;
  let m1 = (Engine.Compiled.cache_stats ()).Memo.misses in
  Alcotest.(check int) "one handle for every candidate" 1 (m1 - m0);
  Engine.Compiled.clear_cache ()

(* --------------------------------------------------------------- until *)

(* The linear fixed-step loop must allocate O(1) minor words per step: a
   per-unknown allocation (a boxed float per solved node) would make a
   200-node ladder cost hundreds of words a step. *)
let test_linear_step_allocation () =
  let nl = Netlist.create () in
  let src = Netlist.node nl "src" in
  Netlist.force_voltage nl src (step 1.);
  let prev = ref src in
  for i = 1 to 200 do
    let nd = Netlist.node nl (Printf.sprintf "n%d" i) in
    Netlist.resistor nl !prev nd 10.;
    Netlist.capacitor nl nd Netlist.ground 1e-15;
    prev := nd
  done;
  let dt = 1e-12 in
  let words n =
    let w0 = Gc.minor_words () in
    ignore (Engine.transient ~record_nodes:[ !prev ] ~dt ~t_stop:(dt *. float_of_int n) nl);
    Gc.minor_words () -. w0
  in
  let per_step = (words 4000 -. words 2000) /. 2000. in
  if per_step > 40. then
    Alcotest.failf "linear fixed-step loop allocates %.1f minor words per step" per_step

(* A noise run -- a quiet victim held through its driver resistance,
   coupled to a PWL-driven aggressor, watched by [until_peak] -- must
   allocate O(1) minor words per step too: the peak watch's energy sum runs
   every 16 steps over every capacitor and inductor, and a boxed
   accumulator would cost words per element.  Nearly lossless lines keep
   the watch live (not yet final) over both windows measured, which end in
   the same trace-buffer size. *)
let test_peak_step_allocation () =
  let segs = 40 in
  let nl = Netlist.create () in
  let vic = Netlist.node nl "v0" and agg = Netlist.node nl "a0" in
  Netlist.resistor nl vic Netlist.ground 80.;
  Netlist.force_pwl nl agg (Pwl.ramp ~t0:10e-12 ~v0:0. ~v1:1.8 ~transition:20e-12);
  let prev = ref (vic, agg) in
  for _ = 1 to segs do
    let pv, pa = !prev in
    let mv = Netlist.node nl "vm" and ma = Netlist.node nl "am" in
    let nv = Netlist.node nl "vn" and na = Netlist.node nl "an" in
    Netlist.resistor nl pv mv 0.01;
    Netlist.resistor nl pa ma 0.01;
    Netlist.inductor nl mv nv 0.1e-9;
    Netlist.inductor nl ma na 0.1e-9;
    Netlist.capacitor nl nv Netlist.ground 15e-15;
    Netlist.capacitor nl na Netlist.ground 15e-15;
    Netlist.capacitor nl nv na 5e-15;
    prev := (nv, na)
  done;
  let far = fst !prev and dt = 0.5e-12 in
  let run n =
    Engine.transient ~record_nodes:[ far ] ~until_peak:far ~dt ~t_stop:(dt *. float_of_int n) nl
  in
  let words n =
    let w0 = Gc.minor_words () in
    let r = run n in
    let w = Gc.minor_words () -. w0 in
    Alcotest.(check int)
      (Printf.sprintf "%d steps, none cut by the peak watch" n)
      n (Engine.steps r);
    w
  in
  let per_step = (words 500 -. words 300) /. 200. in
  if per_step > 8. then
    Alcotest.failf "until_peak run allocates %.1f minor words per step" per_step

(* A Newton run -- an inverter into a 200-node RC ladder -- must allocate
   O(1) minor words per step: its devices evaluate into the solver's
   buffers, stamp at precomputed band positions and update through the
   scatter arrays, so an iteration allocates nothing.  What a step does
   allocate is the boxed time its source closures take and the input
   ramp's boxed value; a boxed device evaluation would cost more than the
   bound on every one of a step's two or so iterations. *)
let test_newton_step_allocation () =
  let far = ref Netlist.ground in
  let b =
    Rlc_devices.Testbench.build ~t_stop:1e-9 ~tech:Rlc_devices.Tech.c018 ~size:50.
      ~input_slew:50e-12
      ~record:(fun () -> [ !far ])
      ~load:(fun nl node ->
        let prev = ref node in
        for _ = 1 to 200 do
          let nd = Netlist.node nl "n" in
          Netlist.resistor nl !prev nd 1.;
          Netlist.capacitor nl nd Netlist.ground 2e-15;
          prev := nd
        done;
        far := !prev)
      ()
  in
  let dt = 0.5e-12 in
  let run n =
    Engine.transient ?record_nodes:b.Rlc_devices.Testbench.record_nodes ~dt
      ~t_stop:(dt *. float_of_int n) b.Rlc_devices.Testbench.netlist
  in
  let words n =
    let w0 = Gc.minor_words () in
    let r = run n in
    let w = Gc.minor_words () -. w0 in
    (w, Engine.newton_total r)
  in
  let w1, i1 = words 2000 and w2, i2 = words 4000 in
  if i2 - i1 < 2000 then Alcotest.failf "only %d Newton iterations in 2000 steps" (i2 - i1);
  let per_step = (w2 -. w1) /. 2000. in
  if per_step > 8. then
    Alcotest.failf "Newton fixed-step loop allocates %.1f minor words per step" per_step

let until_vdd = 1.8
let until_fracs = [ 0.1; 0.2; 0.5; 0.8; 0.9 ]
let bits w = Array.map Int64.bits_of_float (Waveform.values w)
let edge_of rising = if rising then Measure.Rising else Measure.Falling

(* Every Measure quantity the listed crossings determine, on (input, out). *)
let first_crossing_measures ~edge ~input ~out =
  let vdd = until_vdd in
  List.map (fun frac -> Measure.t_frac out ~vdd ~edge ~frac) until_fracs
  @ [
      Measure.t_frac input ~vdd ~edge ~frac:0.5;
      Measure.slew_10_90 out ~vdd ~edge;
      Measure.slew_20_80 out ~vdd ~edge;
      Measure.slew out ~vdd ~edge ~lo:0.5 ~hi:0.9;
      Measure.delay_50 ~input ~output:out ~vdd ~input_edge:edge ~output_edge:edge;
    ]

let crossings_of ~edge ~input ~out =
  let at node frac = (node, Measure.level_of_frac ~vdd:until_vdd ~edge ~frac, edge) in
  at input 0.5 :: List.map (at out) until_fracs

(* [pre] must be a bit-exact prefix of [full] on every probe. *)
let check_prefix ~full ~pre probes =
  let k = Array.length (Engine.times pre) in
  if k > Array.length (Engine.times full) then QCheck.Test.fail_report "prefix longer than run";
  let sub a = Array.sub a 0 k in
  if sub (Array.map Int64.bits_of_float (Engine.times full))
     <> Array.map Int64.bits_of_float (Engine.times pre)
  then QCheck.Test.fail_report "time grids differ";
  List.iter
    (fun n ->
      if sub (bits (Engine.voltage full n)) <> bits (Engine.voltage pre n) then
        QCheck.Test.fail_report "samples differ")
    probes

type until_case = {
  segs : int;
  r_tot : float;
  l_tot : float;
  c_tot : float;
  cl : float;
  slew : float;
  rising : bool;
  adaptive : bool;
  unreachable : bool;  (** add a crossing that never happens *)
}

let arb_until_case =
  let open QCheck.Gen in
  let gen =
    map
      (fun ((segs, r_tot, l_tot, c_tot), (cl, slew, rising, adaptive), unreachable) ->
        { segs; r_tot; l_tot; c_tot; cl; slew; rising; adaptive; unreachable })
      (triple
         (quad (int_range 1 8) (float_range 2. 400.) (float_range 1e-11 6e-9)
            (float_range 50e-15 1.5e-12))
         (quad (float_range 0. 200e-15) (float_range 2e-12 150e-12) bool bool)
         (frequencyl [ (3, false); (1, true) ]))
  in
  QCheck.make gen ~print:(fun u ->
      Printf.sprintf "%d segs, R %g, L %g, C %g, cl %g, slew %g, %s, %s%s" u.segs u.r_tot u.l_tot
        u.c_tot u.cl u.slew
        (if u.rising then "rise" else "fall")
        (if u.adaptive then "adaptive" else "fixed")
        (if u.unreachable then ", unreachable crossing" else ""))

(* Random RLC ladders (underdamped ones ring and overshoot) driven by a
   random PWL edge: a run stopped by [until] is a bit-exact prefix of the
   full run with identical first-crossing measurements, a crossing that
   never happens yields the full run, the step-loop span counts the steps
   taken, and a compiled handle reused after a stopped run replays the full
   run bit for bit. *)
let prop_until_linear =
  QCheck.Test.make ~name:"until: linear replay prefix keeps every first crossing" ~count:40
    arb_until_case (fun u ->
      let nl = Netlist.create () in
      let src = Netlist.node nl "src" in
      let v0, v1 = if u.rising then (0., until_vdd) else (until_vdd, 0.) in
      Netlist.force_pwl nl src (Pwl.ramp ~t0:10e-12 ~v0 ~v1 ~transition:u.slew);
      let far = ref Netlist.ground in
      Rlc_tline.Ladder.attach_load ~n_segments:u.segs
        (Rlc_tline.Line.of_totals ~r:u.r_tot ~l:u.l_tot ~c:u.c_tot ~length:5e-3)
        ~cl:u.cl nl src far;
      let far = !far and edge = edge_of u.rising in
      let until =
        crossings_of ~edge ~input:src ~out:far
        @ if u.unreachable then [ (far, 10. *. until_vdd, Waveform.Rising) ] else []
      in
      let adaptive =
        if u.adaptive then Some (Engine.default_adaptive ~dt_min:0.5e-12 ()) else None
      in
      let record_nodes = [ src; far ] and dt = 0.5e-12 and t_stop = 3e-9 in
      let full = Engine.transient ?adaptive ~record_nodes ~dt ~t_stop nl in
      let obs = Rlc_obs.Obs.create () in
      let pre = Engine.transient ~obs ?adaptive ~until ~record_nodes ~dt ~t_stop nl in
      check_prefix ~full ~pre record_nodes;
      let measures r =
        first_crossing_measures ~edge ~input:(Engine.voltage r src) ~out:(Engine.voltage r far)
      in
      if measures full <> measures pre then
        QCheck.Test.fail_report "first-crossing measures differ";
      if u.unreachable && Engine.steps pre <> Engine.steps full then
        QCheck.Test.fail_report "an unreachable crossing must yield the full run";
      let loop =
        List.find
          (fun sp -> sp.Rlc_obs.Obs.sp_name = "engine.step_loop")
          (Rlc_obs.Obs.snapshot obs).Rlc_obs.Obs.m_spans
      in
      if List.assoc "steps" loop.Rlc_obs.Obs.sp_args <> string_of_int (Engine.steps pre) then
        QCheck.Test.fail_report "step-loop span does not count the steps taken";
      let h = Engine.Compiled.compile nl in
      ignore (Engine.Compiled.run ?adaptive ~until ~record_nodes ~dt ~t_stop h);
      let again = Engine.Compiled.run ?adaptive ~record_nodes ~dt ~t_stop h in
      if Engine.steps again <> Engine.steps full then
        QCheck.Test.fail_report "reused handle: step counts differ";
      check_prefix ~full:again ~pre:full record_nodes;
      true)

(* The same contract through the nonlinear inverter bench (Newton steps),
   rising and falling output edges, fixed and adaptive. *)
let prop_until_testbench =
  QCheck.Test.make ~name:"until: inverter bench prefix keeps every first crossing" ~count:8
    QCheck.(quad (float_range 10e-12 150e-12) (float_range 10e-15 400e-15) bool bool)
    (fun (input_slew, cap, rise, adaptive) ->
      let tech = Rlc_devices.Tech.c018 in
      assert (tech.Rlc_devices.Tech.vdd = until_vdd);
      let module Tb = Rlc_devices.Testbench in
      let out_edge = edge_of rise in
      let in_edge = edge_of (not rise) in
      let adaptive = if adaptive then Some (Engine.default_adaptive ()) else None in
      let drive ?until () =
        Tb.drive ?adaptive ?until ~dt:0.5e-12 ~t_stop:1.5e-9
          ~edge:(if rise then Tb.Rise else Tb.Fall)
          ~tech ~size:50. ~input_slew ~load:(Tb.cap_load cap) ()
      in
      let full = drive () in
      let pre =
        drive
          ~until:(fun ~input ~output ->
            let at node edge frac =
              (node, Measure.level_of_frac ~vdd:until_vdd ~edge ~frac, edge)
            in
            at input in_edge 0.5 :: List.map (at output out_edge) until_fracs)
          ()
      in
      check_prefix ~full:full.Tb.engine ~pre:pre.Tb.engine [ full.Tb.out_node ];
      let measures (r : Tb.result) =
        let vdd = until_vdd in
        List.map (fun frac -> Measure.t_frac r.Tb.output ~vdd ~edge:out_edge ~frac) until_fracs
        @ [
            Measure.slew_10_90 r.Tb.output ~vdd ~edge:out_edge;
            Measure.delay_50 ~input:r.Tb.input ~output:r.Tb.output ~vdd ~input_edge:in_edge
              ~output_edge:out_edge;
          ]
      in
      if measures full <> measures pre then
        QCheck.Test.fail_report "first-crossing measures differ";
      Engine.steps pre.Tb.engine < Engine.steps full.Tb.engine)

(* ---------------------------------------------------------- until_peak *)

type peak_drive = Rise | Fall | Two_ramp

type peak_case = {
  members : int;  (** 1: a driven ladder; 2-3: a quiet victim and its aggressors *)
  segs : int;
  pr_tot : float;
  pl_tot : float;  (** 1e-16 H is the flow's clamp for RC-like nets *)
  pc_tot : float;
  cc_frac : float;  (** victim-aggressor coupling, fraction of the wire cap *)
  k_mutual : float;  (** 0: separate inductors; else one coupled group per segment *)
  rs : float;  (** the quiet victim's hold resistance *)
  drive : peak_drive;
  t0 : float;
  tr : float;
  probe : int;  (** picks the watched node among the first member's capacitor nodes *)
  compiled : bool;
}

let arb_peak_case =
  let open QCheck.Gen in
  let gen =
    let* members = frequencyl [ (2, 1); (2, 2); (1, 3) ] in
    let* segs = int_range 2 16 in
    let* rc_like = frequencyl [ (1, true); (3, false) ] in
    (* Nearly lossless lines ring longest and beat between modes: the
       cases where energy parked in inductors returns as a later peak. *)
    let* pr_tot = oneof [ float_range 0.5 8.; float_range 8. 40.; float_range 40. 300. ] in
    let* pl_tot = if rc_like then return 1e-16 else float_range 0.5e-9 6e-9 in
    let* pc_tot = float_range 100e-15 1.2e-12 in
    let* cc_frac = float_range 0.05 1. in
    (* Mutual coupling needs a real inductance matrix to invert. *)
    let* k_mutual =
      if rc_like then return 0. else frequencyl [ (2, 0.); (1, 0.3); (1, 0.45) ]
    in
    let* rs = float_range 20. 400. in
    let* drive = oneofl [ Rise; Fall; Two_ramp ] in
    let* t0 = float_range 0. 40e-12 in
    let* tr = oneof [ float_range 2e-12 20e-12; float_range 20e-12 150e-12 ] in
    let* probe = int_range 0 1000 in
    let* compiled = bool in
    return
      {
        members;
        segs;
        pr_tot;
        pl_tot;
        pc_tot;
        cc_frac;
        k_mutual;
        rs;
        drive;
        t0;
        tr;
        probe;
        compiled;
      }
  in
  QCheck.make gen ~print:(fun u ->
      Printf.sprintf
        "%d member(s) x %d segs, R %g L %g C %g, cc %.2f, k %.2f, rs %g, %s t0 %g tr %g, \
         probe %d, %s"
        u.members u.segs u.pr_tot u.pl_tot u.pc_tot u.cc_frac u.k_mutual u.rs
        (match u.drive with Rise -> "rise" | Fall -> "fall" | Two_ramp -> "two-ramp")
        u.t0 u.tr u.probe
        (if u.compiled then "compiled" else "fresh"))

(* A driven ladder, or a coupled cluster whose first member is held quiet
   through [rs] while the others are driven; returns the netlist, the
   watched node, every capacitor node of the first member, and the run's
   stop time (drive end plus ten flight times, at least 1 ns). *)
let build_peak_case u =
  let vdd = 1.8 in
  let pwl =
    match u.drive with
    | Rise -> Pwl.ramp ~t0:u.t0 ~v0:0. ~v1:vdd ~transition:u.tr
    | Fall -> Pwl.ramp ~t0:u.t0 ~v0:vdd ~v1:0. ~transition:u.tr
    | Two_ramp -> Pwl.two_ramp ~t0:u.t0 ~vdd ~f:0.6 ~tr1:u.tr ~tr2:(4. *. u.tr)
  in
  let nl = Netlist.create () in
  let m = u.members in
  let nears =
    Array.init m (fun j ->
        let nd = Netlist.node nl "near" in
        if j = 0 && m > 1 then Netlist.resistor nl nd Netlist.ground u.rs
        else Netlist.force_pwl nl nd pwl;
        nd)
  in
  let fn = float_of_int u.segs in
  let dr = u.pr_tot /. fn and dl = u.pl_tot /. fn and dc = u.pc_tot /. fn in
  let prev = ref nears and victim = ref [] in
  for _ = 1 to u.segs do
    let mids = Array.map (fun _ -> Netlist.node nl "mid") nears in
    let nexts = Array.map (fun _ -> Netlist.node nl "next") nears in
    Array.iteri (fun j mid -> Netlist.resistor nl !prev.(j) mid dr) mids;
    if u.k_mutual > 0. && m > 1 then
      Netlist.coupled_inductors nl
        (Array.mapi (fun j mid -> (mid, nexts.(j))) mids)
        ~lmat:
          (Array.init m (fun p -> Array.init m (fun q -> if p = q then dl else u.k_mutual *. dl)))
    else Array.iteri (fun j mid -> Netlist.inductor nl mid nexts.(j) dl) mids;
    Array.iter (fun nd -> Netlist.capacitor nl nd Netlist.ground dc) nexts;
    for j = 1 to m - 1 do
      Netlist.capacitor nl nexts.(0) nexts.(j) (u.cc_frac *. dc)
    done;
    victim := nexts.(0) :: !victim;
    prev := nexts
  done;
  let victim = Array.of_list (List.rev !victim) in
  let tof = Float.sqrt (u.pl_tot *. u.pc_tot) in
  (nl, victim.(u.probe mod Array.length victim), Array.to_list victim,
   Pwl.end_time pwl +. Float.max 1e-9 (10. *. tof))

(* Tallies over the last check of [prop_until_peak]: cases run, cases that
   stopped early, and stopped cases whose maximum came after the sources
   went flat (a stop at the first flat sample would miss it). *)
let peak_cases = ref 0
let peak_stopped = ref 0
let peak_late = ref 0

(* Random linear circuits -- RC-like and underdamped RLC ladders, coupled
   clusters with a quiet victim, separate or mutually coupled inductors --
   under rising, falling and two-ramp PWL drives, fresh and compiled: a run
   stopped by [until_peak] is a bit-exact prefix of the full run whose
   maximum has the full run's bits. *)
let prop_until_peak =
  QCheck.Test.make ~name:"until_peak: prefix keeps the full run's maximum" ~count:300
    arb_peak_case (fun u ->
      let nl, probe, record_nodes, t_stop = build_peak_case u in
      let dt = 0.5e-12 in
      let handle = lazy (Engine.Compiled.compile nl) in
      let run ?until_peak () =
        if u.compiled then
          Engine.Compiled.run ?until_peak ~record_nodes ~dt ~t_stop (Lazy.force handle)
        else Engine.transient ?until_peak ~record_nodes ~dt ~t_stop nl
      in
      (* The stopped run goes first so a compiled handle is reused after it. *)
      let pre = run ~until_peak:probe () in
      let full = run () in
      check_prefix ~full ~pre record_nodes;
      let peak r = Waveform.v_max (Engine.voltage r probe) in
      if Int64.bits_of_float (peak pre) <> Int64.bits_of_float (peak full) then
        QCheck.Test.fail_reportf "maximum %.17g after the stop, %.17g over the full run"
          (peak pre) (peak full);
      incr peak_cases;
      if Engine.steps pre < Engine.steps full then begin
        incr peak_stopped;
        let w = Engine.voltage full probe in
        let vs = Waveform.values w in
        let imax = ref 0 in
        Array.iteri (fun i v -> if v > vs.(!imax) then imax := i) vs;
        if (Waveform.times w).(!imax) > Netlist.flat_after nl then incr peak_late
      end;
      true)

let test_until_peak () =
  peak_cases := 0;
  peak_stopped := 0;
  peak_late := 0;
  QCheck.Test.check_exn prop_until_peak;
  if 2 * !peak_stopped <= !peak_cases then
    Alcotest.failf "only %d of %d cases stopped early" !peak_stopped !peak_cases;
  if !peak_late = 0 then Alcotest.fail "no stopped case peaked after its sources went flat"

(* Each precondition of the stop keeps the full window.  The base circuit
   is an underdamped RLC ladder under a rising PWL, whose far-end overshoot
   is certified final early; every variant breaks one precondition. *)
let test_until_peak_preconditions () =
  let dt = 0.5e-12 and t_stop = 1.5e-9 in
  let build ?(closure = false) ?(isource = false) ?(nonlinear = false) ?r_term () =
    let nl = Netlist.create () in
    let src = Netlist.node nl "src" in
    let pwl = Pwl.ramp ~t0:10e-12 ~v0:0. ~v1:1.8 ~transition:30e-12 in
    if closure then Netlist.force_voltage nl src (Pwl.eval pwl) else Netlist.force_pwl nl src pwl;
    let b =
      Rlc_tline.Ladder.build ~n_segments:6 nl
        (Rlc_tline.Line.of_totals ~r:20. ~l:3e-9 ~c:0.6e-12 ~length:3e-3)
        ~near:src
    in
    Netlist.capacitor nl b.Rlc_tline.Ladder.far Netlist.ground 20e-15;
    if isource then Netlist.current_source nl b.Rlc_tline.Ladder.far Netlist.ground (fun _ -> 0.);
    if nonlinear then Netlist.nonlinear nl (nonlinear_resistor b.Rlc_tline.Ladder.far 1e-9);
    Option.iter (fun r -> Netlist.resistor nl b.Rlc_tline.Ladder.far Netlist.ground r) r_term;
    (nl, b)
  in
  let steps ?adaptive ~until_peak nl =
    let run up = Engine.steps (Engine.transient ?adaptive ?until_peak:up ~dt ~t_stop nl) in
    (run (Some until_peak), run None)
  in
  let far_of (_, b) = b.Rlc_tline.Ladder.far in
  let stops msg ((nl, _) as c) =
    let pre, full = steps ~until_peak:(far_of c) nl in
    if pre >= full then Alcotest.failf "%s: %d steps, full window %d" msg pre full
  in
  let full_window ?adaptive ?node msg ((nl, _) as c) =
    let node = Option.value node ~default:(far_of c) in
    let pre, full = steps ?adaptive ~until_peak:node nl in
    Alcotest.(check int) msg full pre
  in
  stops "PWL-driven linear ladder" (build ());
  full_window "force_voltage closure" (build ~closure:true ());
  full_window "current source" (build ~isource:true ());
  full_window "nonlinear device" (build ~nonlinear:true ());
  full_window "DC inductor current into a resistive termination" (build ~r_term:200. ());
  (let ((_, b) as c) = build () in
   (* The first R-L junction: no capacitor touches it. *)
   let mid = List.hd b.Rlc_tline.Ladder.internal in
   full_window ~node:mid "node without grounded capacitance" c);
  full_window ~adaptive:(Engine.default_adaptive ~dt_min:dt ()) "adaptive stepping" (build ());
  (* A restamp carries the new netlist's flat time into a compiled handle. *)
  (let ((nl, _) as c) = build () in
   let h = Engine.Compiled.compile nl in
   let run nl =
     Engine.Compiled.restamp h nl;
     Engine.steps (Engine.Compiled.run ~until_peak:(far_of c) ~dt ~t_stop h)
   in
   let full = Engine.steps (Engine.Compiled.run ~dt ~t_stop h) in
   if run nl >= full then Alcotest.fail "compiled PWL ladder did not stop";
   Alcotest.(check int) "restamped to a closure source" full (run (fst (build ~closure:true ())));
   if run nl >= full then Alcotest.fail "restamped back to the PWL: did not stop");
  match Engine.transient ~until_peak:1000 ~dt ~t_stop (fst (build ())) with
  | _ -> Alcotest.fail "an out-of-range until_peak node must raise"
  | exception Invalid_argument _ -> ()

(* ---------------------------------------------------------------- lanes *)

(* One lane of a same-structure batch: its element values, the PWL of its
   driven members (1 to 3 points), its window and the far-end crossings it
   stops at. *)
type lane_vals = {
  lv_r : float;
  lv_l : float;
  lv_c : float;
  lv_cl : float;
  lv_cc : float;  (** coupling, fraction of the segment cap *)
  lv_rs : float;  (** the quiet victim's hold resistance *)
  lv_pwl : (float * float) list;
  lv_t_stop : float;
  lv_until : (float * bool) list;  (** level, rising *)
  lv_peak : bool;  (** watch the quiet victim's far-end peak ([until_peak]) *)
}

type lanes_case = {
  lc_members : int;  (** 1: a driven ladder; 2-4: a cluster with a quiet first member *)
  lc_segs : int;
  lc_mutual : bool;  (** one coupled-inductor group per segment *)
  lc_lanes : lane_vals list;
}

let arb_lanes_case =
  let open QCheck.Gen in
  let lane =
    let* lv_r = float_range 2. 300.
    and* lv_l = float_range 0.2e-9 6e-9
    and* lv_c = float_range 50e-15 1.2e-12
    and* lv_cl = float_range 0. 200e-15
    and* lv_cc = float_range 0.05 1.
    and* lv_rs = float_range 20. 400.
    and* n_pts = int_range 1 3
    and* t0 = float_range 0. 40e-12
    and* gaps = list_repeat 2 (float_range 2e-12 120e-12)
    and* v0 = oneof [ return 0.; float_range 0. 1.8 ]
    and* vs = list_repeat 2 (float_range 0. 1.8)
    and* lv_t_stop = float_range 150e-12 600e-12
    and* lv_until = list_size (int_range 0 2) (pair (float_range 0.05 1.75) bool)
    and* lv_peak = bool in
    let times = List.rev (List.fold_left (fun acc g -> (List.hd acc +. g) :: acc) [ t0 ] gaps) in
    let pts = List.filteri (fun i _ -> i < n_pts) (List.combine times (v0 :: vs)) in
    return { lv_r; lv_l; lv_c; lv_cl; lv_cc; lv_rs; lv_pwl = pts; lv_t_stop; lv_until; lv_peak }
  in
  let gen =
    let* lc_members = frequencyl [ (2, 1); (1, 2); (1, 3); (1, 4) ] in
    let* lc_segs = int_range 1 8 in
    let* lc_mutual = if lc_members > 1 then bool else return false in
    let* lc_lanes = list_size (int_range 1 10) lane in
    return { lc_members; lc_segs; lc_mutual; lc_lanes }
  in
  QCheck.make gen ~print:(fun u ->
      Printf.sprintf "%d member(s) x %d segs%s, %d lane(s): %s" u.lc_members u.lc_segs
        (if u.lc_mutual then " (mutual L)" else "")
        (List.length u.lc_lanes)
        (String.concat "; "
           (List.map
              (fun v ->
                Printf.sprintf "R %g L %g C %g cl %g pwl [%s] t_stop %g until [%s]%s" v.lv_r v.lv_l
                  v.lv_c v.lv_cl
                  (String.concat ", " (List.map (fun (t, x) -> Printf.sprintf "%g:%g" t x) v.lv_pwl))
                  v.lv_t_stop
                  (String.concat ", "
                     (List.map
                        (fun (x, up) -> Printf.sprintf "%g%s" x (if up then "^" else "v"))
                        v.lv_until))
                  (if v.lv_peak then " peak" else ""))
              u.lc_lanes)))

(* A lane's netlist: every lane of a case has the same structure.  Returns
   it with the nodes to record (each member's far end), the crossings of
   the last member's far end to stop at, and in a cluster whose lane
   watches its peak, the quiet victim's far end. *)
let build_lane u v =
  let nl = Netlist.create () in
  let m = u.lc_members in
  let pwl = Pwl.of_points v.lv_pwl in
  let nears =
    Array.init m (fun j ->
        let nd = Netlist.node nl "near" in
        if j = 0 && m > 1 then Netlist.resistor nl nd Netlist.ground v.lv_rs
        else Netlist.force_pwl nl nd pwl;
        nd)
  in
  let fn = float_of_int u.lc_segs in
  let dr = v.lv_r /. fn and dl = v.lv_l /. fn and dc = v.lv_c /. fn in
  let prev = ref nears in
  for _ = 1 to u.lc_segs do
    let mids = Array.map (fun _ -> Netlist.node nl "mid") nears in
    let nexts = Array.map (fun _ -> Netlist.node nl "next") nears in
    Array.iteri (fun j mid -> Netlist.resistor nl !prev.(j) mid dr) mids;
    if u.lc_mutual then
      Netlist.coupled_inductors nl
        (Array.mapi (fun j mid -> (mid, nexts.(j))) mids)
        ~lmat:(Array.init m (fun p -> Array.init m (fun q -> if p = q then dl else 0.25 *. dl)))
    else Array.iteri (fun j mid -> Netlist.inductor nl mid nexts.(j) dl) mids;
    Array.iter (fun nd -> Netlist.capacitor nl nd Netlist.ground dc) nexts;
    for j = 1 to m - 1 do
      Netlist.capacitor nl nexts.(0) nexts.(j) (v.lv_cc *. dc)
    done;
    prev := nexts
  done;
  Array.iter (fun nd -> Netlist.capacitor nl nd Netlist.ground (v.lv_cl +. 1e-15)) !prev;
  let far = !prev.(m - 1) in
  let until =
    List.map
      (fun (level, up) -> (far, level, if up then Waveform.Rising else Waveform.Falling))
      v.lv_until
  in
  let until_peak = if m > 1 && v.lv_peak then Some !prev.(0) else None in
  (nl, Array.to_list !prev, until, until_peak)

let same_run ~what a b nodes =
  let bits_of r n = bits (Engine.voltage r n) in
  if Array.map Int64.bits_of_float (Engine.times a) <> Array.map Int64.bits_of_float (Engine.times b)
  then QCheck.Test.fail_reportf "%s: time grids differ (%d vs %d steps)" what (Engine.steps a)
      (Engine.steps b);
  List.iter
    (fun n -> if bits_of a n <> bits_of b n then QCheck.Test.fail_reportf "%s: samples differ" what)
    nodes

(* Random same-structure batches of 1 to 10 lanes -- ladders and 2- to
   4-member clusters, random element values, PWLs and windows, far-end
   crossings and, on about half a cluster's lanes, a watch of the quiet
   victim's far-end peak, which stop the lanes at different steps (past
   [max_lanes] a batch steps in two passes): each lane's times and samples
   are bit for bit those of its netlist run alone and run with per-step
   reassembly, and a peak-watching lane's [v_max] has its run alone's
   bits. *)
let prop_lanes =
  QCheck.Test.make ~name:"lanes: each lane = its run alone = per-step reassembly" ~count:60
    arb_lanes_case (fun u ->
      let dt = 1e-12 in
      let built = List.map (build_lane u) u.lc_lanes in
      let lanes =
        Array.of_list
          (List.map2
             (fun (nl, record_nodes, until, until_peak) v ->
               {
                 Engine.Compiled.handle = Engine.Compiled.compile nl;
                 t_stop = v.lv_t_stop;
                 record_nodes;
                 until;
                 until_peak;
               })
             built u.lc_lanes)
      in
      let obs = Rlc_obs.Obs.create () in
      let results = Array.map Result.get_ok (Engine.Compiled.run_lanes ~obs ~dt lanes) in
      List.iteri
        (fun i (nl, record_nodes, until, until_peak) ->
          let t_stop = lanes.(i).Engine.Compiled.t_stop in
          let alone = Engine.transient ~record_nodes ~until ?until_peak ~dt ~t_stop nl in
          let oracle =
            Engine.transient ~reassemble_per_step:true ~record_nodes ~until ?until_peak ~dt
              ~t_stop nl
          in
          same_run ~what:(Printf.sprintf "lane %d vs alone" i) results.(i) alone record_nodes;
          same_run ~what:(Printf.sprintf "lane %d vs reassembly" i) results.(i) oracle record_nodes;
          Option.iter
            (fun n ->
              let v_max r = Int64.bits_of_float (Waveform.v_max (Engine.voltage r n)) in
              if v_max results.(i) <> v_max alone then
                QCheck.Test.fail_reportf "lane %d: peak differs from its run alone" i)
            until_peak)
        built;
      let m = Rlc_obs.Obs.snapshot obs in
      let passes =
        List.filter (fun sp -> sp.Rlc_obs.Obs.sp_name = "engine.step_loop") m.Rlc_obs.Obs.m_spans
      in
      let k = Array.length lanes in
      if List.length passes <> (k + Engine.Compiled.max_lanes - 1) / Engine.Compiled.max_lanes then
        QCheck.Test.fail_reportf "%d lanes stepped in %d passes" k (List.length passes);
      if List.assoc_opt "engine.transients" m.Rlc_obs.Obs.m_counters <> Some k then
        QCheck.Test.fail_report "engine.transients does not count lanes";
      true)

(* ---------------------------------------------------------- Newton lanes *)

(* One inverter bench of a Newton batch: driver size and input slew, the
   load's element values, its window, whether it stops at the far end's
   50 % crossing, and how its NMOS fails, if it does: a NaN current from
   the start (at the operating point) or once the falling input passes
   0.9 V (mid-run). *)
type nlane_vals = {
  nv_size : float;
  nv_slew : float;
  nv_r : float;
  nv_l : float;
  nv_c : float;
  nv_t_stop : float;
  nv_until : bool;
  nv_fail : [ `No | `Dc | `Mid ];
}

type nlanes_case = {
  nc_load : [ `Cap | `Rc | `Rlc ];
  nc_segs : int;
  nc_lanes : nlane_vals list;
}

let arb_nlanes_case =
  let open QCheck.Gen in
  let lane =
    let* nv_size = float_range 10. 150.
    and* nv_slew = float_range 20e-12 200e-12
    and* nv_r = float_range 5. 150.
    and* nv_l = float_range 0.2e-9 5e-9
    and* nv_c = float_range 20e-15 800e-15
    and* nv_t_stop = float_range 150e-12 400e-12
    and* nv_until = bool
    and* nv_fail = frequencyl [ (10, `No); (1, `Dc); (1, `Mid) ] in
    return { nv_size; nv_slew; nv_r; nv_l; nv_c; nv_t_stop; nv_until; nv_fail }
  in
  let gen =
    let* nc_load = oneofl [ `Cap; `Rc; `Rlc ] in
    let* nc_segs = int_range 1 6 in
    let* nc_lanes = list_size (int_range 1 10) lane in
    return { nc_load; nc_segs; nc_lanes }
  in
  QCheck.make gen ~print:(fun u ->
      Printf.sprintf "%s x %d segs, %d lane(s): %s"
        (match u.nc_load with `Cap -> "cap" | `Rc -> "RC" | `Rlc -> "RLC")
        u.nc_segs (List.length u.nc_lanes)
        (String.concat "; "
           (List.map
              (fun v ->
                Printf.sprintf "%gX slew %g R %g L %g C %g t_stop %g%s%s" v.nv_size v.nv_slew v.nv_r
                  v.nv_l v.nv_c v.nv_t_stop
                  (if v.nv_until then " until" else "")
                  (match v.nv_fail with `No -> "" | `Dc -> " NaN" | `Mid -> " NaN mid-run"))
              u.nc_lanes)))

(* A lane's bench: input ramp, inverter, load; every lane of a case has
   the same structure.  Returns it with the nodes to record and the
   crossings to stop at. *)
let build_newton_lane u v =
  let module Tech = Rlc_devices.Tech in
  let module Mosfet = Rlc_devices.Mosfet in
  let module Inverter = Rlc_devices.Inverter in
  let tech = Tech.c018 in
  let nl = Netlist.create () in
  let vdd = Netlist.node nl "vdd" in
  Netlist.force_voltage nl vdd (fun _ -> tech.Tech.vdd);
  let input = Netlist.node nl "in" in
  Netlist.force_voltage nl input
    (Rlc_devices.Testbench.falling_input tech ~t0:10e-12 ~slew:v.nv_slew);
  let out = Netlist.node nl "out" in
  let inv = Inverter.make tech ~size:v.nv_size in
  let nmos =
    Mosfet.device tech.Tech.nmos ~polarity:Mosfet.Nmos ~w_um:(Inverter.wn_um inv) ~d:out ~g:input
      ~s:Netlist.ground ~name:"MN"
  in
  let eval = nmos.Netlist.nl_eval in
  let nmos =
    match v.nv_fail with
    | `No -> nmos
    | `Dc ->
        { nmos with nl_eval = (fun vv i g -> eval vv i g; i.(0) <- Float.nan) }
    | `Mid ->
        { nmos with nl_eval = (fun vv i g -> eval vv i g; if vv.(1) < 0.9 then i.(0) <- Float.nan) }
  in
  Netlist.nonlinear nl nmos;
  Netlist.nonlinear nl
    (Mosfet.device tech.Tech.pmos ~polarity:Mosfet.Pmos ~w_um:(Inverter.wp_um inv) ~d:out ~g:input
       ~s:vdd ~name:"MP");
  Netlist.capacitor nl out Netlist.ground (Inverter.output_junction_cap inv);
  let fn = float_of_int u.nc_segs in
  let far =
    match u.nc_load with
    | `Cap ->
        Netlist.capacitor nl out Netlist.ground v.nv_c;
        out
    | `Rc | `Rlc ->
        let prev = ref out in
        for _ = 1 to u.nc_segs do
          let mid = Netlist.node nl "mid" in
          Netlist.resistor nl !prev mid (v.nv_r /. fn);
          let next =
            match u.nc_load with
            | `Rlc ->
                let next = Netlist.node nl "next" in
                Netlist.inductor nl mid next (v.nv_l /. fn);
                next
            | `Rc | `Cap -> mid
          in
          Netlist.capacitor nl next Netlist.ground (v.nv_c /. fn);
          prev := next
        done;
        !prev
  in
  let until = if v.nv_until then [ (far, 0.5 *. tech.Tech.vdd, Waveform.Rising) ] else [] in
  (nl, [ input; out; far ], until)

(* Random same-structure batches of 1 to 10 inverter benches -- driver
   sizes, slews, cap, RC-ladder and RLC-ladder loads, windows, far-end
   50 % stops -- step as Newton lanes, eight to a pass: each lane's times
   and samples are bit for bit its netlist run alone and run with
   per-step reassembly, and its Newton count is theirs.  A lane whose
   device current turns NaN, at the operating point or mid-run, fails
   with the [Newton_diverged] its run alone raises (same time, no
   context), and the other lanes are untouched by it. *)
let prop_newton_lanes =
  QCheck.Test.make ~name:"Newton lanes = each alone = per-step reassembly" ~count:25
    arb_nlanes_case (fun u ->
      let dt = 1e-12 in
      let built = List.map (build_newton_lane u) u.nc_lanes in
      let lanes =
        Array.of_list
          (List.map2
             (fun (nl, record_nodes, until) v ->
               {
                 Engine.Compiled.handle = Engine.Compiled.compile nl;
                 t_stop = v.nv_t_stop;
                 record_nodes;
                 until;
                 until_peak = None;
               })
             built u.nc_lanes)
      in
      let obs = Rlc_obs.Obs.create () in
      let outcomes = Engine.Compiled.run_lanes ~obs ~dt lanes in
      let diverged_at f =
        match f () with
        | _ -> None
        | exception Engine.Newton_diverged { t; within = [] } -> Some (Int64.bits_of_float t)
      in
      List.iteri
        (fun i (nl, record_nodes, until) ->
          let t_stop = lanes.(i).Engine.Compiled.t_stop in
          let alone () = Engine.transient ~record_nodes ~until ~dt ~t_stop nl in
          let oracle () =
            Engine.transient ~reassemble_per_step:true ~record_nodes ~until ~dt ~t_stop nl
          in
          match outcomes.(i) with
          | Ok r ->
              let a = alone () and o = oracle () in
              same_run ~what:(Printf.sprintf "lane %d vs alone" i) r a record_nodes;
              same_run ~what:(Printf.sprintf "lane %d vs reassembly" i) r o record_nodes;
              if Engine.newton_total r <> Engine.newton_total a then
                QCheck.Test.fail_reportf "lane %d: %d Newton iterations, %d alone" i
                  (Engine.newton_total r) (Engine.newton_total a);
              if Engine.newton_total r <> Engine.newton_total o then
                QCheck.Test.fail_reportf "lane %d: Newton count differs from reassembly" i
          | Error (Engine.Newton_diverged { t; within = [] }) ->
              let t = Some (Int64.bits_of_float t) in
              if diverged_at alone <> t || diverged_at oracle <> t then
                QCheck.Test.fail_reportf "lane %d diverged at %g, not where its run alone does" i
                  (Int64.float_of_bits (Option.get t))
          | Error e -> QCheck.Test.fail_reportf "lane %d: %s" i (Printexc.to_string e))
        built;
      List.iteri
        (fun i v ->
          match (v.nv_fail, outcomes.(i)) with
          | `No, Error _ -> QCheck.Test.fail_reportf "healthy lane %d failed" i
          | (`Dc | `Mid), Ok _ -> QCheck.Test.fail_reportf "NaN lane %d completed" i
          | _ -> ())
        u.nc_lanes;
      let stepped = List.length (List.filter (fun v -> v.nv_fail <> `Dc) u.nc_lanes) in
      let m = Rlc_obs.Obs.snapshot obs in
      let passes =
        List.filter
          (fun sp ->
            sp.Rlc_obs.Obs.sp_name = "engine.step_loop"
            && List.assoc_opt "path" sp.Rlc_obs.Obs.sp_args = Some "newton-fast")
          m.Rlc_obs.Obs.m_spans
      in
      let want = (stepped + Engine.Compiled.max_lanes - 1) / Engine.Compiled.max_lanes in
      if List.length passes <> want then
        QCheck.Test.fail_reportf "%d stepped lanes in %d passes" stepped (List.length passes);
      true)

let test_lanes_reject_shared_handle () =
  let nl, out = build_rc_pair 1e3 1e-12 in
  let h = Engine.Compiled.compile nl in
  let lane =
    {
      Engine.Compiled.handle = h;
      t_stop = 1e-10;
      record_nodes = [ out ];
      until = [];
      until_peak = None;
    }
  in
  match Engine.Compiled.run_lanes ~dt:1e-12 [| lane; lane |] with
  | _ -> Alcotest.fail "a handle in two lanes must raise"
  | exception Invalid_argument _ -> ()

(* ---------------------------------------------------- quiet lead-ins *)

(* A far-end replay shaped like the flow's: a 40-segment RLC ladder into a
   receiver load, its near end forced by a two-ramp model waveform shifted
   to start at [t0], as [Reference.replay_circuit] shifts it; [v0] lifts
   the whole waveform, and [hold] adds a 1 mA current source at the far
   end that is on at t = 0 only.  Returns the netlist and the far node. *)
let replay_ladder ?(v0 = 0.) ?(hold = false) ~t0 () =
  let nl = Netlist.create () in
  let near = Netlist.node nl "near" in
  Netlist.force_pwl nl near
    (Pwl.of_points [ (t0, v0); (t0 +. 18e-12, v0 +. 1.); (t0 +. 55e-12, v0 +. 1.8) ]);
  let prev = ref near in
  for _ = 1 to 40 do
    let mid = Netlist.node nl "mid" and next = Netlist.node nl "next" in
    Netlist.resistor nl !prev mid 2.;
    Netlist.inductor nl mid next 0.1e-9;
    Netlist.capacitor nl next Netlist.ground 20e-15;
    prev := next
  done;
  let far = !prev in
  Netlist.capacitor nl far Netlist.ground 10e-15;
  if hold then Netlist.current_source nl far Netlist.ground (fun t -> if t <= 0. then 1e-3 else 0.);
  (nl, far)

let repeated obs = Rlc_obs.Obs.counter (Rlc_obs.Obs.snapshot obs) "engine.steps_repeated"

(* [nl]'s run on the kernel, with [obs], against its per-step reassembly:
   bit-equal times and far-end samples, and [engine.steps] counts them. *)
let check_against_reassembly ~what ~t_stop (nl, far) =
  let dt = 0.5e-12 and obs = Rlc_obs.Obs.create () in
  let r = Engine.Compiled.run ~obs ~record_nodes:[ far ] ~dt ~t_stop (Engine.Compiled.compile nl) in
  let oracle = Engine.transient ~reassemble_per_step:true ~record_nodes:[ far ] ~dt ~t_stop nl in
  same_run ~what:(what ^ " vs per-step reassembly") r oracle [ far ];
  Alcotest.(check int) (what ^ ": engine.steps") (Engine.steps oracle)
    (Rlc_obs.Obs.counter (Rlc_obs.Obs.snapshot obs) "engine.steps");
  repeated obs

(* A replay whose model waveform starts at 10 ps sees a +0.0 source at
   steps 1-20 of 0.5 ps: step 1 runs and leaves the all-zero state, steps
   2-20 repeat it, bit for bit what per-step reassembly computes.  A run
   from a non-zero DC point, one held off zero only by its DC point, and
   one whose source moves at step 1 repeat nothing; nor do Newton lanes.
   In a batch each lane repeats its own lead-in. *)
let test_repeated_lead_in () =
  let t_stop = 150e-12 in
  Alcotest.(check int) "cold_flow-shaped replay" 19
    (check_against_reassembly ~what:"lead-in" ~t_stop (replay_ladder ~t0:10e-12 ()));
  Alcotest.(check int) "non-zero DC point" 0
    (check_against_reassembly ~what:"lifted" ~t_stop (replay_ladder ~v0:0.2 ~t0:10e-12 ()));
  Alcotest.(check int) "zero sources, non-zero DC point" 0
    (check_against_reassembly ~what:"held" ~t_stop (replay_ladder ~hold:true ~t0:10e-12 ()));
  Alcotest.(check int) "source moves at step 1" 0
    (check_against_reassembly ~what:"immediate" ~t_stop (replay_ladder ~t0:0. ()));
  let dt = 0.5e-12 and obs = Rlc_obs.Obs.create () in
  let cases = [ replay_ladder ~t0:10e-12 (); replay_ladder ~t0:0. (); replay_ladder ~t0:5e-12 () ] in
  let lanes =
    Array.of_list
      (List.map
         (fun (nl, far) ->
           {
             Engine.Compiled.handle = Engine.Compiled.compile nl;
             t_stop;
             record_nodes = [ far ];
             until = [];
             until_peak = None;
           })
         cases)
  in
  let results = Engine.Compiled.run_lanes ~obs ~dt lanes in
  List.iteri
    (fun i (nl, far) ->
      let alone = Engine.transient ~record_nodes:[ far ] ~dt ~t_stop nl in
      match results.(i) with
      | Ok r -> same_run ~what:(Printf.sprintf "lane %d vs alone" i) r alone [ far ]
      | Error e -> Alcotest.fail (Printexc.to_string e))
    cases;
  Alcotest.(check int) "a batch repeats each lane's lead-in" (19 + 9) (repeated obs);
  let obs = Rlc_obs.Obs.create () in
  let u = { nc_load = `Rlc; nc_segs = 4; nc_lanes = [] }
  and v =
    {
      nv_size = 50.;
      nv_slew = 60e-12;
      nv_r = 40.;
      nv_l = 2e-9;
      nv_c = 300e-15;
      nv_t_stop = 120e-12;
      nv_until = false;
      nv_fail = `No;
    }
  in
  let benches =
    Array.init 2 (fun _ ->
        let nl, record_nodes, until = build_newton_lane u v in
        {
          Engine.Compiled.handle = Engine.Compiled.compile nl;
          t_stop = v.nv_t_stop;
          record_nodes;
          until;
          until_peak = None;
        })
  in
  Array.iter (fun r -> ignore (Result.get_ok r)) (Engine.Compiled.run_lanes ~obs ~dt benches);
  Alcotest.(check int) "Newton lanes repeat nothing" 0 (repeated obs)

(* A random linear circuit whose every source is +0.0 at t = 0: a ladder
   (RC or RLC), an RC tree with coupling caps, a 2- or 3-member cluster
   (coupling caps, optionally coupled inductors), or a dense system (a
   resistor spanning the whole node range pushes the bandwidth past the
   banded cutoff); driven by forced nodes and current sources that start
   later. *)
type zdc_case = {
  z_shape : [ `Ladder | `Tree | `Cluster | `Dense ];
  z_n : int;  (** segments, tree nodes or cluster segments *)
  z_l : bool;  (** inductors in the series branches *)
  z_vals : float array;  (** element value jitter, one per slot used *)
  z_parents : int array;  (** tree: each node's parent among the earlier ones *)
  z_members : int;
  z_isrc : bool;
}

let arb_zdc =
  let open QCheck.Gen in
  let gen =
    let* z_shape = oneofl [ `Ladder; `Tree; `Cluster; `Dense ] in
    let* z_n = int_range 1 (if z_shape = `Dense then 40 else 12) in
    let z_n = if z_shape = `Dense then Int.max 30 z_n else z_n in
    let* z_l = bool and* z_members = int_range 2 3 and* z_isrc = bool in
    let* z_vals = array_repeat 200 (float_range 0.2 5.) in
    let* z_parents = array_repeat z_n (float_range 0. 1.) in
    let z_parents = Array.mapi (fun i x -> int_of_float (x *. float_of_int i)) z_parents in
    return { z_shape; z_n; z_l; z_vals; z_parents; z_members; z_isrc }
  in
  QCheck.make gen ~print:(fun z ->
      Printf.sprintf "%s n=%d%s members=%d%s"
        (match z.z_shape with
        | `Ladder -> "ladder"
        | `Tree -> "tree"
        | `Cluster -> "cluster"
        | `Dense -> "dense")
        z.z_n
        (if z.z_l then " L" else "")
        z.z_members
        (if z.z_isrc then " isrc" else ""))

let build_zdc z =
  let nl = Netlist.create () in
  let k = ref 0 in
  let v base =
    incr k;
    base *. z.z_vals.(!k mod Array.length z.z_vals)
  in
  let driven () =
    let nd = Netlist.node nl "in" in
    Netlist.force_pwl nl nd (Pwl.of_points [ (7e-12, 0.); (30e-12, 1.8) ]);
    nd
  in
  let series a b =
    if z.z_l then begin
      let m = Netlist.node nl "m" in
      Netlist.resistor nl a m (v 10.);
      Netlist.inductor nl m b (v 0.2e-9)
    end
    else Netlist.resistor nl a b (v 10.)
  in
  let ladder src =
    let prev = ref src and nodes = ref [] in
    for _ = 1 to z.z_n do
      let next = Netlist.node nl "n" in
      series !prev next;
      Netlist.capacitor nl next Netlist.ground (v 20e-15);
      nodes := next :: !nodes;
      prev := next
    done;
    Array.of_list (List.rev !nodes)
  in
  let nodes =
    match z.z_shape with
    | `Ladder -> ladder (driven ())
    | `Tree ->
        let root = driven () in
        let nodes = Array.make z.z_n root in
        for i = 0 to z.z_n - 1 do
          let nd = Netlist.node nl "t" in
          series (if i = 0 then root else nodes.(z.z_parents.(i))) nd;
          Netlist.capacitor nl nd Netlist.ground (v 15e-15);
          if i > 1 then Netlist.capacitor nl nd nodes.(z.z_parents.(i - 1)) (v 3e-15);
          nodes.(i) <- nd
        done;
        nodes
    | `Cluster ->
        let members = Array.init z.z_members (fun _ -> ladder (driven ())) in
        for s = 0 to z.z_n - 1 do
          for j = 1 to z.z_members - 1 do
            Netlist.capacitor nl members.(0).(s) members.(j).(s) (v 5e-15)
          done
        done;
        if z.z_l then begin
          (* A coupled group across the members' last segments. *)
          let ends = Array.map (fun m -> m.(Array.length m - 1)) members in
          let tails = Array.map (fun _ -> Netlist.node nl "k") ends in
          let l = v 0.1e-9 in
          Netlist.coupled_inductors nl
            (Array.mapi (fun j e -> (e, tails.(j))) ends)
            ~lmat:
              (Array.init z.z_members (fun p ->
                   Array.init z.z_members (fun q -> if p = q then l else 0.3 *. l)));
          Array.iter (fun t -> Netlist.capacitor nl t Netlist.ground (v 10e-15)) tails
        end;
        Array.concat (Array.to_list members)
    | `Dense ->
        let nodes = ladder (driven ()) in
        Netlist.resistor nl nodes.(0) nodes.(Array.length nodes - 1) (v 50.);
        nodes
  in
  if z.z_isrc then
    Netlist.current_source nl nodes.(Array.length nodes - 1) Netlist.ground (fun t ->
        if t < 5e-12 then 0. else 1e-4);
  nl

(* The all-zero DC point a zero-source linear run takes without a solve is
   bit for bit the point [dc_operating_point] solves, on every shape above:
   the run's first samples are compared with the solve, node by node. *)
let prop_zero_dc =
  QCheck.Test.make ~name:"zero DC point = the solved point, bit for bit" ~count:200 arb_zdc
    (fun z ->
      let nl = build_zdc z in
      let solved = Engine.dc_operating_point nl in
      let r = Engine.transient ~dt:0.5e-12 ~t_stop:2e-12 nl in
      Array.iteri
        (fun n x ->
          let first = (Engine.voltage r n |> Waveform.values).(0) in
          if Int64.bits_of_float first <> Int64.bits_of_float x || Int64.bits_of_float x <> 0L then
            QCheck.Test.fail_reportf "node %d: run starts at %h, the solve gives %h" n first x)
        solved;
      true)

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "rlc_circuit"
    [
      ( "linear",
        [
          Alcotest.test_case "RC step response" `Quick test_rc_step;
          Alcotest.test_case "DC divider" `Quick test_rc_divider_dc;
          Alcotest.test_case "series RLC underdamped" `Quick test_series_rlc_underdamped;
          Alcotest.test_case "current source" `Quick test_current_source_into_rc;
          Alcotest.test_case "LC ladder time of flight" `Quick test_lc_ladder_time_of_flight;
          Alcotest.test_case "PWL replay" `Quick test_pwl_replay;
          q prop_rc_charge_conservation;
        ] );
      ( "nonlinear",
        [
          Alcotest.test_case "nonlinear resistor = linear" `Quick test_nonlinear_matches_linear;
          Alcotest.test_case "diode clamp KCL" `Quick test_diode_clamp_dc;
        ] );
      ( "factor-once",
        [
          Alcotest.test_case "RC ladder fast = per-step reassembly" `Quick test_equiv_rc;
          Alcotest.test_case "RLC ladder fast = per-step reassembly" `Quick test_equiv_rlc;
          Alcotest.test_case "coupled pair fast = per-step reassembly" `Quick test_equiv_coupled;
          Alcotest.test_case "nonlinear fast = per-step reassembly" `Quick test_equiv_nonlinear;
          Alcotest.test_case "selective node recording" `Quick test_record_nodes;
        ] );
      ( "adaptive",
        [
          Alcotest.test_case "RC tracks fixed, 3x fewer steps" `Quick test_adaptive_rc;
          Alcotest.test_case "RLC ladder, 3x fewer steps" `Quick test_adaptive_rlc_ladder;
          Alcotest.test_case "breakpoints hit exactly" `Quick test_adaptive_breakpoints_exact;
          Alcotest.test_case "underdamped RLC tracked" `Quick test_adaptive_rlc_rings;
          Alcotest.test_case "obs counters reconcile" `Quick test_adaptive_obs_reconcile;
          Alcotest.test_case "nonlinear Newton path" `Quick test_adaptive_nonlinear;
          Alcotest.test_case "parameter validation" `Quick test_adaptive_rejects_bad_params;
          Alcotest.test_case "Newton divergence is typed" `Quick test_newton_diverged_typed;
        ] );
      ( "compiled",
        [
          Alcotest.test_case "RC bit-identity (trap/BE x fixed/adaptive)" `Quick
            test_compiled_rc;
          Alcotest.test_case "RLC bit-identity (trap/BE x fixed/adaptive)" `Quick
            test_compiled_rlc;
          Alcotest.test_case "coupled bit-identity (trap/BE x fixed/adaptive)" `Quick
            test_compiled_coupled;
          Alcotest.test_case "nonlinear bit-identity (trap/BE x fixed/adaptive)" `Quick
            test_compiled_nonlinear;
          Alcotest.test_case "restamp after run reuses the handle" `Quick
            test_compiled_restamp;
          Alcotest.test_case "handle cache keys on structure" `Quick
            test_compiled_cache_keying;
          Alcotest.test_case "clear_cache drops every domain's handles" `Quick
            test_compiled_cache_clear_all_domains;
          Alcotest.test_case "candidate sweep reruns without refactoring" `Quick
            test_compiled_candidate_sweep;
        ] );
      ( "until",
        [
          Alcotest.test_case "linear step allocates O(1) words" `Quick
            test_linear_step_allocation;
          Alcotest.test_case "peak-watched step allocates O(1) words" `Quick
            test_peak_step_allocation;
          Alcotest.test_case "Newton step allocates O(1) words" `Quick
            test_newton_step_allocation;
          q prop_until_linear;
          q prop_until_testbench;
        ] );
      ( "lanes",
        [
          q prop_lanes;
          Alcotest.test_case "a handle in two lanes" `Quick test_lanes_reject_shared_handle;
          q prop_newton_lanes;
          Alcotest.test_case "repeated lead-in" `Quick test_repeated_lead_in;
          q prop_zero_dc;
        ] );
      ( "until_peak",
        [
          Alcotest.test_case "random linear circuits keep their maximum" `Quick test_until_peak;
          Alcotest.test_case "each precondition keeps the full window" `Quick
            test_until_peak_preconditions;
        ] );
      ( "netlist",
        [
          Alcotest.test_case "floating node" `Quick test_floating_node_rejected;
          Alcotest.test_case "double force" `Quick test_double_force_rejected;
          Alcotest.test_case "invalid values" `Quick test_invalid_element_values;
          Alcotest.test_case "engine stats/options" `Quick test_engine_stats_and_options;
          Alcotest.test_case "nonlinear newton counts" `Quick test_nonlinear_newton_counts;
          Alcotest.test_case "pp summary" `Quick test_pp_summary;
          Alcotest.test_case "node names" `Quick test_node_names;
        ] );
    ]
