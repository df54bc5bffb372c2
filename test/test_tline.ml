(* Transmission-line layer tests: line constants, exact ABCD series,
   lattice-diagram oracle, and the crucial cross-check that the lumped
   ladder + transient engine reproduce ideal transmission-line behaviour. *)
open Rlc_tline
open Rlc_num
open Rlc_waveform
open Rlc_circuit

let check_float ?(eps = 1e-9) msg expected actual =
  Alcotest.(check (float eps)) msg expected actual

(* The paper's Figure 1 line: 5 mm x 1.6 um. *)
let line5 = Line.of_totals ~r:72.44 ~l:5.14e-9 ~c:1.10e-12 ~length:5e-3

(* ---------------------------------------------------------------- Line *)

let test_line_basics () =
  check_float ~eps:0.1 "Z0" 68.36 (Line.z0 line5);
  check_float ~eps:0.2e-12 "tf" 75.2e-12 (Line.time_of_flight line5);
  check_float ~eps:1e-12 "total R" 72.44 (Line.total_r line5);
  check_float ~eps:1e-20 "total C" 1.10e-12 (Line.total_c line5);
  Alcotest.(check bool) "underdamped global wire" true (Line.damping_ratio line5 < 1.);
  Alcotest.(check bool) "attenuation in (0,1)" true
    (Line.attenuation line5 > 0. && Line.attenuation line5 < 1.)

let test_line_validation () =
  Alcotest.(check bool) "negative R rejected" true
    (match Line.create ~r_per_m:(-1.) ~l_per_m:1e-6 ~c_per_m:1e-10 ~length:1e-3 with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_scale_length () =
  let half = Line.scale_length line5 2.5e-3 in
  check_float ~eps:1e-9 "half R" (72.44 /. 2.) (Line.total_r half);
  check_float ~eps:1e-9 "Z0 unchanged" (Line.z0 line5) (Line.z0 half)

(* ---------------------------------------------------------------- ABCD *)

let test_moments_m0_m1 () =
  let cl = 20e-15 in
  let m = Abcd.input_admittance_moments line5 ~cl ~order:5 in
  check_float ~eps:1e-18 "m0 = 0" 0. m.(0);
  check_float ~eps:1e-18 "m1 = Ctot + CL" (1.10e-12 +. cl) m.(1);
  Alcotest.(check bool) "m2 < 0 (resistive shielding)" true (m.(2) < 0.);
  (* m2 for a distributed RC line with load: -(R C^2 / 3 + R C CL + R CL^2).
     Inductance does not enter m2. *)
  let r = 72.44 and c = 1.10e-12 in
  let m2_expected = -.((r *. c *. c /. 3.) +. (r *. c *. cl) +. (r *. cl *. cl)) in
  check_float ~eps:(1e-3 *. Float.abs m2_expected) "m2 closed form" m2_expected m.(2)

let test_moments_match_exact_admittance () =
  (* The truncated series must agree with the exact complex admittance at a
     frequency well below the line resonance. *)
  let cl = 10e-15 in
  let m = Abcd.input_admittance_moments line5 ~cl ~order:5 in
  let f = 2e8 (* 200 MHz *) in
  let s = Cx.make 0. (2. *. Float.pi *. f) in
  let series =
    let open Cx in
    let acc = ref zero and p = ref one in
    for k = 0 to 5 do
      acc := !acc +: scale m.(k) !p;
      p := !p *: s
    done;
    !acc
  in
  let exact = Abcd.input_admittance line5 ~cl s in
  let err = Cx.norm Cx.(series -: exact) /. Cx.norm exact in
  Alcotest.(check bool) (Printf.sprintf "series error %.2e" err) true (err < 1e-4)

let test_transfer_dc () =
  let t0 = Abcd.transfer line5 ~cl:10e-15 (Cx.make 1e3 0.) in
  Alcotest.(check bool) "transfer ~1 at low frequency" true (Float.abs (t0.Cx.re -. 1.) < 1e-3)

let test_admittance_low_freq_slope () =
  let cl = 0. in
  let w = 2. *. Float.pi *. 1e7 in
  let y = Abcd.input_admittance line5 ~cl (Cx.make 0. w) in
  check_float ~eps:(1e-3 *. w *. 1.1e-12) "Im Y ~ w C" (w *. 1.10e-12) y.Cx.im

(* ------------------------------------------------------------ Transfer *)

let test_transfer_h0 () =
  let h = Transfer.moments line5 ~cl:20e-15 ~order:3 in
  check_float ~eps:1e-12 "h0 = 1" 1. h.(0);
  Alcotest.(check bool) "h1 negative (causal delay)" true (h.(1) < 0.)

let test_elmore_closed_form () =
  (* Distributed uniform line + CL: Elmore far-end delay = R (C/2 + CL). *)
  let cl = 20e-15 in
  let r = Line.total_r line5 and c = Line.total_c line5 in
  check_float
    ~eps:(1e-9 *. r *. c)
    "Elmore closed form"
    (r *. ((c /. 2.) +. cl))
    (Transfer.elmore_delay line5 ~cl)

let test_delay_estimate_vs_simulation () =
  (* Ideal-ramp drive through the ladder: the two-moment estimate must land
     within ~20% of the simulated near-to-far 50% propagation. *)
  List.iter
    (fun (label, line) ->
      let cl = 20e-15 in
      let nl = Netlist.create () in
      let near = Netlist.node nl "near" in
      Netlist.force_voltage nl near (fun t ->
          if t <= 0. then 0. else Float.min 1. (t /. 100e-12));
      let far = ref Netlist.ground in
      Ladder.attach_load ~n_segments:100 line ~cl nl near far;
      let r = Engine.transient ~dt:0.5e-12 ~t_stop:2e-9 nl in
      let t50_near = 50e-12 in
      let t50_far =
        Option.get
          (Waveform.first_crossing (Engine.voltage r !far) ~level:0.5
             ~direction:Waveform.Rising)
      in
      let simulated = t50_far -. t50_near in
      let estimate = Transfer.delay_50_estimate line ~cl in
      Alcotest.(check bool)
        (Printf.sprintf "%s: estimate %.1f ps vs simulated %.1f ps" label
           (estimate /. 1e-12) (simulated /. 1e-12))
        true
        (Float.abs (estimate -. simulated) < 0.25 *. simulated))
    [
      ("inductive 5mm", line5);
      ("resistive", Line.of_totals ~r:400. ~l:2e-9 ~c:1.5e-12 ~length:5e-3);
    ]

let test_delay_estimate_bounded_by_tf () =
  (* On a lossless line the estimate must not undershoot the flight time. *)
  let line = Line.of_totals ~r:0.5 ~l:5e-9 ~c:1e-12 ~length:5e-3 in
  Alcotest.(check bool) "tf lower bound" true
    (Transfer.delay_50_estimate line ~cl:1e-15 >= Line.time_of_flight line -. 1e-15)

(* ------------------------------------------------------------- Lattice *)

let test_lattice_matched_source () =
  let z0 = Line.z0 line5 and tf = Line.time_of_flight line5 in
  let lat = Lattice.create ~vs:1.8 ~rs:z0 ~z0 ~tf in
  check_float ~eps:1e-9 "initial step is half swing" 0.9 (Lattice.initial_step lat);
  check_float ~eps:1e-9 "source reflection zero" 0. (Lattice.gamma_source lat);
  check_float ~eps:1e-9 "plateau before round trip" 0.9
    (Lattice.near_end_voltage lat (1.9 *. tf));
  check_float ~eps:1e-9 "full swing after round trip" 1.8
    (Lattice.near_end_voltage lat (2.1 *. tf));
  check_float ~eps:1e-9 "far end silent before tf" 0. (Lattice.far_end_voltage lat (0.9 *. tf));
  check_float ~eps:1e-9 "far end doubles at tf" 1.8 (Lattice.far_end_voltage lat (1.1 *. tf))

let test_lattice_weak_source () =
  (* Rs = 3 Z0: f = 0.25, multiple reflections needed. *)
  let lat = Lattice.create ~vs:1. ~rs:300. ~z0:100. ~tf:10e-12 in
  check_float ~eps:1e-9 "initial step f=0.25" 0.25 (Lattice.initial_step lat);
  let gs = Lattice.gamma_source lat in
  check_float ~eps:1e-9 "gamma_s = 0.5" 0.5 gs;
  (* Level after first reflection: v0 (1 + (1 + gs)) = 0.25 * 2.5. *)
  check_float ~eps:1e-9 "second level" 0.625 (Lattice.near_end_voltage lat 25e-12);
  (* Converges towards the supply. *)
  check_float ~eps:1e-3 "late time converges" 1. (Lattice.near_end_voltage lat 2e-9)

let test_lattice_steps_list () =
  let lat = Lattice.create ~vs:1. ~rs:100. ~z0:100. ~tf:5e-12 in
  match Lattice.near_end_steps lat ~n:2 with
  | [ (t0, v0); (t1, v1) ] ->
      check_float "t0" 0. t0;
      check_float "v0 matched" 0.5 v0;
      check_float ~eps:1e-13 "t1 round trip" 10e-12 t1;
      check_float "v1" 1. v1
  | _ -> Alcotest.fail "expected two steps"

(* -------------------------------------------------- ladder vs lattice *)

(* Drive a low-loss ladder through a source resistor with an ideal step and
   compare the near-end plateau levels with the bounce diagram. *)
let test_ladder_reproduces_reflections () =
  let line = Line.of_totals ~r:2. ~l:5e-9 ~c:1e-12 ~length:5e-3 in
  let z0 = Line.z0 line and tf = Line.time_of_flight line in
  let rs = 2. *. z0 in
  let nl = Netlist.create () in
  let src = Netlist.node nl "src" in
  Netlist.force_voltage nl src (fun t -> if t <= 0. then 0. else 1.);
  let drive = Netlist.node nl "drive" in
  Netlist.resistor nl src drive rs;
  let built = Ladder.build ~n_segments:120 nl line ~near:drive in
  Netlist.capacitor nl built.Ladder.far Netlist.ground 1e-15;
  let r = Engine.transient ~dt:0.2e-12 ~t_stop:(8. *. tf) nl in
  let near = Engine.voltage r drive in
  let lat = Lattice.create ~vs:1. ~rs ~z0 ~tf in
  (* Mid-plateau samples avoid the lumped ladder's finite edge rates. *)
  List.iter
    (fun k ->
      let t = ((2. *. float_of_int k) +. 1.2) *. tf in
      let ideal = Lattice.near_end_voltage lat t in
      let sim = Waveform.value_at near t in
      Alcotest.(check bool)
        (Printf.sprintf "plateau %d: sim %.3f vs ideal %.3f" k sim ideal)
        true
        (Float.abs (sim -. ideal) < 0.05))
    [ 0; 1; 2 ]

let test_ladder_node_ordering_is_banded () =
  (* The ladder allocates nodes in line order; transient on 400 unknowns
     must remain fast (sanity: it completes) and reach DC steady state. *)
  let line = Line.of_totals ~r:50. ~l:5e-9 ~c:1e-12 ~length:5e-3 in
  let nl = Netlist.create () in
  let src = Netlist.node nl "src" in
  Netlist.force_voltage nl src (fun t -> if t <= 0. then 0. else 1.);
  let drive = Netlist.node nl "drive" in
  Netlist.resistor nl src drive 50. ;
  let built = Ladder.build ~n_segments:200 nl line ~near:drive in
  let r = Engine.transient ~dt:0.5e-12 ~t_stop:2e-9 nl in
  check_float ~eps:0.02 "far end settles to source" 1.
    (Engine.voltage_at r built.Ladder.far 1.9e-9)

let test_default_segments () =
  Alcotest.(check int) "5 mm -> 100 segments" 100 (Ladder.default_segments line5);
  let short = Line.of_totals ~r:10. ~l:1e-9 ~c:0.2e-12 ~length:1e-3 in
  Alcotest.(check int) "short lines floor at 40" 40 (Ladder.default_segments short)

let prop_lattice_levels_bounded =
  (* Near-end levels never leave (0, 2 vs); when the source is weaker than
     the line (rs >= z0) there is no ringing, so levels additionally climb
     monotonically towards vs. *)
  QCheck.Test.make ~name:"near-end lattice levels respect physical bounds" ~count:200
    QCheck.(pair (float_range 1. 500.) (float_range 10. 200.))
    (fun (rs, z0) ->
      let lat = Lattice.create ~vs:1. ~rs ~z0 ~tf:10e-12 in
      let steps = Lattice.near_end_steps lat ~n:30 in
      let bounded = List.for_all (fun (_, v) -> v > 0. && v < 2.) steps in
      let monotone_if_weak =
        rs < z0
        || fst
             (List.fold_left
                (fun (ok, prev) (_, v) -> (ok && v >= prev -. 1e-9 && v <= 1. +. 1e-9, v))
                (true, 0.) steps)
      in
      bounded && monotone_if_weak)

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "rlc_tline"
    [
      ( "line",
        [
          Alcotest.test_case "paper line constants" `Quick test_line_basics;
          Alcotest.test_case "validation" `Quick test_line_validation;
          Alcotest.test_case "scale length" `Quick test_scale_length;
        ] );
      ( "abcd",
        [
          Alcotest.test_case "m0, m1, m2" `Quick test_moments_m0_m1;
          Alcotest.test_case "series vs exact" `Quick test_moments_match_exact_admittance;
          Alcotest.test_case "transfer at DC" `Quick test_transfer_dc;
          Alcotest.test_case "low-frequency slope" `Quick test_admittance_low_freq_slope;
        ] );
      ( "transfer",
        [
          Alcotest.test_case "h0/h1" `Quick test_transfer_h0;
          Alcotest.test_case "Elmore closed form" `Quick test_elmore_closed_form;
          Alcotest.test_case "estimate vs simulation" `Quick test_delay_estimate_vs_simulation;
          Alcotest.test_case "tf lower bound" `Quick test_delay_estimate_bounded_by_tf;
        ] );
      ( "lattice",
        [
          Alcotest.test_case "matched source" `Quick test_lattice_matched_source;
          Alcotest.test_case "weak source" `Quick test_lattice_weak_source;
          Alcotest.test_case "steps list" `Quick test_lattice_steps_list;
          q prop_lattice_levels_bounded;
        ] );
      ( "ladder",
        [
          Alcotest.test_case "reproduces reflections" `Quick test_ladder_reproduces_reflections;
          Alcotest.test_case "long ladder transient" `Quick test_ladder_node_ordering_is_banded;
          Alcotest.test_case "default segments" `Quick test_default_segments;
        ] );
    ]
