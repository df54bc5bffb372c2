(* Tests for sampled waveforms, PWL sources and measurement conventions. *)
open Rlc_waveform
open Rlc_num

let check_float ?(eps = 1e-9) msg expected actual =
  Alcotest.(check (float eps)) msg expected actual

let vdd = 1.8

(* ------------------------------------------------------------ Waveform *)

let linear_rise ~t0 ~tr =
  Waveform.of_fun ~t0:0. ~t1:(t0 +. (2. *. tr)) ~n:501 (fun t ->
      if t < t0 then 0. else if t > t0 +. tr then vdd else vdd *. (t -. t0) /. tr)

let test_create_validation () =
  Alcotest.(check bool) "length mismatch" true
    (match Waveform.create ~ts:[| 0.; 1. |] ~vs:[| 0. |] with
    | _ -> false
    | exception Invalid_argument _ -> true);
  Alcotest.(check bool) "decreasing times" true
    (match Waveform.create ~ts:[| 1.; 0. |] ~vs:[| 0.; 0. |] with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_value_at () =
  let w = Waveform.create ~ts:[| 0.; 1.; 2. |] ~vs:[| 0.; 2.; 0. |] in
  check_float "interp" 1. (Waveform.value_at w 0.5);
  check_float "clamp low" 0. (Waveform.value_at w (-1.));
  check_float "clamp high" 0. (Waveform.value_at w 3.);
  check_float "peak" 2. (Waveform.v_max w);
  check_float "min" 0. (Waveform.v_min w)

let test_crossings () =
  let w = Waveform.create ~ts:[| 0.; 1.; 2.; 3. |] ~vs:[| 0.; 2.; 0.; 2. |] in
  (match Waveform.crossings w ~level:1. ~direction:Waveform.Rising with
  | [ a; b ] ->
      check_float "first rising" 0.5 a;
      check_float "second rising" 2.5 b
  | l -> Alcotest.fail (Printf.sprintf "expected 2 rising crossings, got %d" (List.length l)));
  (match Waveform.crossings w ~level:1. ~direction:Waveform.Falling with
  | [ a ] -> check_float "falling" 1.5 a
  | l -> Alcotest.fail (Printf.sprintf "expected 1 falling crossing, got %d" (List.length l)))

let test_clip_and_resample () =
  let w = Waveform.of_fun ~t0:0. ~t1:10. ~n:101 (fun t -> t) in
  let c = Waveform.clip w ~t_lo:2.5 ~t_hi:7.5 in
  check_float "clip start" 2.5 (Waveform.t_start c);
  check_float "clip end" 7.5 (Waveform.t_end c);
  check_float "clip boundary value" 2.5 (Waveform.value_at c 2.5);
  let r = Waveform.resample w ~n:11 in
  Alcotest.(check int) "resample count" 11 (Waveform.length r);
  check_float "resample value" 5. (Waveform.value_at r 5.)

let test_overshoot_monotone () =
  let w = Waveform.create ~ts:[| 0.; 1.; 2. |] ~vs:[| 0.; 2.2; 1.8 |] in
  check_float "overshoot" 0.4 (Waveform.overshoot w ~final:1.8);
  Alcotest.(check bool) "not monotone" false (Waveform.is_monotone_rising w);
  let m = Waveform.create ~ts:[| 0.; 1.; 2. |] ~vs:[| 0.; 1.; 1.8 |] in
  Alcotest.(check bool) "monotone" true (Waveform.is_monotone_rising m)

let test_charge_integral () =
  let w = Waveform.create ~ts:[| 0.; 2. |] ~vs:[| 0.; 4. |] in
  check_float "triangle" 4. (Waveform.charge_integral w)

let test_diff_metrics () =
  let a = Waveform.of_fun ~t0:0. ~t1:1. ~n:101 (fun t -> t) in
  let b = Waveform.of_fun ~t0:0. ~t1:1. ~n:101 (fun t -> t +. 0.1) in
  check_float ~eps:1e-12 "constant offset rms" 0.1 (Waveform.rms_diff a b ~t0:0. ~t1:1.);
  check_float ~eps:1e-12 "constant offset max" 0.1 (Waveform.max_diff a b ~t0:0. ~t1:1.);
  check_float ~eps:1e-12 "self diff" 0. (Waveform.rms_diff a a ~t0:0. ~t1:1.);
  Alcotest.(check bool) "empty window rejected" true
    (match Waveform.rms_diff a b ~t0:1. ~t1:0. with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* ----------------------------------------------------------------- Pwl *)

let test_pwl_eval () =
  let p = Pwl.of_points [ (0., 0.); (1., 1.8); (3., 1.8) ] in
  check_float "before" 0. (Pwl.eval p (-1.));
  check_float "mid ramp" 0.9 (Pwl.eval p 0.5);
  check_float "hold" 1.8 (Pwl.eval p 2.);
  check_float "after" 1.8 (Pwl.eval p 10.)

let test_pwl_ramp () =
  let p = Pwl.ramp ~t0:1e-12 ~v0:0. ~v1:vdd ~transition:100e-12 in
  check_float "start" 0. (Pwl.eval p 1e-12);
  check_float "end" vdd (Pwl.eval p 101e-12);
  check_float ~eps:1e-6 "mid" (vdd /. 2.) (Pwl.eval p 51e-12)

let test_two_ramp_geometry () =
  let f = 0.6 and tr1 = 40e-12 and tr2 = 200e-12 in
  let p = Pwl.two_ramp ~t0:0. ~vdd ~f ~tr1 ~tr2 in
  (* Breakpoint: at t = f*tr1 voltage is f*vdd. *)
  check_float ~eps:1e-6 "breakpoint voltage" (f *. vdd) (Pwl.eval p (f *. tr1));
  (* Completion: at t = f*tr1 + (1-f)*tr2 voltage is vdd. *)
  check_float ~eps:1e-6 "final" vdd (Pwl.eval p ((f *. tr1) +. ((1. -. f) *. tr2)));
  (* Slopes: vdd/tr1 then vdd/tr2. *)
  let slope1 = (Pwl.eval p 10e-12 -. Pwl.eval p 0.) /. 10e-12 in
  check_float ~eps:1e3 "slope 1" (vdd /. tr1) slope1;
  let t_mid = (f *. tr1) +. 50e-12 in
  let slope2 = (Pwl.eval p (t_mid +. 10e-12) -. Pwl.eval p t_mid) /. 10e-12 in
  check_float ~eps:1e3 "slope 2" (vdd /. tr2) slope2

let test_two_ramp_degenerate () =
  let p = Pwl.two_ramp ~t0:0. ~vdd ~f:1. ~tr1:50e-12 ~tr2:1. in
  check_float "single ramp end" vdd (Pwl.eval p 50e-12);
  Alcotest.(check bool) "f out of range rejected" true
    (match Pwl.two_ramp ~t0:0. ~vdd ~f:1.5 ~tr1:1e-12 ~tr2:1e-12 with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_pwl_falling () =
  let p = Pwl.falling ~vdd (Pwl.ramp ~t0:0. ~v0:0. ~v1:vdd ~transition:10e-12) in
  check_float "starts at vdd" vdd (Pwl.eval p (-1e-12));
  check_float "ends at 0" 0. (Pwl.eval p 20e-12)

let test_pwl_to_waveform_preserves_breakpoints () =
  let p = Pwl.two_ramp ~t0:0. ~vdd ~f:0.5 ~tr1:10e-12 ~tr2:100e-12 in
  let w = Pwl.to_waveform ~n:16 ~t_end:100e-12 p in
  (* The kink at t = 5 ps must be sampled exactly. *)
  check_float ~eps:1e-9 "kink value" (0.5 *. vdd) (Waveform.value_at w 5e-12)

(* ------------------------------------------------------------- Measure *)

let test_t_frac_rising () =
  let w = linear_rise ~t0:10e-12 ~tr:100e-12 in
  let t50 = Measure.t_frac_exn w ~vdd ~edge:Measure.Rising ~frac:0.5 in
  check_float ~eps:1e-13 "t50" 60e-12 t50

let test_slew_10_90 () =
  let w = linear_rise ~t0:0. ~tr:100e-12 in
  match Measure.slew_10_90 w ~vdd ~edge:Measure.Rising with
  | Some s -> check_float ~eps:1e-13 "slew" 80e-12 s
  | None -> Alcotest.fail "no slew"

let test_falling_measurements () =
  let w =
    Waveform.of_fun ~t0:0. ~t1:200e-12 ~n:400 (fun t ->
        if t < 50e-12 then vdd
        else if t > 150e-12 then 0.
        else vdd *. (1. -. ((t -. 50e-12) /. 100e-12)))
  in
  let t50 = Measure.t_frac_exn w ~vdd ~edge:Measure.Falling ~frac:0.5 in
  check_float ~eps:1e-12 "falling t50" 100e-12 t50;
  (match Measure.slew_20_80 w ~vdd ~edge:Measure.Falling with
  | Some s -> check_float ~eps:1e-12 "falling 20-80" 60e-12 s
  | None -> Alcotest.fail "no falling slew")

let test_delay_50 () =
  let input = linear_rise ~t0:0. ~tr:100e-12 in
  let output = linear_rise ~t0:40e-12 ~tr:100e-12 in
  match
    Measure.delay_50 ~input ~output ~vdd ~input_edge:Measure.Rising ~output_edge:Measure.Rising
  with
  | Some d -> check_float ~eps:1e-13 "stage delay" 40e-12 d
  | None -> Alcotest.fail "no delay"

let test_full_swing_extrapolation () =
  check_float "20-80 extrapolation" 100. (Measure.full_swing_of_slew ~lo:0.2 ~hi:0.8 60.)

let test_errors () =
  check_float "pct error" 10. (Measure.pct_error ~actual:100. ~model:110.);
  check_float ~eps:1e-2 "negative error" (-50.4) (Measure.pct_error ~actual:124.1 ~model:61.5504)

let prop_two_ramp_monotone =
  QCheck.Test.make ~name:"two-ramp waveforms are monotone rising" ~count:300
    QCheck.(triple (float_range 0.05 1.) (float_range 1e-12 1e-9) (float_range 1e-12 1e-9))
    (fun (f, tr1, tr2) ->
      let p = Pwl.two_ramp ~t0:0. ~vdd ~f ~tr1 ~tr2 in
      let w = Pwl.to_waveform ~n:200 p in
      Waveform.is_monotone_rising ~tol:1e-12 w
      && Float.abs (Waveform.v_final w -. vdd) < 1e-9)

let prop_measured_slew_of_ideal_ramp =
  QCheck.Test.make ~name:"10-90 slew of an ideal ramp is 0.8 of full swing" ~count:200
    QCheck.(float_range 10e-12 500e-12)
    (fun tr ->
      let p = Pwl.ramp ~t0:0. ~v0:0. ~v1:vdd ~transition:tr in
      let w = Pwl.to_waveform ~n:400 ~t_end:(1.2 *. tr) p in
      match Measure.slew_10_90 w ~vdd ~edge:Measure.Rising with
      | Some s -> Float.abs (s -. (0.8 *. tr)) < 1e-3 *. tr
      | None -> false)

(* The axis [Pwl.to_waveform] built before it merged: uniform grid and
   breakpoints up to the end in one array, sorted, repeats dropped. *)
let sorted_axis ~n ?t_end p =
  let pts = Array.of_list (Pwl.points p) in
  let t0 = fst pts.(0) and last = fst pts.(Array.length pts - 1) in
  let t1 = match t_end with Some te -> Float.max te last | None -> last in
  let t1 = if t1 > t0 then t1 else t0 +. 1e-15 in
  let span = t1 -. t0 and nf = float_of_int (n - 1) in
  let grid = List.init n (fun i -> t0 +. (span *. float_of_int i /. nf)) in
  let bps = List.filter (fun x -> x <= t1) (Array.to_list (Array.map fst pts)) in
  let all = Array.of_list (grid @ bps) in
  Array.sort Float.compare all;
  let kept = ref [] in
  Array.iter (fun x -> match !kept with y :: _ when y = x -> () | _ -> kept := x :: !kept) all;
  Array.of_list (List.rev !kept)

type axis_case = {
  pts : (float * float) list;
  shift : float;
  falling : bool;
  end_at : [ `Before | `At | `Past ];
  n : int;
}

let arb_axis_case =
  let open QCheck.Gen in
  let gen =
    let* n_pts = int_range 1 12 in
    let* t0 = float_range (-50e-12) 200e-12 in
    let* gaps =
      list_repeat (n_pts - 1) (oneof [ float_range 1e-15 150e-12; float_range 1e-15 1e-13 ])
    in
    let* vs = list_repeat n_pts (float_range 0. vdd) in
    let times = List.rev (List.fold_left (fun acc g -> (List.hd acc +. g) :: acc) [ t0 ] gaps) in
    let* shift = oneof [ return 0.; float_range (-100e-12) 100e-12 ] in
    let* falling = bool in
    let* end_at = oneofl [ `Before; `At; `Past ] in
    let* n = oneof [ int_range 2 40; oneofl [ 256; 512; 1024 ] ] in
    return { pts = List.combine times vs; shift; falling; end_at; n }
  in
  QCheck.make gen ~print:(fun u ->
      Printf.sprintf "[%s] shift %g%s end %s n %d"
        (String.concat "; " (List.map (fun (t, v) -> Printf.sprintf "%h:%g" t v) u.pts))
        u.shift
        (if u.falling then " falling" else "")
        (match u.end_at with `Before -> "before" | `At -> "at" | `Past -> "past")
        u.n)

(* Random PWLs of 1 to 12 points -- shifted, mirrored, some segments far
   shorter than the grid spacing, with [t_end] before, at and past the last
   breakpoint: the merged axis equals the sort-based axis, and the samples
   [Pwl.to_waveform] computes by walking the segments equal [Pwl.eval] on
   it, bit for bit. *)
let prop_to_waveform_axis =
  QCheck.Test.make ~name:"to_waveform axis = sorted union of grid and breakpoints" ~count:500
    arb_axis_case (fun u ->
      let p = Pwl.shift_time u.shift (Pwl.of_points u.pts) in
      let p = if u.falling then Pwl.falling ~vdd p else p in
      let t_end =
        let first = fst (List.hd (Pwl.points p)) and last = Pwl.end_time p in
        match u.end_at with
        | `Before -> first +. (0.5 *. (last -. first))
        | `At -> last
        | `Past -> last +. 80e-12
      in
      let w = Pwl.to_waveform ~n:u.n ~t_end p in
      let axis = sorted_axis ~n:u.n ~t_end p in
      let bits a = Array.map Int64.bits_of_float a in
      bits (Waveform.times w) = bits axis
      && bits (Waveform.values w) = bits (Array.map (Pwl.eval p) axis))

let () =
  let q = QCheck_alcotest.to_alcotest in
  ignore (Units.ps 1.);
  Alcotest.run "rlc_waveform"
    [
      ( "waveform",
        [
          Alcotest.test_case "validation" `Quick test_create_validation;
          Alcotest.test_case "value_at" `Quick test_value_at;
          Alcotest.test_case "crossings" `Quick test_crossings;
          Alcotest.test_case "clip/resample" `Quick test_clip_and_resample;
          Alcotest.test_case "overshoot" `Quick test_overshoot_monotone;
          Alcotest.test_case "charge integral" `Quick test_charge_integral;
          Alcotest.test_case "diff metrics" `Quick test_diff_metrics;
        ] );
      ( "pwl",
        [
          Alcotest.test_case "eval" `Quick test_pwl_eval;
          Alcotest.test_case "ramp" `Quick test_pwl_ramp;
          Alcotest.test_case "two-ramp geometry" `Quick test_two_ramp_geometry;
          Alcotest.test_case "degenerate/two-ramp" `Quick test_two_ramp_degenerate;
          Alcotest.test_case "falling mirror" `Quick test_pwl_falling;
          Alcotest.test_case "breakpoints preserved" `Quick test_pwl_to_waveform_preserves_breakpoints;
          q prop_two_ramp_monotone;
          q prop_to_waveform_axis;
        ] );
      ( "measure",
        [
          Alcotest.test_case "t_frac rising" `Quick test_t_frac_rising;
          Alcotest.test_case "slew 10-90" `Quick test_slew_10_90;
          Alcotest.test_case "falling edge" `Quick test_falling_measurements;
          Alcotest.test_case "delay 50" `Quick test_delay_50;
          Alcotest.test_case "full swing extrapolation" `Quick test_full_swing_extrapolation;
          Alcotest.test_case "error conventions" `Quick test_errors;
          q prop_measured_slew_of_ideal_ramp;
        ] );
    ]
