module Table = Rlc_liberty.Table
module Line = Rlc_tline.Line
module Pade = Rlc_moments.Pade
module Moments = Rlc_moments.Moments
module Pwl = Rlc_waveform.Pwl
module Waveform = Rlc_waveform.Waveform
module Measure = Rlc_waveform.Measure
module Obs = Rlc_obs.Obs

type iteration = { value : float; ramp : float; iterations : int; converged : bool }

type plateau_mode = Stretch_tr2 | Flat_step

type rc_tail = { t_switch : float; v_switch : float; tau : float }

type shape =
  | One_ramp of { ceff : iteration; tail : rc_tail option }
  | Two_ramp of {
      ceff1 : iteration;
      ceff2 : iteration;
      tr2_new : float;
      plateau : float;
      plateau_mode : plateau_mode;
    }

type t = {
  shape : shape;
  f : float;
  rs : float;
  z0 : float;
  tf : float;
  pade : Pade.t;
  screen : Screen.verdict;
  delay_50 : float;
  vdd : float;
  pwl : Pwl.t;
}

type mode = Auto | Force_two_ramp | Force_one_ramp

(* One Ceff fixed point: c = compute (table_ramp_time c), solved on the
   bracket (0, Ctot].  [obs] observes the solve as a ["ceff.solve"] span
   (stage/iterations/converged args), a ["ceff.iterations_run"] counter,
   convergence counters, and — when enabled — the normalized iterate
   trajectory as a ["ceff.trajectory_f"] histogram.  The solver call is
   bit-identical when [obs] is disabled: the trajectory hook is only
   installed on an enabled sink, and it never perturbs solver state. *)
let iterate ?(obs = Obs.null) ?(stage = "ceff") ~cell ~edge ~input_slew ~pade ~compute () =
  let ctot = Pade.total_cap pade in
  let tr_of c = Table.ramp_time cell ~edge ~slew:input_slew ~cap:c in
  let fp c = compute (tr_of c) in
  let t0 = Obs.start obs in
  let r =
    if Obs.enabled obs then
      Rlc_num.Rootfind.fixed_point_bracketed fp
        ~on_iter:(fun c -> Obs.observe obs "ceff.trajectory_f" (c /. ctot))
        ~lo:(1e-4 *. ctot) ~hi:ctot ~init:ctot ~rel_tol:1e-6 ~max_iter:120
    else
      Rlc_num.Rootfind.fixed_point_bracketed fp ~lo:(1e-4 *. ctot) ~hi:ctot ~init:ctot
        ~rel_tol:1e-6 ~max_iter:120
  in
  if Obs.enabled obs then begin
    Obs.finish obs
      ~args:
        [
          ("stage", stage);
          ("iterations", string_of_int r.Rlc_num.Rootfind.iterations);
          ("converged", string_of_bool r.Rlc_num.Rootfind.converged);
        ]
      "ceff.solve" t0;
    Obs.add obs "ceff.iterations_run" r.Rlc_num.Rootfind.iterations;
    Obs.incr obs (if r.Rlc_num.Rootfind.converged then "ceff.converged" else "ceff.unconverged")
  end;
  { value = r.Rlc_num.Rootfind.value; ramp = tr_of r.value; iterations = r.iterations;
    converged = r.converged }

let single_ceff ?obs ?stage ~cell ~edge ~input_slew ~pade ~f () =
  iterate ?obs ?stage ~cell ~edge ~input_slew ~pade
    ~compute:(fun tr -> Ceff.first_ramp pade ~f ~tr)
    ()

(* Offset from waveform start to the 50% crossing of a two-ramp shape
   (with an optional flat step of [hold] seconds after the breakpoint). *)
let offset_to_half ~f ~tr1 ~tr2 ~hold =
  if f >= 0.5 then 0.5 *. tr1 else (f *. tr1) +. hold +. ((0.5 -. f) *. tr2)

(* Gate-resistor tail (reference [11]): tangency point of the table ramp
   with an exponential of time constant tau = Rs * Ctot.  Only meaningful
   when the tangency lies above the 50% anchor. *)
let tail_of ~vdd ~tr ~rs ~ctot =
  let tau = rs *. ctot in
  let slope = vdd /. tr in
  let v_switch = vdd -. (slope *. tau) in
  if v_switch > 0.5 *. vdd && tau > 0. then
    Some { t_switch = v_switch /. slope; v_switch; tau }
  else None

let tail_pwl ~t0 ~vdd ~tail =
  let base = [ (t0, 0.); (t0 +. tail.t_switch, tail.v_switch) ] in
  let knots = [ 0.5; 1.0; 1.5; 2.0; 3.0; 4.5; 6.5 ] in
  let exp_pts =
    List.map
      (fun k ->
        ( t0 +. tail.t_switch +. (k *. tail.tau),
          vdd -. ((vdd -. tail.v_switch) *. Float.exp (-.k)) ))
      knots
  in
  let final = (t0 +. tail.t_switch +. (9. *. tail.tau), vdd) in
  Pwl.of_points (base @ exp_pts @ [ final ])

let model_pade ?(obs = Obs.null) ?(mode = Auto) ?(plateau = Stretch_tr2) ?(rc_tail = false)
    ~cell ~edge ~input_slew ~pade ~line ~cl () =
  if input_slew <= 0. then invalid_arg "Driver_model.model: input_slew must be positive";
  if cl < 0. then invalid_arg "Driver_model.model: cl must be non-negative";
  let vdd = cell.Table.vdd in
  let ctot = Pade.total_cap pade in
  let rs = Table.fitted_rs cell ~edge ~slew:input_slew ~cap:ctot in
  let z0 = Line.z0 line and tf = Line.time_of_flight line in
  (* Eq. 1; the clamp only guards pathological near-zero fitted Rs. *)
  let f = Float.min 0.98 (z0 /. (z0 +. rs)) in
  let ceff1 = single_ceff ~obs ~stage:"ceff1" ~cell ~edge ~input_slew ~pade ~f () in
  let screen = Screen.evaluate ~line ~cl ~rs ~tr1:ceff1.ramp in
  let use_two_ramp =
    match mode with
    | Auto -> screen.Screen.significant
    | Force_two_ramp -> true
    | Force_one_ramp -> false
  in
  if use_two_ramp then begin
    let ceff2 =
      iterate ~obs ~stage:"ceff2" ~cell ~edge ~input_slew ~pade
        ~compute:(fun tr -> Ceff.second_ramp pade ~f ~tr1:ceff1.ramp ~tr2:tr)
        ()
    in
    let plateau_time = Float.max 0. ((2. *. tf) -. ceff1.ramp) in
    let delay_50 = Table.delay cell ~edge ~slew:input_slew ~cap:ceff1.value in
    let tr1 = ceff1.ramp in
    let tr2_new, hold =
      match plateau with
      | Stretch_tr2 ->
          (* Eq. 8: no charge transfer during the plateau; shift where the
             second ramp completes. *)
          (ceff2.ramp +. (plateau_time /. (1. -. f)), 0.)
      | Flat_step -> (ceff2.ramp, plateau_time)
    in
    let t0 = delay_50 -. offset_to_half ~f ~tr1 ~tr2:tr2_new ~hold in
    let pwl =
      if hold > 1e-15 then
        Pwl.of_points
          [
            (t0, 0.);
            (t0 +. (f *. tr1), f *. vdd);
            (t0 +. (f *. tr1) +. hold, f *. vdd);
            (t0 +. (f *. tr1) +. hold +. ((1. -. f) *. tr2_new), vdd);
          ]
      else Pwl.two_ramp ~t0 ~vdd ~f ~tr1 ~tr2:tr2_new
    in
    {
      shape = Two_ramp { ceff1; ceff2; tr2_new; plateau = plateau_time; plateau_mode = plateau };
      f;
      rs;
      z0;
      tf;
      pade;
      screen;
      delay_50;
      vdd;
      pwl;
    }
  end
  else begin
    (* RC-like: one effective capacitance equating charge over the whole
       transition (f = 1). *)
    let ceff = single_ceff ~obs ~stage:"ceff_f1" ~cell ~edge ~input_slew ~pade ~f:1.0 () in
    let delay_50 = Table.delay cell ~edge ~slew:input_slew ~cap:ceff.value in
    let t0 = delay_50 -. (0.5 *. ceff.ramp) in
    let tail = if rc_tail then tail_of ~vdd ~tr:ceff.ramp ~rs ~ctot else None in
    let pwl =
      match tail with
      | Some tail -> tail_pwl ~t0 ~vdd ~tail
      | None -> Pwl.ramp ~t0 ~v0:0. ~v1:vdd ~transition:ceff.ramp
    in
    { shape = One_ramp { ceff; tail }; f = 1.0; rs; z0; tf; pade; screen; delay_50; vdd; pwl }
  end

let model ?obs ?mode ?plateau ?rc_tail ~cell ~edge ~input_slew ~line ~cl () =
  let pade = Pade.fit (Moments.of_line ~order:5 line ~cl) in
  model_pade ?obs ?mode ?plateau ?rc_tail ~cell ~edge ~input_slew ~pade ~line ~cl ()

let total_iterations t =
  match t.shape with
  | One_ramp { ceff; _ } -> ceff.iterations
  | Two_ramp { ceff1; ceff2; _ } -> ceff1.iterations + ceff2.iterations

let single_ceff_variant t ~cell ~edge ~input_slew ~f =
  single_ceff ~cell ~edge ~input_slew ~pade:t.pade ~f ()

let transition_end t = Pwl.end_time t.pwl

let output_waveform ?(n = 512) ?t_end t =
  let t_end =
    match t_end with
    | Some te -> te
    | None -> transition_end t +. (0.2 *. (transition_end t -. fst (List.hd (Pwl.points t.pwl))))
  in
  Pwl.to_waveform ~n ~t_end t.pwl

let model_delay t = t.delay_50

let model_slew_10_90 t =
  let w = output_waveform ~n:1024 t in
  match Measure.slew_10_90 w ~vdd:t.vdd ~edge:Measure.Rising with
  | Some s -> s
  | None -> invalid_arg "Driver_model.model_slew_10_90: waveform incomplete"

let pp fmt t =
  let ps x = Rlc_num.Units.in_ps x and ff x = Rlc_num.Units.in_ff x in
  match t.shape with
  | One_ramp { ceff; tail } ->
      Format.fprintf fmt
        "one-ramp<Ceff=%.1f fF, Tr=%.1f ps, delay=%.1f ps, Rs=%.1f Ohm, Z0=%.1f Ohm%s>"
        (ff ceff.value) (ps ceff.ramp) (ps t.delay_50) t.rs t.z0
        (match tail with
        | Some tl -> Printf.sprintf ", rc-tail tau=%.1f ps" (ps tl.tau)
        | None -> "")
  | Two_ramp { ceff1; ceff2; tr2_new; plateau; _ } ->
      Format.fprintf fmt
        "two-ramp<f=%.2f, Ceff1=%.1f fF (Tr1=%.1f ps), Ceff2=%.1f fF (Tr2=%.1f ps, \
         Tr2'=%.1f ps), plateau=%.1f ps, delay=%.1f ps, Rs=%.1f Ohm, Z0=%.1f Ohm>"
        t.f (ff ceff1.value) (ps ceff1.ramp) (ff ceff2.value) (ps ceff2.ramp) (ps tr2_new)
        (ps plateau) (ps t.delay_50) t.rs t.z0
