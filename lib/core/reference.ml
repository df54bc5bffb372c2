module Waveform = Rlc_waveform.Waveform
module Measure = Rlc_waveform.Measure
module Pwl = Rlc_waveform.Pwl
module Line = Rlc_tline.Line
module Ladder = Rlc_tline.Ladder
module Netlist = Rlc_circuit.Netlist
module Engine = Rlc_circuit.Engine
module Testbench = Rlc_devices.Testbench

type t = {
  input : Waveform.t;
  near : Waveform.t;
  far : Waveform.t;
  vdd : float;
  t_in50 : float;
}

let default_t_stop ~t0 ~input_slew ~line =
  t0 +. input_slew +. Float.max 2e-9 (20. *. Line.time_of_flight line)

(* The transistor-level bench behind [simulate].  [far_50] stops it once the
   input and the far end have both crossed 50 %, which is all [far_delay]
   reads. *)
let bench ?obs ?(dt = 0.25e-12) ?t_stop ?adaptive ?n_segments ~far_50 ~tech ~size ~input_slew
    ~line ~cl () =
  let t0 = 30e-12 in
  let t_stop =
    match t_stop with Some t -> t | None -> default_t_stop ~t0 ~input_slew ~line
  in
  let vdd = tech.Rlc_devices.Tech.vdd in
  let far_ref = ref Netlist.ground in
  let until ~input ~output:_ =
    let at node edge = (node, Measure.level_of_frac ~vdd ~edge ~frac:0.5, edge) in
    [ at input Measure.Falling; at !far_ref Measure.Rising ]
  in
  (* Only input/near/far are ever read back, so don't store the whole
     ladder's waveforms. *)
  let r =
    Testbench.drive ?obs ~dt ~t_stop ?adaptive ~t0 ~edge:Testbench.Rise
      ~record:(fun () -> [ !far_ref ])
      ?until:(if far_50 then Some until else None)
      ~tech ~size ~input_slew
      ~load:(fun nl node -> Ladder.attach_load ?n_segments line ~cl nl node far_ref)
      ()
  in
  let far = Engine.voltage r.Testbench.engine !far_ref in
  let t_in50 =
    Measure.t_frac_exn r.Testbench.input ~vdd ~edge:Measure.Falling ~frac:0.5
  in
  { input = r.Testbench.input; near = r.Testbench.output; far; vdd; t_in50 }

let simulate ?obs ?dt ?t_stop ?adaptive ?n_segments ~tech ~size ~input_slew ~line ~cl () =
  bench ?obs ?dt ?t_stop ?adaptive ?n_segments ~far_50:false ~tech ~size ~input_slew ~line ~cl ()

(* [replay_pwl]'s circuit; [far_until] lists (level, direction) crossings of
   the far node to stop at. *)
let replay ?obs ?(dt = 0.25e-12) ?t_stop ?adaptive ?n_segments ?(far_until = []) ~pwl ~line ~cl
    () =
  (* Shift so the source starts after t = 0 (the engine's DC point must see
     the quiescent low state). *)
  let start = fst (List.hd (Pwl.points pwl)) in
  let shift = 10e-12 -. start in
  let pwl = Pwl.shift_time shift pwl in
  let t_stop =
    match t_stop with
    | Some t -> t
    | None -> Pwl.end_time pwl +. Float.max 1e-9 (10. *. Line.time_of_flight line)
  in
  let nl = Netlist.create () in
  let near = Netlist.node nl "near" in
  (* force_pwl declares every PWL point as a breakpoint, so the two-ramp
     kink and plateau are landed on exactly under adaptive stepping. *)
  Netlist.force_pwl nl near pwl;
  let far_ref = ref Netlist.ground in
  Ladder.attach_load ?n_segments line ~cl nl near far_ref;
  let until = List.map (fun (level, dir) -> (!far_ref, level, dir)) far_until in
  (* Ceff-model replays sweep many π/ladder loads of identical shape; the
     structure-keyed handle cache makes each after the first a restamp
     (values in, no compile/alloc) with bit-identical results. *)
  let r =
    Engine.Compiled.run ?obs ~record_nodes:[ near; !far_ref ] ~until ?adaptive ~dt ~t_stop
      (Engine.Compiled.cached ?obs nl)
  in
  (* Undo the shift: return waveforms on the caller's PWL time axis. *)
  ( Waveform.shift_time (-.shift) (Engine.voltage r near),
    Waveform.shift_time (-.shift) (Engine.voltage r !far_ref) )

let replay_pwl ?obs ?dt ?t_stop ?adaptive ?n_segments ~pwl ~line ~cl () =
  replay ?obs ?dt ?t_stop ?adaptive ?n_segments ~pwl ~line ~cl ()

let far_timing ?obs ?dt ?adaptive ~vdd ~pwl ~line ~cl () =
  let rising frac = (Measure.level_of_frac ~vdd ~edge:Measure.Rising ~frac, Measure.Rising) in
  let _, far =
    replay ?obs ?dt ?adaptive ~far_until:(List.map rising [ 0.1; 0.5; 0.9 ]) ~pwl ~line ~cl ()
  in
  let t50 = Measure.t_frac_exn far ~vdd ~edge:Measure.Rising ~frac:0.5 in
  match Measure.slew_10_90 far ~vdd ~edge:Measure.Rising with
  | Some s -> (t50, s)
  | None -> invalid_arg "Reference.far_timing: far end never completed 10-90"

let near_delay t =
  match
    Measure.delay_50 ~input:t.input ~output:t.near ~vdd:t.vdd ~input_edge:Measure.Falling
      ~output_edge:Measure.Rising
  with
  | Some d -> d
  | None -> invalid_arg "Reference.near_delay: output never crossed 50%"

let near_slew t =
  match Measure.slew_10_90 t.near ~vdd:t.vdd ~edge:Measure.Rising with
  | Some s -> s
  | None -> invalid_arg "Reference.near_slew: output incomplete"

let far_delay t =
  match
    Measure.delay_50 ~input:t.input ~output:t.far ~vdd:t.vdd ~input_edge:Measure.Falling
      ~output_edge:Measure.Rising
  with
  | Some d -> d
  | None -> invalid_arg "Reference.far_delay: far end never crossed 50%"

let far_slew t =
  match Measure.slew_10_90 t.far ~vdd:t.vdd ~edge:Measure.Rising with
  | Some s -> s
  | None -> invalid_arg "Reference.far_slew: far end incomplete"

let simulated_far_delay ?obs ?dt ?adaptive ?n_segments ~tech ~size ~input_slew ~line ~cl () =
  far_delay
    (bench ?obs ?dt ?adaptive ?n_segments ~far_50:true ~tech ~size ~input_slew ~line ~cl ())
