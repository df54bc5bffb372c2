module Line = Rlc_tline.Line
module Measure = Rlc_waveform.Measure
module Driver_model = Rlc_ceff.Driver_model
module Reference = Rlc_ceff.Reference
module Characterize = Rlc_liberty.Characterize
module Inverter = Rlc_devices.Inverter
module Units = Rlc_num.Units

type stage = { size : float; line : Line.t }

type stage_result = {
  stage : stage;
  edge : Measure.edge;
  model : Driver_model.t;
  input_slew : float;
  stage_delay : float;
  near_delay : float;
  far_slew : float;
  arrival : float;
}

type path_result = { stages : stage_result list; total_delay : float }

let other_edge = function Measure.Rising -> Measure.Falling | Measure.Falling -> Measure.Rising

let clamp_slew s = Float.max (Units.ps 10.) (Float.min (Units.ps 400.) s)

(* Far-end waveforms carry no plateau (paper Section 3): the hand-off to the
   next cell arc is a single ramp, the measured 10-90 slew extrapolated to
   full swing and clamped into the characterized table range. *)
let handoff_slew ~far_slew = clamp_slew (far_slew /. 0.8)

let analyze ?(dt = 0.5e-12) ?(tech = Rlc_devices.Tech.c018) ?pool ~input_slew ~sink_cl stages =
  if stages = [] then invalid_arg "Sta.analyze: empty path";
  let vdd = tech.Rlc_devices.Tech.vdd in
  let rec go acc arrival slew edge = function
    | [] -> List.rev acc
    | stage :: rest ->
        let cl =
          match rest with
          | next :: _ -> Inverter.input_cap (Inverter.make tech ~size:next.size)
          | [] -> sink_cl
        in
        let cell =
          match Characterize.cell_res ?pool tech ~size:stage.size with
          | Ok c -> c
          | Error e -> failwith (Rlc_errors.Error.message e)
        in
        let model =
          Driver_model.model ~cell ~edge ~input_slew:slew ~line:stage.line ~cl ()
        in
        (* Model time axis: t = 0 at this stage's input 50 % crossing. *)
        let stage_delay, far_slew =
          Reference.far_timing ~dt ~vdd ~pwl:model.Driver_model.pwl ~line:stage.line ~cl ()
        in
        let result =
          {
            stage;
            edge;
            model;
            input_slew = slew;
            stage_delay;
            near_delay = model.Driver_model.delay_50;
            far_slew;
            arrival = arrival +. stage_delay;
          }
        in
        go (result :: acc) result.arrival (handoff_slew ~far_slew) (other_edge edge) rest
  in
  let stages = go [] 0. (clamp_slew input_slew) Measure.Rising stages in
  let total_delay = (List.nth stages (List.length stages - 1)).arrival in
  { stages; total_delay }

let analyze_res ?dt ?tech ?pool ~input_slew ~sink_cl stages =
  match analyze ?dt ?tech ?pool ~input_slew ~sink_cl stages with
  | r -> Ok r
  | exception Invalid_argument msg -> Error (Rlc_errors.Error.Bad_request msg)
  | exception Failure msg -> Error (Rlc_errors.Error.Internal msg)
  | exception (Rlc_circuit.Engine.Newton_diverged _ as e) ->
      Error (Rlc_errors.Error.Internal (Printexc.to_string e))

let estimate_far_delay (model : Driver_model.t) ~line ~cl =
  (* Near-end 50% plus the two-moment transfer estimate of the line's own
     50% propagation (clamped below by the time of flight). *)
  model.Driver_model.delay_50 +. Rlc_tline.Transfer.delay_50_estimate line ~cl

let pp_path fmt p =
  Format.fprintf fmt "path<%d stages, total %.1f ps>@\n" (List.length p.stages)
    (Units.in_ps p.total_delay);
  List.iteri
    (fun i s ->
      Format.fprintf fmt
        "  stage %d: %gX driving %.1f mm (%s edge, in-slew %.0f ps) -> stage delay %.1f ps, \
         far slew %.1f ps, arrival %.1f ps@\n"
        i s.stage.size
        (Units.in_mm s.stage.line.Line.length)
        (match s.edge with Measure.Rising -> "rise" | Measure.Falling -> "fall")
        (Units.in_ps s.input_slew) (Units.in_ps s.stage_delay) (Units.in_ps s.far_slew)
        (Units.in_ps s.arrival))
    p.stages
