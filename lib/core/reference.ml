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

(* The transistor-level bench behind [simulate], built, and its far node.
   [far_50] stops it once the input and the far end have both crossed
   50 %, which is all [far_delay] reads.  Only input/near/far are ever
   read back, so the rest of the ladder is not recorded. *)
let bench ?t_stop ?n_segments ~far_50 ~tech ~size ~input_slew ~line ~cl () =
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
  let b =
    Testbench.build ~t_stop ~t0 ~edge:Testbench.Rise
      ~record:(fun () -> [ !far_ref ])
      ?until:(if far_50 then Some until else None)
      ~tech ~size ~input_slew
      ~load:(fun nl node -> Ladder.attach_load ?n_segments line ~cl nl node far_ref)
      ()
  in
  (b, !far_ref)

(* The measured bench out of a run of it. *)
let of_run ~vdd ~input ~near ~far r =
  let input = Engine.voltage r input in
  let t_in50 = Measure.t_frac_exn input ~vdd ~edge:Measure.Falling ~frac:0.5 in
  { input; near = Engine.voltage r near; far = Engine.voltage r far; vdd; t_in50 }

let simulate ?obs ?(dt = 0.25e-12) ?t_stop ?adaptive ?n_segments ~tech ~size ~input_slew ~line ~cl
    () =
  let b, far = bench ?t_stop ?n_segments ~far_50:false ~tech ~size ~input_slew ~line ~cl () in
  of_run ~vdd:tech.Rlc_devices.Tech.vdd ~input:b.Testbench.input ~near:b.Testbench.output ~far
    (Engine.transient ?obs ?record_nodes:b.Testbench.record_nodes ?adaptive ~dt
       ~t_stop:b.Testbench.t_stop b.Testbench.netlist)

(* [replay_pwl]'s circuit: the ladder, its near and far nodes, the window
   and the time shift that starts the source after t = 0 (the engine's DC
   point must see the quiescent low state). *)
let replay_circuit ?t_stop ?n_segments ~pwl ~line ~cl () =
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
  (nl, near, !far_ref, t_stop, shift)

(* Ceff-model replays sweep many π/ladder loads of identical shape; the
   structure-keyed handle cache makes each after the first a restamp
   (values in, no compile/alloc) with bit-identical results. *)
let replay_pwl ?obs ?(dt = 0.25e-12) ?t_stop ?adaptive ?n_segments ~pwl ~line ~cl () =
  let nl, near, far, t_stop, shift = replay_circuit ?t_stop ?n_segments ~pwl ~line ~cl () in
  let r =
    Engine.Compiled.run ?obs ~record_nodes:[ near; far ] ?adaptive ~dt ~t_stop
      (Engine.Compiled.cached ?obs nl)
  in
  (* Undo the shift: return waveforms on the caller's PWL time axis. *)
  ( Waveform.shift_time (-.shift) (Engine.voltage r near),
    Waveform.shift_time (-.shift) (Engine.voltage r far) )

type replay = { vdd : float; pwl : Pwl.t; line : Line.t; cl : float }

(* [f] on consecutive batches of at most [max_lanes] items, results in
   order: a batch's member [i] takes lane [i]'s handle, so same-structure
   members hold distinct handles and the engine steps them in
   lock-step. *)
let in_batches f items =
  let n = Array.length items and width = Engine.Compiled.max_lanes in
  Array.concat
    (List.init ((n + width - 1) / width) (fun b ->
         f (Array.sub items (b * width) (Int.min width (n - (b * width))))))

(* Only the far node is recorded: it is all the timing reads. *)
let far_timings ?obs ?(dt = 0.25e-12) ?adaptive replays =
  let rising vdd frac = Measure.level_of_frac ~vdd ~edge:Measure.Rising ~frac in
  let timing (rp : replay) far shift r =
    let far = Waveform.shift_time (-.shift) (Engine.voltage r far) in
    let t50 = Measure.t_frac_exn far ~vdd:rp.vdd ~edge:Measure.Rising ~frac:0.5 in
    match Measure.slew_10_90 far ~vdd:rp.vdd ~edge:Measure.Rising with
    | Some s -> (t50, s)
    | None -> invalid_arg "Reference.far_timing: far end never completed 10-90"
  in
  in_batches
    (fun batch ->
      (* Each netlist is garbage once [cached] has its values: a batch
         holds only the handles while it steps. *)
      let fars = Array.make (Array.length batch) Netlist.ground in
      let shifts = Array.make (Array.length batch) 0. in
      let lanes =
        Array.mapi
          (fun i (rp : replay) ->
            let nl, _, far, t_stop, shift =
              replay_circuit ~pwl:rp.pwl ~line:rp.line ~cl:rp.cl ()
            in
            fars.(i) <- far;
            shifts.(i) <- shift;
            {
              Engine.Compiled.handle = Engine.Compiled.cached ?obs ~lane:i nl;
              t_stop;
              record_nodes = [ far ];
              until =
                List.map
                  (fun frac -> (far, rising rp.vdd frac, Measure.Rising))
                  [ 0.1; 0.5; 0.9 ];
              until_peak = None;
            })
          batch
      in
      Array.mapi
        (fun i outcome ->
          Result.bind outcome (fun r ->
              match timing batch.(i) fars.(i) shifts.(i) r with
              | t -> Ok t
              | exception (Invalid_argument _ as e) -> Error e))
        (Engine.Compiled.run_lanes ?obs ?adaptive ~dt lanes))
    replays

let far_timing ?obs ?dt ?adaptive ~vdd ~pwl ~line ~cl () =
  Result.fold ~ok:Fun.id ~error:raise (far_timings ?obs ?dt ?adaptive [| { vdd; pwl; line; cl } |]).(0)

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

type bench_case = { size : float; input_slew : float; line : Line.t; cl : float }

(* A batch keeps only the nodes it reads while it steps, as
   [far_timings] does. *)
let simulated_far_delays ?obs ?(dt = 0.25e-12) ?adaptive ~tech cases =
  let vdd = tech.Rlc_devices.Tech.vdd in
  in_batches
    (fun batch ->
      let built =
        Array.mapi
          (fun i (k : bench_case) ->
            let bn, far =
              bench ~far_50:true ~tech ~size:k.size ~input_slew:k.input_slew ~line:k.line
                ~cl:k.cl ()
            in
            let lane =
              {
                Engine.Compiled.handle =
                  Engine.Compiled.cached ?obs ~lane:i bn.Testbench.netlist;
                t_stop = bn.Testbench.t_stop;
                record_nodes = Option.get bn.Testbench.record_nodes;
                until = Option.get bn.Testbench.until;
                until_peak = None;
              }
            in
            ((bn.Testbench.input, bn.Testbench.output, far), lane))
          batch
      in
      let outcomes =
        Engine.Compiled.run_lanes ?obs ?adaptive ~dt (Array.map snd built)
      in
      Array.mapi
        (fun i outcome ->
          let (input, near, far), _ = built.(i) in
          match outcome with
          | Error e -> Error e
          | Ok r -> (
              match far_delay (of_run ~vdd ~input ~near ~far r) with
              | d -> Ok d
              | exception ((Invalid_argument _ | Failure _) as e) -> Error e))
        outcomes)
    cases
