module Netlist = Rlc_circuit.Netlist
module Engine = Rlc_circuit.Engine
module Line = Rlc_tline.Line
module Pwl = Rlc_waveform.Pwl
module Waveform = Rlc_waveform.Waveform

type member = {
  line : Line.t;
  drive : Pwl.t option;
  rs : float;
  cl : float;
}

let default_segments = 40

let simulate ?obs ?(n_segments = default_segments) ?(until = []) ?(until_peak = false) ~dt ~victim
    ~aggressors () =
  if n_segments < 1 then invalid_arg "Rlc_xtalk.Cluster.simulate: need at least one segment";
  if dt <= 0. then invalid_arg "Rlc_xtalk.Cluster.simulate: dt must be positive";
  List.iter
    (fun (_, cc) ->
      if cc < 0. then invalid_arg "Rlc_xtalk.Cluster.simulate: negative coupling capacitance")
    aggressors;
  let members = Array.of_list (victim :: List.map fst aggressors) in
  (* Shift all drives by a common offset so the earliest one starts after
     t = 0 (the DC point must see the quiescent state); the recorded
     waveform is shifted back before returning. *)
  let start =
    Array.fold_left
      (fun acc m ->
        match m.drive with
        | None -> acc
        | Some p -> Float.min acc (fst (List.hd (Pwl.points p))))
      Float.infinity members
  in
  let shift = if Float.is_finite start then 10e-12 -. start else 0. in
  let members =
    Array.map (fun m -> { m with drive = Option.map (Pwl.shift_time shift) m.drive }) members
  in
  let t_stop =
    let drive_end =
      Array.fold_left
        (fun acc m -> match m.drive with None -> acc | Some p -> Float.max acc (Pwl.end_time p))
        20e-12 members
    in
    let settle =
      Array.fold_left
        (fun acc m -> Float.max acc (10. *. Line.time_of_flight m.line))
        1e-9 members
    in
    drive_end +. settle
  in
  (* Node and element names are constant: a cluster is rebuilt for every
     transient, and nothing reads the names of a well-formed one. *)
  let nl = Netlist.create () in
  let nears =
    Array.map
      (fun m ->
        let nd = Netlist.node nl "x_near" in
        (match m.drive with
        | Some p -> Netlist.force_pwl nl nd p
        | None -> Netlist.resistor nl ~name:"Rs" nd Netlist.ground (Float.max 1e-3 m.rs));
        nd)
      members
  in
  let fn = float_of_int n_segments in
  let segs =
    Array.map
      (fun m ->
        (Line.total_r m.line /. fn, Line.total_l m.line /. fn, Line.total_c m.line /. fn))
      members
  in
  let dccs = Array.of_list (List.map (fun (_, cc) -> cc /. fn) aggressors) in
  let prev = ref nears in
  for _ = 1 to n_segments do
    (* Interleave member nodes per segment so coupling caps connect nearby
       matrix rows (small bandwidth, like Coupled_ladder). *)
    let mids = Array.map (fun _ -> Netlist.node nl "x_m") members in
    let nexts = Array.map (fun _ -> Netlist.node nl "x_n") members in
    Array.iteri
      (fun j _ ->
        let dr, dl, dc = segs.(j) in
        Netlist.resistor nl ~name:"R" !prev.(j) mids.(j) dr;
        Netlist.inductor nl ~name:"L" mids.(j) nexts.(j) dl;
        Netlist.capacitor nl ~name:"C" nexts.(j) Netlist.ground dc)
      members;
    Array.iteri
      (fun k dcc -> if dcc > 0. then Netlist.capacitor nl ~name:"Cc" nexts.(0) nexts.(k + 1) dcc)
      dccs;
    prev := nexts
  done;
  let fars = !prev in
  Array.iteri
    (fun j m -> if m.cl > 0. then Netlist.capacitor nl ~name:"CL" fars.(j) Netlist.ground m.cl)
    members;
  (* Aligned worst-case sweeps re-simulate the same coupled cluster with
     shifted aggressor sources: same topology, new source closures — the
     cheapest possible restamp for the compiled-handle cache. *)
  let r =
    Engine.Compiled.run ?obs ~record_nodes:[ fars.(0) ]
      ~until:(List.map (fun (level, dir) -> (fars.(0), level, dir)) until)
      ?until_peak:(if until_peak then Some fars.(0) else None)
      ~dt ~t_stop
      (Engine.Compiled.cached ?obs nl)
  in
  Waveform.shift_time (-.shift) (Engine.voltage r fars.(0))
