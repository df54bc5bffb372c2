module Netlist = Rlc_circuit.Netlist
module Engine = Rlc_circuit.Engine
module Line = Rlc_tline.Line
module Pwl = Rlc_waveform.Pwl
module Waveform = Rlc_waveform.Waveform
module Measure = Rlc_waveform.Measure
module Obs = Rlc_obs.Obs

type member = {
  line : Line.t;
  drive : Pwl.t option;
  rs : float;
  cl : float;
}

let default_segments = 40

(* Every run starts [lead] before its earliest drive, so the engine's DC
   point sees the quiescent state. *)
let lead = 10e-12

let drive_start members =
  List.fold_left
    (fun acc m ->
      match m.drive with None -> acc | Some p -> Float.min acc (fst (List.hd (Pwl.points p))))
    Float.infinity members

type run = {
  victim : member;
  aggressors : (member * float) list;
  until : (float * Waveform.direction) list;
  until_peak : bool;
  horizon : float option;
}

let check ~n_segments ~dt aggressors =
  if n_segments < 1 then invalid_arg "Rlc_xtalk.Cluster.simulate: need at least one segment";
  if dt <= 0. then invalid_arg "Rlc_xtalk.Cluster.simulate: dt must be positive";
  List.iter
    (fun (_, cc) ->
      if cc < 0. then invalid_arg "Rlc_xtalk.Cluster.simulate: negative coupling capacitance")
    aggressors

(* One run's engine lane on lane [lane] of the handle cache, its victim far
   end and the shift of its drives.  The netlist is garbage once the handle
   has its values: a batch holds only the handles while it steps. *)
let prepare ?obs ~n_segments ~dt ~lane (r : run) =
  let members = r.victim :: List.map fst r.aggressors in
  (* Shift all drives by a common offset so the earliest one starts after
     t = 0 (the DC point must see the quiescent state); the recorded
     waveform is shifted back before returning. *)
  let start = drive_start members in
  let shift = if Float.is_finite start then lead -. start else 0. in
  let members =
    Array.of_list
      (List.map (fun m -> { m with drive = Option.map (Pwl.shift_time shift) m.drive }) members)
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
    let full = drive_end +. settle in
    match r.horizon with None -> full | Some h -> Float.min full (Float.max dt (h +. shift))
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
  let dccs = Array.of_list (List.map (fun (_, cc) -> cc /. fn) r.aggressors) in
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
  let far = fars.(0) in
  (* Aligned worst-case sweeps re-simulate the same coupled cluster with
     shifted aggressor sources: same topology, new source closures — the
     cheapest possible restamp for the compiled-handle cache. *)
  ( {
      Engine.Compiled.handle = Engine.Compiled.cached ?obs ~lane nl;
      t_stop;
      record_nodes = [ far ];
      until = List.map (fun (level, dir) -> (far, level, dir)) r.until;
      until_peak = (if r.until_peak then Some far else None);
    },
    far,
    shift )

(* The checked runs [(lane, run)], each on its own lane of the handle cache
   (no two on one lane), stepped as one engine batch. *)
let on_lanes ?obs ~n_segments ~dt (runs : (int * run) array) =
  let prepared = Array.map (fun (lane, r) -> prepare ?obs ~n_segments ~dt ~lane r) runs in
  let results =
    Engine.Compiled.run_lanes ?obs ~dt (Array.map (fun (lane, _, _) -> lane) prepared)
    |> Array.map (Result.fold ~ok:Fun.id ~error:raise)
  in
  Array.mapi
    (fun i res ->
      let _, far, shift = prepared.(i) in
      Waveform.shift_time (-.shift) (Engine.voltage res far))
    results

(* [f] on consecutive groups of at most [max_lanes] cases, which fit on
   distinct lanes. *)
let in_groups f cases =
  let n = Array.length cases and width = Engine.Compiled.max_lanes in
  Array.concat
    (List.init ((n + width - 1) / width) (fun g ->
         f (Array.sub cases (g * width) (Int.min width (n - (g * width))))))

let simulate_batch ?obs ?(n_segments = default_segments) ~dt runs =
  Array.iter (fun (r : run) -> check ~n_segments ~dt r.aggressors) runs;
  in_groups
    (fun group -> on_lanes ?obs ~n_segments ~dt (Array.mapi (fun j r -> (j, r)) group))
    runs

let simulate ?obs ?n_segments ?(until = []) ?(until_peak = false) ?horizon ~dt ~victim
    ~aggressors () =
  (simulate_batch ?obs ?n_segments ~dt [| { victim; aggressors; until; until_peak; horizon } |]).(0)

(* ------------------------------------------------------ alignment sweep *)

(* The screen's voltage margin, as a fraction of VDD.  It must exceed the
   gap between the superposed far end and a real run's, which comes from
   the three runs sampling their sources on different time grids: over
   every offset of 400 random clusters (test_xtalk's generator, grids of
   up to 257 points) the gap stayed under 0.96 mV, against 1.8 mV at
   1.8 V. *)
let screen_margin = 1e-3

let at_offset off aggressors =
  List.map
    (fun (m, cc) -> ({ m with drive = Option.map (Pwl.shift_time off) m.drive }, cc))
    aggressors

(* The member with its drive held at the drive's initial value; the near
   end stays forced, so the cluster keeps its topology. *)
let hold m =
  { m with drive = Option.map (fun p -> Pwl.of_points [ List.hd (Pwl.points p) ]) m.drive }

(* The superposition screen.  A cluster is linear, so the victim's far end
   with the aggressors shifted by [off] is v(t) + a(t - off) - a0: [v]
   switches the victim against aggressors held at their initial level, [a]
   holds the victim and switches the unshifted aggressors, and [a0] is the
   quiescent level both start from.  [v] stops at its 90 % crossing and [a]
   covers every shift of [v]'s window; an offset's screen window is where
   both exist. *)
let v_run ~vdd ~victim ~aggressors =
  {
    victim;
    aggressors = List.map (fun (m, cc) -> (hold m, cc)) aggressors;
    until = [ (Measure.level_of_frac ~vdd ~edge:Measure.Rising ~frac:0.9, Measure.Rising) ];
    until_peak = false;
    horizon = None;
  }

let a_run ~v ~victim ~aggressors offsets =
  let off_lo = Array.fold_left Float.min Float.infinity offsets in
  {
    victim = hold victim;
    aggressors;
    until = [];
    until_peak = false;
    horizon = Some (Waveform.t_end v -. off_lo);
  }

(* On a [dt] grid from the earliest real run's first sample, an offset's
   bracket is the superposed far end's first crossings of level -/+ eps.
   While the real run stays within eps of it, its first crossing of the
   level lies inside the bracket, so an offset whose bracket ends before
   another's starts cannot be the worst.  Returns which offsets must run
   -- the others, plus every one whose bracket the window cannot resolve
   -- and the check of a real run's samples against the superposition. *)
let screen ~dt ~vdd ~level ~victim ~aggressors ~v ~a offsets =
  let eps = screen_margin *. vdd in
  let off_lo = Array.fold_left Float.min Float.infinity offsets in
  let a0 = Waveform.value_at a (Waveform.t_start a) in
  let superposed off t = Waveform.value_at v t +. Waveform.value_at a (t -. off) -. a0 in
  let window off = Float.min (Waveform.t_end v) (Waveform.t_end a +. off) in
  let start = drive_start (victim :: List.map fst (at_offset off_lo aggressors)) in
  let t0 = if Float.is_finite start then start -. lead else 0. in
  let time j = t0 +. (dt *. float_of_int j) in
  let n_grid = Int.max 0 (1 + int_of_float (Float.floor ((Waveform.t_end v -. t0) /. dt))) in
  let v_grid = Array.init n_grid (fun j -> Waveform.value_at v (time j)) in
  let a_ts = Waveform.times a and a_vs = Waveform.values a in
  let lo_level = level -. eps and hi_level = level +. eps in
  let bracket off =
    let w = window off in
    (* [superposed off] along the grid: [a] is read at increasing times,
       so a walk over its samples replaces [Waveform.value_at]'s search
       and gives the same values. *)
    let i = ref 0 and last = Array.length a_ts - 1 in
    let sample j =
      let t = time j -. off in
      while !i < last && a_ts.(!i + 1) <= t do incr i done;
      let a =
        if t <= a_ts.(0) then a_vs.(0)
        else if !i = last then a_vs.(last)
        else
          a_vs.(!i)
          +. ((t -. a_ts.(!i)) /. (a_ts.(!i + 1) -. a_ts.(!i)) *. (a_vs.(!i + 1) -. a_vs.(!i)))
      in
      v_grid.(j) +. a -. a0
    in
    let cross y0 y1 level j = time (j - 1) +. ((level -. y0) /. (y1 -. y0) *. dt) in
    let rec go j prev lo =
      if j >= n_grid || time j > w then None
      else
        let y = sample j in
        let lo =
          if Option.is_none lo && prev < lo_level && y >= lo_level then
            Some (cross prev y lo_level j)
          else lo
        in
        if prev < hi_level && y >= hi_level then
          Option.map (fun lo -> (lo, cross prev y hi_level j)) lo
        else go (j + 1) y lo
    in
    if n_grid = 0 then None else go 1 (sample 0) None
  in
  let brackets = Array.map bracket offsets in
  let latest_lo =
    Array.fold_left
      (fun acc b -> match b with Some (lo, _) -> Float.max acc lo | None -> acc)
      Float.neg_infinity brackets
  in
  let must = Array.map (function Some (_, hi) -> hi >= latest_lo | None -> true) brackets in
  let agrees k far =
    let off = offsets.(k) in
    let w = window off in
    Array.for_all2
      (fun t y -> t > w || Float.abs (y -. superposed off t) <= 0.5 *. eps)
      (Waveform.times far) (Waveform.values far)
  in
  (must, agrees)

type sweep = { victim : member; aggressors : (member * float) list; offsets : float array }

(* A group of at most [max_lanes] sweeps, sweep [j] on lane [j] for every
   run, so that its runs restamp only sources.  Phase by phase, each phase
   one batch over the sweeps: every screened sweep's [v] run, then its [a]
   run, then every offset its screen marks (all of them when there are
   three or fewer), speculatively, one offset per sweep and pass.  Then
   each sweep is walked in offset order as a lone sweep runs it: a run
   that disagrees with the screen runs every offset not run yet (a
   fallback), and the first offset in order that never reaches the level
   is the error.  The speculative runs are those the walk would make; only
   a walk that ends in an error may leave some of them unread. *)
let sweep_group ?obs ~n_segments ~dt ~vdd (sweeps : sweep array) =
  let o = Option.value obs ~default:Obs.null in
  let m = Array.length sweeps in
  let level = Measure.level_of_frac ~vdd ~edge:Measure.Rising ~frac:0.5 in
  (* One batch of the runs [f j] returns, by sweep. *)
  let phase f =
    let runs =
      List.init m (fun j -> Option.map (fun r -> (j, r)) (f j))
      |> List.filter_map Fun.id |> Array.of_list
    in
    let out = Array.make m None in
    Array.iteri (fun i w -> out.(fst runs.(i)) <- Some w) (on_lanes ?obs ~n_segments ~dt runs);
    out
  in
  let counted ws =
    Array.iter
      (Option.iter (fun w ->
           Obs.incr o "xtalk.screen_runs";
           Obs.add o "xtalk.screen_steps" (Waveform.length w - 1)))
      ws;
    ws
  in
  (* Two screen runs cost more than a sweep of three offsets or fewer. *)
  let vs =
    counted
      (phase (fun j ->
           let sw = sweeps.(j) in
           if Array.length sw.offsets <= 3 then None
           else Some (v_run ~vdd ~victim:sw.victim ~aggressors:sw.aggressors)))
  in
  let as_ =
    counted
      (phase (fun j ->
           let sw = sweeps.(j) in
           Option.map
             (fun v -> a_run ~v ~victim:sw.victim ~aggressors:sw.aggressors sw.offsets)
             vs.(j)))
  in
  let plans =
    Array.mapi
      (fun j sw ->
        match (vs.(j), as_.(j)) with
        | Some v, Some a ->
            screen ~dt ~vdd ~level ~victim:sw.victim ~aggressors:sw.aggressors ~v ~a sw.offsets
        | _ -> (Array.make (Array.length sw.offsets) true, fun _ _ -> true))
      sweeps
  in
  (* Per offset: not run yet, or its first 50 % crossing ([None]: never
     reached) and, for a marked offset, whether the run agrees with the
     screen. *)
  let outcomes = Array.map (fun sw -> Array.make (Array.length sw.offsets) None) sweeps in
  (* One alignment run at offset [next j] per sweep that has one. *)
  let align next =
    let ks = Array.init m next in
    let runs =
      phase (fun j ->
          Option.map
            (fun k ->
              let sw = sweeps.(j) in
              {
                victim = sw.victim;
                aggressors = at_offset sw.offsets.(k) sw.aggressors;
                until = [ (level, Measure.Rising) ];
                until_peak = false;
                horizon = None;
              })
            ks.(j))
    in
    Array.iteri
      (fun j far ->
        Option.iter
          (fun far ->
            let k = Option.get ks.(j) in
            Obs.incr o "xtalk.alignment_sweeps";
            Obs.add o "xtalk.alignment_steps" (Waveform.length far - 1);
            let crossed = Measure.t_frac far ~vdd ~edge:Measure.Rising ~frac:0.5 in
            let must, agrees = plans.(j) in
            outcomes.(j).(k) <- Some (crossed, Option.is_some crossed && must.(k) && agrees k far))
          far)
      runs
  in
  (* The speculative passes: pass [p] runs each sweep's [p]-th marked
     offset. *)
  let marked =
    Array.map
      (fun (must, _) -> List.filter (fun k -> must.(k)) (List.init (Array.length must) Fun.id))
      plans
  in
  while Array.exists (( <> ) []) marked do
    align (fun j -> match marked.(j) with k :: _ -> Some k | [] -> None);
    Array.iteri (fun j ks -> marked.(j) <- (match ks with [] -> [] | _ :: rest -> rest)) marked
  done;
  let walk j =
    let exception Unreached of int in
    let outcome = outcomes.(j) and must = fst plans.(j) in
    let n = Array.length outcome in
    (* Offset [k]'s run, alone if it has not run yet. *)
    let run k =
      if Option.is_none outcome.(k) then align (fun i -> if i = j then Some k else None);
      match outcome.(k) with Some (Some _, agrees) -> agrees | _ -> raise (Unreached k)
    in
    (* Every offset below [limit], in order: the first that never reaches
       the level is the one a loop over every offset would name. *)
    let rest limit =
      for k = 0 to limit - 1 do
        ignore (run k)
      done
    in
    let rec confirm k =
      if k < n then
        if not must.(k) then confirm (k + 1)
        else
          match run k with
          | true -> confirm (k + 1)
          | false ->
              Obs.incr o "xtalk.screen_fallbacks";
              rest n
          | exception Unreached k ->
              rest k;
              raise (Unreached k)
    in
    match confirm 0 with
    | () ->
        Ok
          (Array.fold_left
             (fun acc c -> match c with Some (Some d, _) -> Float.max acc d | _ -> acc)
             Float.neg_infinity outcome)
    | exception Unreached k -> Error sweeps.(j).offsets.(k)
  in
  Array.init m walk

let worst_crossings ?obs ?(n_segments = default_segments) ~dt ~vdd sweeps =
  Array.iter (fun (sw : sweep) -> check ~n_segments ~dt sw.aggressors) sweeps;
  in_groups (sweep_group ?obs ~n_segments ~dt ~vdd) sweeps

let worst_crossing ?obs ?n_segments ~dt ~vdd ~victim ~aggressors offsets =
  (worst_crossings ?obs ?n_segments ~dt ~vdd [| { victim; aggressors; offsets } |]).(0)
