open Rlc_devices
open Rlc_waveform

type grid = { slews : float array; caps : float array }

let default_grid =
  let ps = Rlc_num.Units.ps and ff = Rlc_num.Units.ff in
  {
    slews = Array.map ps [| 20.; 50.; 75.; 100.; 150.; 200.; 300. |];
    caps = Array.map ff [| 20.; 50.; 100.; 200.; 400.; 800.; 1600.; 3200. |];
  }

let characterize_point tech ~size ~edge ~input_slew ~cap =
  let vdd = tech.Tech.vdd in
  (* Conservative horizon: the input ramp plus several output time
     constants of the weakest drivers into the largest loads. *)
  let t0 = 10e-12 in
  let t_stop = t0 +. (2. *. input_slew) +. Float.max 2e-9 (2000. *. cap) in
  let out_edge =
    match edge with Testbench.Rise -> Measure.Rising | Testbench.Fall -> Measure.Falling
  in
  let in_edge =
    match edge with Testbench.Rise -> Measure.Falling | Testbench.Fall -> Measure.Rising
  in
  (* Every measurement below reads a first crossing — the input's 50 % and
     the output's 10/20/50/80/90 % — so the transient stops once all of
     them have happened. *)
  let until ~input ~output =
    let at node edge frac = (node, Measure.level_of_frac ~vdd ~edge ~frac, edge) in
    at input in_edge 0.5 :: List.map (at output out_edge) [ 0.1; 0.2; 0.5; 0.8; 0.9 ]
  in
  let point =
    Printf.sprintf "size=%g, slew=%g ps, cap=%g fF" size (Rlc_num.Units.in_ps input_slew)
      (Rlc_num.Units.in_ff cap)
  in
  let r =
    Rlc_circuit.Engine.within ("Characterize: " ^ point) (fun () ->
        Testbench.drive ~dt:0.5e-12 ~t_stop ~t0 ~edge ~tech ~size ~input_slew ~until
          ~load:(Testbench.cap_load cap) ())
  in
  let fail_point msg = failwith (Printf.sprintf "Characterize: %s (%s)" msg point) in
  let delay =
    match
      Measure.delay_50 ~input:r.Testbench.input ~output:r.Testbench.output ~vdd
        ~input_edge:in_edge ~output_edge:out_edge
    with
    | Some d -> d
    | None -> fail_point "no 50% crossing"
  in
  let slew_10_90 =
    match Measure.slew_10_90 r.Testbench.output ~vdd ~edge:out_edge with
    | Some s -> s
    | None -> fail_point "output never completed 10-90"
  in
  let slew_20_80 =
    match Measure.slew_20_80 r.Testbench.output ~vdd ~edge:out_edge with
    | Some s -> s
    | None -> fail_point "output never completed 20-80"
  in
  let tail_50_90 =
    match Measure.slew r.Testbench.output ~vdd ~edge:out_edge ~lo:0.5 ~hi:0.9 with
    | Some s -> s
    | None -> fail_point "output never completed 50-90"
  in
  (delay, slew_10_90, slew_20_80, tail_50_90)

(* Both arcs' grid points as one batch, indexed in the order a serial loop
   would run them -- rise before fall, then slews, then caps -- so the
   pool's lowest-index error is the point a serial run fails on first.
   Every point is its own fresh transient, so the tables are the same bits
   on any pool. *)
let characterize_arcs ?obs ~pool tech ~size grid =
  let n_s = Array.length grid.slews and n_c = Array.length grid.caps in
  let per_arc = n_s * n_c in
  let edges = [| Testbench.Rise; Testbench.Fall |] in
  let points =
    Rlc_parallel.Pool.map ?obs pool (2 * per_arc) (fun k ->
        characterize_point tech ~size ~edge:edges.(k / per_arc)
          ~input_slew:grid.slews.(k mod per_arc / n_c)
          ~cap:grid.caps.(k mod n_c))
  in
  let arc a =
    let lut f =
      Table.make_lut ~slews:grid.slews ~caps:grid.caps
        ~values:
          (Array.init n_s (fun i ->
               Array.init n_c (fun j -> f points.((a * per_arc) + (i * n_c) + j))))
    in
    {
      Table.delay = lut (fun (d, _, _, _) -> d);
      slew_10_90 = lut (fun (_, s, _, _) -> s);
      slew_20_80 = lut (fun (_, _, s, _) -> s);
      tail_50_90 = lut (fun (_, _, _, t) -> t);
    }
  in
  (arc 0, arc 1)

(* One process-wide store of characterized cells, shared by every domain,
   so a sizing sweep characterizes each size once across all nets and
   repeats.  The key holds the grid's values, compared structurally:
   characterizing the same cell on a different grid never returns its
   tables.  The key keeps copies, so a caller mutating its grid afterwards
   cannot re-key a cell.  Size goes first because [Hashtbl.hash] reads
   only ten values and the grid holds fifteen: with size last, every size
   of a grid would hash alike.  A cell is about 5 KB, so the 1,024-cell
   bound is about 5 MB; a sizing ladder uses nine. *)
let store : (float * string * float array * float array, Table.cell) Rlc_obs.Memo.t =
  Rlc_obs.Memo.create ~capacity:1024 ()

let stats () = Rlc_obs.Memo.stats store
let clear_cache () = Rlc_obs.Memo.clear store

let cell ?(obs = Rlc_obs.Obs.null) ?pool ?(grid = default_grid) tech ~size =
  let key = (size, tech.Tech.name, Array.copy grid.slews, Array.copy grid.caps) in
  let c, hit =
    Rlc_obs.Memo.find_or_add store key (fun () ->
        let pool = Rlc_parallel.Pool.borrow ?pool () in
        let rise, fall = characterize_arcs ~obs ~pool tech ~size grid in
        {
          Table.name = Printf.sprintf "inv_%gx" size;
          drive_size = size;
          vdd = tech.Tech.vdd;
          input_cap = Inverter.input_cap (Inverter.make tech ~size);
          rise;
          fall;
        })
  in
  Rlc_obs.Obs.incr obs (if hit then "char.hits" else "char.misses");
  c

(* Result-returning variants for embedders (the service daemon, the CLI)
   that must answer with a typed error instead of dying on a bad driver
   size or an uncharacterizable grid point. *)

let characterize_point_res tech ~size ~edge ~input_slew ~cap =
  match characterize_point tech ~size ~edge ~input_slew ~cap with
  | v -> Ok v
  | exception Invalid_argument msg -> Error (Rlc_errors.Error.Bad_request msg)
  | exception Failure msg -> Error (Rlc_errors.Error.Internal msg)
  | exception (Rlc_circuit.Engine.Newton_diverged _ as e) ->
      Error (Rlc_errors.Error.Internal (Printexc.to_string e))

(* The driver sizes a cell is characterized for.  Every size the flows,
   examples and benchmarks use lies in 10-300X.  5.2X is the smallest
   size measured to characterize on the default grid: at 5.1X the 3.2 pF
   point's output never completes its 10-90 % swing inside the window, so
   characterizing fails anyway.  Far above the range a size is a client's
   mistake, and characterizing it would cost a cold miss (112 transients)
   for tables nothing can use. *)
let min_size = 5.2
let max_size = 1000.

let cell_res ?obs ?pool ?grid tech ~size =
  if not (size >= min_size && size <= max_size) then
    Error
      (Rlc_errors.Error.Bad_request
         (Printf.sprintf "driver size %gX is outside the characterized range %g-%gX" size
            min_size max_size))
  else
  match cell ?obs ?pool ?grid tech ~size with
  | c -> Ok c
  | exception Invalid_argument msg -> Error (Rlc_errors.Error.Bad_request msg)
  | exception Failure msg -> Error (Rlc_errors.Error.Internal msg)
  | exception (Rlc_circuit.Engine.Newton_diverged _ as e) ->
      Error (Rlc_errors.Error.Internal (Printexc.to_string e))
