(* Seeded input generators.  Everything the program under test receives is
   SPEF and spec text built here from the run's seed; the same seed always
   yields the same bytes.

   Every design is a bus: bit [i] is a global net [b<i>] (an RLC ladder,
   primary input) driving a local net [o<i>] (an RC ladder) through its
   receiver pin.  Each R, L and C value is jittered by +-10 %, so no two
   nets share a Ceff cache key and a cold flow pays one real solve per
   net. *)

type bus = {
  bits : int;
  segments : int;  (** RLC segments per global net *)
  global_size : float;
  local_size : float;
  slew_ps : float;
  coupled : bool;
      (** adjacent globals strongly coupled, next-nearest globals and
          adjacent locals weakly (the shape of [examples/bus8_coupled.spef]) *)
}

type design = { spef : string; spec : string }

let rng ~seed ~salt = Random.State.make [| seed; salt |]

let jitter st v = v *. (0.9 +. (0.2 *. Random.State.float st 1.))

let header name =
  Printf.sprintf
    "*SPEF \"IEEE 1481-1998\"\n\
     *DESIGN \"%s\"\n\
     *T_UNIT 1 PS\n\
     *C_UNIT 1 FF\n\
     *R_UNIT 1 OHM\n\
     *L_UNIT 1 PH\n"
    name

let global_name i = Printf.sprintf "b%d" i
let local_name i = Printf.sprintf "o%d" i

(* Node [k] of a ladder: the driver pin, interior nodes, the receiver pin. *)
let node name ~segments k =
  if k = 0 then name ^ "_drv"
  else if k = segments then name ^ "_rcv"
  else Printf.sprintf "%s_%d" name k

(* One [*D_NET] block: a [segments]-long ladder with per-segment R (and L
   when [l_ph > 0]) and a grounded cap on every node past the driver.
   [couplings] are extra [*CAP] entries [(node, other_node, ff)]. *)
let ladder_block st ~name ~segments ~r ~l_ph ~c_ff ~couplings =
  let caps = List.init segments (fun k -> (node name ~segments (k + 1), jitter st c_ff)) in
  let res = List.init segments (fun k -> (k, jitter st r)) in
  let ind = if l_ph > 0. then List.init segments (fun k -> (k, jitter st l_ph)) else [] in
  let total = List.fold_left (fun acc (_, c) -> acc +. c) 0. caps in
  let b = Buffer.create 1024 in
  Printf.bprintf b "*D_NET %s %.6g\n*CONN\n*P %s_drv O\n*P %s_rcv I\n*CAP\n" name total name name;
  List.iteri (fun i (n, c) -> Printf.bprintf b "%d %s %.6g\n" (i + 1) n c) caps;
  List.iteri
    (fun i (a, o, c) -> Printf.bprintf b "%d %s %s %.6g\n" (segments + i + 1) a o c)
    couplings;
  let branches section values =
    if values <> [] then begin
      Printf.bprintf b "*%s\n" section;
      List.iter
        (fun (k, v) ->
          Printf.bprintf b "%d %s %s %.6g\n" (k + 1) (node name ~segments k)
            (node name ~segments (k + 1))
            v)
        values
    end
  in
  branches "RES" res;
  branches "INDUC" ind;
  Buffer.add_string b "*END\n";
  Buffer.contents b

(* A global bit: 72 ohm, 4.5 nH, 600 fF in total however it is segmented
   (the totals of the repo's bus examples). *)
let global_block st (bus : bus) i =
  let segments = bus.segments in
  let name = global_name i in
  let couplings =
    if not bus.coupled then []
    else
      let strong =
        if i < bus.bits - 1 then
          List.init segments (fun k ->
              let k = k + 1 in
              (node name ~segments k, node (global_name (i + 1)) ~segments k, jitter st 30.))
        else []
      in
      let weak =
        if i < bus.bits - 2 then
          let k = Int.max 1 (segments - 1) in
          [ (node name ~segments k, node (global_name (i + 2)) ~segments k, jitter st 3.) ]
        else []
      in
      strong @ weak
  in
  ladder_block st ~name ~segments
    ~r:(72. /. float_of_int segments)
    ~l_ph:(4500. /. float_of_int segments)
    ~c_ff:(600. /. float_of_int segments)
    ~couplings

let local_block st (bus : bus) i =
  let name = local_name i in
  let couplings =
    if bus.coupled && i < bus.bits - 1 then
      [ (node name ~segments:2 1, node (local_name (i + 1)) ~segments:2 1, jitter st 3.) ]
    else []
  in
  ladder_block st ~name ~segments:2 ~r:60. ~l_ph:0. ~c_ff:45. ~couplings

let spec_of (bus : bus) =
  let b = Buffer.create 4096 in
  for i = 0 to bus.bits - 1 do
    let g = global_name i and o = local_name i in
    Printf.bprintf b "driver %s %g\ninput %s %g\ndriver %s %g\nedge %s %s_rcv %s\nload %s %s_rcv 5\n"
      g bus.global_size g bus.slew_ps o bus.local_size g g o o o
  done;
  Buffer.contents b

let bus ~name st (bus : bus) =
  let b = Buffer.create (bus.bits * 1024) in
  Buffer.add_string b (header name);
  for i = 0 to bus.bits - 1 do
    Buffer.add_string b (global_block st bus i);
    Buffer.add_string b (local_block st bus i)
  done;
  { spef = Buffer.contents b; spec = spec_of bus }

(* One ECO edit for the served workload: 60 % replace a global net's
   parasitic block with freshly jittered values, 20 % resize a driver
   within {50, 75, 100}X (never to its current size), 20 % move a primary
   input's slew within 80-120 ps. *)
type edit =
  | Net of string * string  (** net, replacement block *)
  | Resize of string * float
  | Slew of string * float  (** net, picoseconds *)

let edit st (b : bus) ~size_of =
  let i = Random.State.int st b.bits in
  let u = Random.State.float st 1. in
  if u < 0.6 then Net (global_name i, global_block st b i)
  else if u < 0.8 then begin
    let net = if Random.State.bool st then global_name i else local_name i in
    let choices = List.filter (fun s -> s <> size_of net) [ 50.; 75.; 100. ] in
    Resize (net, List.nth choices (Random.State.int st (List.length choices)))
  end
  else Slew (global_name i, 80. +. (40. *. Random.State.float st 1.))
