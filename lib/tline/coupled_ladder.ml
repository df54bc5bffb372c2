module Netlist = Rlc_circuit.Netlist

type built = {
  far_a : Netlist.node;
  far_b : Netlist.node;
  n_segments : int;
}

let build ?n_segments nl line ~k ~cc_total ~near_a ~near_b =
  if k < 0. || k >= 1. then invalid_arg "Coupled_ladder.build: k must be in [0, 1)";
  if cc_total < 0. then invalid_arg "Coupled_ladder.build: negative coupling capacitance";
  let n = match n_segments with Some n -> n | None -> Ladder.default_segments line in
  if n < 1 then invalid_arg "Coupled_ladder.build: need at least one segment";
  let fn = float_of_int n in
  let dr = Line.total_r line /. fn
  and dl = Line.total_l line /. fn
  and dc = Line.total_c line /. fn
  and dcc = cc_total /. fn in
  let rec go prev_a prev_b i =
    if i > n then (prev_a, prev_b)
    else begin
      (* Alternate the two wires' nodes to keep the bandwidth small.
         Constant names, as in Ladder.build. *)
      let mid_a = Netlist.node nl "ca_m" in
      let mid_b = Netlist.node nl "cb_m" in
      let next_a = Netlist.node nl "ca_n" in
      let next_b = Netlist.node nl "cb_n" in
      Netlist.resistor nl ~name:"Ra" prev_a mid_a dr;
      Netlist.resistor nl ~name:"Rb" prev_b mid_b dr;
      Netlist.coupled_pair nl ~name:"K" (mid_a, next_a) dl (mid_b, next_b) dl ~k;
      Netlist.capacitor nl ~name:"Cga" next_a Netlist.ground dc;
      Netlist.capacitor nl ~name:"Cgb" next_b Netlist.ground dc;
      if dcc > 0. then Netlist.capacitor nl ~name:"Cc" next_a next_b dcc;
      go next_a next_b (i + 1)
    end
  in
  let far_a, far_b = go near_a near_b 1 in
  { far_a; far_b; n_segments = n }

let even_mode_tf line ~k =
  line.Line.length
  *. Float.sqrt (line.Line.l_per_m *. (1. +. k) *. line.Line.c_per_m)

let odd_mode_tf line ~k ~cc_total =
  let cc_per_m = cc_total /. line.Line.length in
  line.Line.length
  *. Float.sqrt (line.Line.l_per_m *. (1. -. k) *. (line.Line.c_per_m +. (2. *. cc_per_m)))

let even_mode_z0 line ~k = Float.sqrt (line.Line.l_per_m *. (1. +. k) /. line.Line.c_per_m)

let odd_mode_z0 line ~k ~cc_total =
  let cc_per_m = cc_total /. line.Line.length in
  Float.sqrt (line.Line.l_per_m *. (1. -. k) /. (line.Line.c_per_m +. (2. *. cc_per_m)))
