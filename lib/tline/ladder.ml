module Netlist = Rlc_circuit.Netlist

let default_segments line =
  let mm = Rlc_num.Units.in_mm line.Line.length in
  Int.min 400 (Int.max 40 (int_of_float (Float.ceil (20. *. mm))))

type built = {
  near : Netlist.node;
  far : Netlist.node;
  internal : Netlist.node list;
  n_segments : int;
}

let build ?n_segments nl line ~near =
  let n = match n_segments with Some n -> n | None -> default_segments line in
  if n < 1 then invalid_arg "Ladder.build: need at least one segment";
  let fn = float_of_int n in
  let dr = Line.total_r line /. fn
  and dl = Line.total_l line /. fn
  and dc = Line.total_c line /. fn in
  let rec go prev i acc =
    if i > n then (prev, List.rev acc)
    else begin
      (* Series R and L need an intermediate node; allocate both in line
         order to keep the matrix bandwidth at 2.  Names are constant: a
         ladder is rebuilt per replay, and formatting a name per node and
         element would cost more than nothing that reads them is worth. *)
      let mid = Netlist.node nl "lad_m" in
      let next = Netlist.node nl "lad_n" in
      Netlist.resistor nl ~name:"Rseg" prev mid dr;
      Netlist.inductor nl ~name:"Lseg" mid next dl;
      Netlist.capacitor nl ~name:"Cseg" next Netlist.ground dc;
      go next (i + 1) (next :: mid :: acc)
    end
  in
  let far, internal = go near 1 [] in
  { near; far; internal; n_segments = n }

let attach_load ?n_segments line ~cl nl node far_ref =
  let b = build ?n_segments nl line ~near:node in
  if cl > 0. then Netlist.capacitor nl ~name:"CL" b.far Netlist.ground cl;
  far_ref := b.far
