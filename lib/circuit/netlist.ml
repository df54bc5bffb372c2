module Pwl = Rlc_waveform.Pwl

type node = int

let ground = 0

type nonlinear = {
  nl_name : string;
  nl_nodes : node array;
  nl_eval : float array -> float array -> float array -> unit;
}

type coupled = {
  cp_name : string;
  cp_branches : (node * node) array;
  cp_lmat : float array array;
}

type element =
  | Resistor of { name : string; n1 : node; n2 : node; ohms : float }
  | Capacitor of { name : string; n1 : node; n2 : node; farads : float }
  | Inductor of { name : string; n1 : node; n2 : node; henries : float }
  | Current_source of { name : string; n1 : node; n2 : node; amps : float -> float }
  | Coupled_inductors of coupled
  | Nonlinear of nonlinear

type t = {
  mutable names : string list;  (* reversed; index 0 = ground *)
  mutable n_nodes : int;
  mutable elems : element list;  (* reversed *)
  mutable forced : (node * (float -> float)) list;
  mutable breakpoints : float list;  (* source kink times, unsorted *)
  mutable flat_after : float;  (* every forced source is constant from here on *)
  mutable counter : int;
}

let create () =
  {
    names = [ "gnd" ];
    n_nodes = 1;
    elems = [];
    forced = [];
    breakpoints = [];
    flat_after = Float.neg_infinity;
    counter = 0;
  }

let node t name =
  let id = t.n_nodes in
  t.n_nodes <- id + 1;
  t.names <- name :: t.names;
  id

let node_count t = t.n_nodes

let node_name t n =
  if n < 0 || n >= t.n_nodes then invalid_arg "Netlist.node_name: unknown node";
  List.nth t.names (t.n_nodes - 1 - n)

let check_node t n ctx =
  if n < 0 || n >= t.n_nodes then invalid_arg (Printf.sprintf "Netlist.%s: unknown node %d" ctx n)

(* Auto-names are formatted only when the caller gave none: per-replay
   builders create thousands of elements whose names nothing reads. *)
let name_or t prefix = function
  | Some name -> name
  | None ->
      t.counter <- t.counter + 1;
      Printf.sprintf "%s%d" prefix t.counter

let add t e = t.elems <- e :: t.elems

let resistor t ?name n1 n2 ohms =
  check_node t n1 "resistor";
  check_node t n2 "resistor";
  if ohms <= 0. then invalid_arg "Netlist.resistor: ohms must be positive";
  add t (Resistor { name = name_or t "R" name; n1; n2; ohms })

let capacitor t ?name n1 n2 farads =
  check_node t n1 "capacitor";
  check_node t n2 "capacitor";
  if farads <= 0. then invalid_arg "Netlist.capacitor: farads must be positive";
  add t (Capacitor { name = name_or t "C" name; n1; n2; farads })

let inductor t ?name n1 n2 henries =
  check_node t n1 "inductor";
  check_node t n2 "inductor";
  if henries <= 0. then invalid_arg "Netlist.inductor: henries must be positive";
  add t (Inductor { name = name_or t "L" name; n1; n2; henries })

let current_source t ?name n1 n2 amps =
  check_node t n1 "current_source";
  check_node t n2 "current_source";
  add t (Current_source { name = name_or t "I" name; n1; n2; amps })

let nonlinear t nl =
  Array.iter (fun n -> check_node t n "nonlinear") nl.nl_nodes;
  add t (Nonlinear nl)

let coupled_inductors t ?name branches ~lmat =
  let k = Array.length branches in
  if k = 0 then invalid_arg "Netlist.coupled_inductors: empty group";
  Array.iter
    (fun (n1, n2) ->
      check_node t n1 "coupled_inductors";
      check_node t n2 "coupled_inductors")
    branches;
  if Array.length lmat <> k then invalid_arg "Netlist.coupled_inductors: lmat dimension";
  Array.iteri
    (fun i row ->
      if Array.length row <> k then invalid_arg "Netlist.coupled_inductors: lmat not square";
      if row.(i) <= 0. then invalid_arg "Netlist.coupled_inductors: non-positive self inductance";
      let off = ref 0. in
      Array.iteri
        (fun j v ->
          if Float.abs (v -. lmat.(j).(i)) > 1e-12 *. Float.abs v then
            invalid_arg "Netlist.coupled_inductors: lmat not symmetric";
          if j <> i then off := !off +. Float.abs v)
        row;
      if !off > row.(i) then
        invalid_arg "Netlist.coupled_inductors: lmat not diagonally dominant (non-passive)")
    lmat;
  add t
    (Coupled_inductors
       {
         cp_name = name_or t "K" name;
         cp_branches = Array.copy branches;
         cp_lmat = Array.map Array.copy lmat;
       })

let coupled_pair t ?name (a1, b1) l1 (a2, b2) l2 ~k =
  if k < 0. || k >= 1. then invalid_arg "Netlist.coupled_pair: k must be in [0, 1)";
  if l1 <= 0. || l2 <= 0. then invalid_arg "Netlist.coupled_pair: inductances must be positive";
  let m = k *. Float.sqrt (l1 *. l2) in
  coupled_inductors t ?name [| (a1, b1); (a2, b2) |] ~lmat:[| [| l1; m |]; [| m; l2 |] |]

let force t ~breakpoints ~flat n f =
  check_node t n "force_voltage";
  if n = ground then invalid_arg "Netlist.force_voltage: cannot force ground";
  if List.mem_assoc n t.forced then invalid_arg "Netlist.force_voltage: node already forced";
  List.iter
    (fun b ->
      if not (Float.is_finite b) then
        invalid_arg "Netlist.force_voltage: breakpoints must be finite")
    breakpoints;
  t.forced <- (n, f) :: t.forced;
  t.flat_after <- Float.max t.flat_after flat;
  if breakpoints <> [] then t.breakpoints <- List.rev_append breakpoints t.breakpoints

(* A closure's future is opaque: it may move at any time. *)
let force_voltage t ?(breakpoints = []) n f = force t ~breakpoints ~flat:Float.infinity n f

(* A PWL holds its last value from its last point on. *)
let force_pwl t n pwl =
  force t ~breakpoints:(List.map fst (Pwl.points pwl)) ~flat:(Pwl.end_time pwl) n (Pwl.eval pwl)

let elements t = List.rev t.elems
let forced t = List.rev t.forced
let breakpoints t = List.sort_uniq Float.compare t.breakpoints
let flat_after t = t.flat_after

let element_nodes = function
  | Resistor { n1; n2; _ } | Capacitor { n1; n2; _ } | Inductor { n1; n2; _ }
  | Current_source { n1; n2; _ } ->
      [ n1; n2 ]
  | Coupled_inductors { cp_branches; _ } ->
      Array.to_list cp_branches |> List.concat_map (fun (a, b) -> [ a; b ])
  | Nonlinear { nl_nodes; _ } -> Array.to_list nl_nodes

let validate t =
  (* Flood-fill from ground and forced nodes over element connectivity. *)
  let seen = Array.make t.n_nodes false in
  seen.(ground) <- true;
  List.iter (fun (n, _) -> seen.(n) <- true) t.forced;
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun e ->
        let ns = element_nodes e in
        if List.exists (fun n -> seen.(n)) ns then
          List.iter
            (fun n ->
              if not seen.(n) then begin
                seen.(n) <- true;
                changed := true
              end)
            ns)
      t.elems
  done;
  for n = 0 to t.n_nodes - 1 do
    if not seen.(n) then failwith (Printf.sprintf "Netlist.validate: node %s is floating" (node_name t n))
  done

let pp_summary fmt t =
  let r = ref 0 and c = ref 0 and l = ref 0 and i = ref 0 and nl = ref 0 and k = ref 0 in
  List.iter
    (function
      | Resistor _ -> incr r
      | Capacitor _ -> incr c
      | Inductor _ -> incr l
      | Current_source _ -> incr i
      | Coupled_inductors _ -> incr k
      | Nonlinear _ -> incr nl)
    t.elems;
  Format.fprintf fmt "netlist<%d nodes, %dR %dC %dL %dI %dK %d nonlinear, %d forced>" t.n_nodes
    !r !c !l !i !k !nl (List.length t.forced)
