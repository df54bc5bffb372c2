module Spef = Rlc_spef.Spef
module Tree = Rlc_moments.Tree
module Line = Rlc_tline.Line
module Inverter = Rlc_devices.Inverter

let src = Logs.Src.create "rlc.flow.design" ~doc:"full-design ingest"

module Log = (val Logs.src_log src : Logs.LOG)

type net = {
  id : int;
  name : string;
  size : float;
  root_pin : string;
  loads : (string * float) list;
  tree : Tree.t;
  pade : Rlc_moments.Pade.t;
  eq_line : Line.t;
  cl : float;
  fanin : int option;
  fanout : int list;
  level : int;
  prim_slew : float option;
}

type coupling = { net_a : int; net_b : int; cc : float }

type t = {
  design_name : string;
  tech : Rlc_devices.Tech.t;
  nets : net array;
  levels : int array array;
  sizes : float list;
  couplings : coupling array;
}

(* Total series R and L of a net, with parallel branches between the same
   node pair merged exactly as {!Spef.to_tree} merges them. *)
let branch_totals (dnet : Spef.dnet) =
  let key a b = if a <= b then (a, b) else (b, a) in
  let merged = Hashtbl.create 16 in
  List.iter
    (fun (b : Spef.branch) ->
      let k = key b.Spef.n1 b.Spef.n2 in
      let r, l = Option.value (Hashtbl.find_opt merged k) ~default:(0., 0.) in
      match b.Spef.kind with
      | Spef.Res ->
          let r' = if r = 0. then b.Spef.value else r *. b.Spef.value /. (r +. b.Spef.value) in
          Hashtbl.replace merged k (r', l)
      | Spef.Induc ->
          let l' = if l = 0. then b.Spef.value else l *. b.Spef.value /. (l +. b.Spef.value) in
          Hashtbl.replace merged k (r, l'))
    dnet.Spef.branches;
  Hashtbl.fold (fun _ (r, l) (tr, tl) -> (tr +. r, tl +. l)) merged (0., 0.)

exception Bad of string

(* A previous record, built from the very same parsed block, stands for
   the net exactly when everything else it was built from is provably the
   same: a bit-equal driver size and primary slew, the same connectivity,
   and the same receiver loads folded into the tree.  Tree, Pade fit,
   equivalent line and [cl] are functions of the block and the loads
   alone. *)
let reusable (p : net) ~name ~size ~prim_slew ~fanin ~fanout ~level ~loads =
  String.equal p.name name
  && Cache.same_bits p.size size
  && Option.equal Cache.same_bits p.prim_slew prim_slew
  && Option.equal Int.equal p.fanin fanin
  && List.equal Int.equal p.fanout fanout
  && p.level = level
  && List.equal (fun (a, x) (b, y) -> String.equal a b && Cache.same_bits x y) p.loads loads

(* SPEF blocks by name, first block of a name winning (as a scan would
   find it). *)
let blocks_by_name (spef : Spef.t) =
  let t = Hashtbl.create (2 * List.length spef.Spef.nets) in
  List.iter
    (fun (d : Spef.dnet) ->
      if not (Hashtbl.mem t d.Spef.net_name) then Hashtbl.add t d.Spef.net_name d)
    spef.Spef.nets;
  t

let ingest ?(tech = Rlc_devices.Tech.c018) ?prev ~spef ~spec () =
  try
    (* Net universe: the spec's driver lines, sorted by name for stable ids. *)
    let names = Array.of_list (List.sort compare (List.map fst spec.Spec.drivers)) in
    let id_of = Hashtbl.create 16 in
    Array.iteri (fun i n -> Hashtbl.replace id_of n i) names;
    let n = Array.length names in
    let lookup what name =
      match Hashtbl.find_opt id_of name with
      | Some i -> i
      | None -> raise (Bad (Printf.sprintf "%s references net %s with no driver line" what name))
    in
    let block_of = blocks_by_name spef in
    List.iter
      (fun (d : Spef.dnet) ->
        if not (Hashtbl.mem id_of d.Spef.net_name) then
          Log.info (fun m -> m "SPEF net %s has no driver line; ignored" d.Spef.net_name))
      spef.Spef.nets;
    let dnets =
      Array.map
        (fun name ->
          match Hashtbl.find_opt block_of name with
          | Some d -> d
          | None -> raise (Bad (Printf.sprintf "net %s is not in the SPEF file" name)))
        names
    in
    let size = Array.make n 0. in
    List.iter (fun (name, s) -> size.(lookup "driver" name) <- s) spec.Spec.drivers;
    (* Connectivity. *)
    let prim = Array.make n None and fanin = Array.make n None in
    let fanout = Array.make n [] and extra = Array.make n [] in
    List.iter
      (fun (name, slew) -> prim.(lookup "input" name) <- Some slew)
      spec.Spec.inputs;
    List.iter
      (fun (from_net, pin, to_net) ->
        let f = lookup "edge" from_net and t = lookup "edge" to_net in
        (match fanin.(t) with
        | Some _ -> raise (Bad (Printf.sprintf "net %s is driven by more than one edge" to_net))
        | None -> fanin.(t) <- Some f);
        fanout.(f) <- t :: fanout.(f);
        extra.(f) <- (pin, Inverter.input_cap (Inverter.make tech ~size:size.(t))) :: extra.(f))
      spec.Spec.edges;
    List.iter
      (fun (name, pin, farads) ->
        let i = lookup "load" name in
        extra.(i) <- (pin, farads) :: extra.(i))
      spec.Spec.loads;
    Array.iteri
      (fun i p ->
        match (p, fanin.(i)) with
        | None, None ->
            raise
              (Bad
                 (Printf.sprintf "net %s has no slew source (neither input nor edge)" names.(i)))
        | Some _, Some _ ->
            raise
              (Bad (Printf.sprintf "net %s is both a primary input and edge-driven" names.(i)))
        | _ -> ())
      prim;
    (* Levelize along the single-fanin chains; a net still unlevelled after
       following its ancestry is on a combinational cycle. *)
    let level = Array.make n (-1) in
    let rec level_of i seen =
      if level.(i) >= 0 then level.(i)
      else if List.mem i seen then
        raise (Bad (Printf.sprintf "combinational cycle through net %s" names.(i)))
      else begin
        let l = match fanin.(i) with None -> 0 | Some p -> 1 + level_of p (i :: seen) in
        level.(i) <- l;
        l
      end
    in
    for i = 0 to n - 1 do
      ignore (level_of i [])
    done;
    (* Per-net electrical view. *)
    let build i ~block ~loads ~fanout =
      let name = names.(i) in
      let root_pin =
        match Spef.driver_conn block with Ok c -> c.Spef.pin | Error e -> raise (Bad e)
      in
      let tree =
        match Spef.to_tree ~extra_caps:loads block ~root:root_pin with
        | Ok t -> t
        | Error e -> raise (Bad e)
      in
      let cl = List.fold_left (fun acc (_, c) -> acc +. c) 0. loads in
      let r_tot, l_tot = branch_totals block in
      let c_wire = Spef.net_total_cap block in
      if c_wire <= 0. then
        raise (Bad (Printf.sprintf "net %s has no grounded wire capacitance" name));
      (* Equivalent uniform line for Z0 / tf / the screen; both are
         length-independent given totals, so the nominal 1 mm only
         feeds pretty-printing.  Degenerate R or L totals (single-node
         or RC-only nets) are clamped to keep the line constructible —
         a vanishing L makes Z0 ~ 0, which correctly drives Eq. 1's
         breakpoint to 0 and the Eq. 9 screen to "RC-like". *)
      let eq_line =
        Line.of_totals ~r:(Float.max 1e-6 r_tot) ~l:(Float.max 1e-16 l_tot) ~c:c_wire
          ~length:1e-3
      in
      let pade = Rlc_moments.Pade.fit (Rlc_moments.Moments.driving_point ~order:5 tree) in
      {
        id = i;
        name;
        size = size.(i);
        root_pin;
        loads;
        tree;
        pade;
        eq_line;
        cl;
        fanin = fanin.(i);
        fanout;
        level = level.(i);
        prim_slew = prim.(i);
      }
    in
    (* The previous record of net [i] when it was built from this very
       block.  The blocks are looked up in the previous SPEF, not kept in
       the design, so a design never holds its parsed SPEF alive. *)
    let prev_record =
      match prev with
      | None -> fun _ _ -> None
      | Some (prev, prev_spef) ->
          let prev_block_of = blocks_by_name prev_spef in
          fun i block ->
            match Hashtbl.find_opt prev_block_of names.(i) with
            | Some b when b == block && i < Array.length prev.nets -> Some prev.nets.(i)
            | _ -> None
    in
    let nets =
      Array.init n (fun i ->
          let block = dnets.(i) and loads = List.rev extra.(i) in
          let fanout = List.sort compare fanout.(i) in
          match prev_record i block with
          | Some p
            when reusable p ~name:names.(i) ~size:size.(i) ~prim_slew:prim.(i)
                   ~fanin:fanin.(i) ~fanout ~level:level.(i) ~loads ->
              p
          | _ -> build i ~block ~loads ~fanout)
    in
    let max_level = Array.fold_left (fun acc net -> Int.max acc net.level) 0 nets in
    let levels =
      Array.init (max_level + 1) (fun l ->
          Array.of_list
            (List.filter_map
               (fun net -> if net.level = l then Some net.id else None)
               (Array.to_list nets)))
    in
    let sizes =
      List.sort_uniq compare (Array.to_list (Array.map (fun net -> net.size) nets))
    in
    (* Coupling graph: resolve each cross-net cap's endpoints to the design
       nets owning those nodes.  Ownership comes from the grounded parasitics
       (conn pins, grounded-cap nodes, branch endpoints); a node claimed by
       two different nets is a modeling error.  Couplings touching a net the
       design does not time (driverless SPEF nets) are logged and skipped,
       matching how such nets are ignored above. *)
    let owner =
      Hashtbl.create
        (Array.fold_left
           (fun acc (d : Spef.dnet) -> acc + List.length d.Spef.conns + List.length d.Spef.caps)
           16 dnets)
    in
    let claim i node =
      match Hashtbl.find_opt owner node with
      | Some j when j <> i ->
          raise
            (Bad
               (Printf.sprintf "node %s appears in both net %s and net %s" node
                  names.(j) names.(i)))
      | Some _ -> ()
      | None -> Hashtbl.add owner node i
    in
    Array.iteri
      (fun i (d : Spef.dnet) ->
        List.iter (fun (c : Spef.conn) -> claim i c.Spef.pin) d.Spef.conns;
        List.iter (fun (c : Spef.ground_cap) -> claim i c.Spef.node) d.Spef.caps;
        List.iter
          (fun (b : Spef.branch) ->
            claim i b.Spef.n1;
            claim i b.Spef.n2)
          d.Spef.branches)
      dnets;
    let pair_cc = Hashtbl.create 16 in
    List.iter
      (fun (d : Spef.dnet) ->
        List.iter
          (fun (x : Spef.coupling_cap) ->
            match (Hashtbl.find_opt owner x.Spef.x_node1, Hashtbl.find_opt owner x.Spef.x_node2) with
            | Some a, Some b when a = b ->
                raise
                  (Bad
                     (Printf.sprintf "coupling cap %s-%s joins net %s to itself" x.Spef.x_node1
                        x.Spef.x_node2 names.(a)))
            | Some a, Some b ->
                let k = (Int.min a b, Int.max a b) in
                Hashtbl.replace pair_cc k
                  (Option.value (Hashtbl.find_opt pair_cc k) ~default:0. +. x.Spef.x_farads)
            | _ ->
                Log.info (fun m ->
                    m "coupling cap %s-%s touches a net outside the design; ignored"
                      x.Spef.x_node1 x.Spef.x_node2))
          d.Spef.x_caps)
      spef.Spef.nets;
    let couplings =
      Hashtbl.fold (fun (a, b) cc acc -> { net_a = a; net_b = b; cc } :: acc) pair_cc []
      |> List.sort (fun x y -> compare (x.net_a, x.net_b) (y.net_a, y.net_b))
      |> Array.of_list
    in
    Ok { design_name = spef.Spef.design; tech; nets; levels; sizes; couplings }
  with Bad msg -> Error msg

let n_nets t = Array.length t.nets

let pp fmt t =
  Format.fprintf fmt "design<%s: %d nets, %d levels, %d couplings, sizes %s>" t.design_name
    (Array.length t.nets) (Array.length t.levels) (Array.length t.couplings)
    (String.concat "," (List.map (Printf.sprintf "%gX") t.sizes))
