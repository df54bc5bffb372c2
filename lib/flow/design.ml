module Spef = Rlc_spef.Spef
module Tree = Rlc_moments.Tree
module Line = Rlc_tline.Line
module Inverter = Rlc_devices.Inverter
module Obs = Rlc_obs.Obs
module Pool = Rlc_parallel.Pool

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

module SMap = Map.Make (String)
module ISet = Set.Make (Int)

(* A cross-net cap at its place in the file: the position of the block
   declaring it and its index among that block's coupling caps. *)
type term = { pos : int; k : int; cap : Spef.coupling_cap }

(* Node ownership, node -> net id.  [base] is filled by one full pass and
   never written again, so successive designs share it; [moved] holds the
   nodes of every block replaced since, and the [base] entries of the
   [replaced] nets no longer count.  Both are persistent: deriving a
   successor never changes this value. *)
type owners = {
  base : (string, int) Hashtbl.t;
  moved : int SMap.t;
  replaced : ISet.t;
  n_replaced : int;
}

(* What an ingest of an edited successor reuses: everything below is a
   function of the net universe, the edges and loads, and the node
   ownership, which a delta leaves alone or edits only block by block. *)
type index = {
  id_of : (string, int) Hashtbl.t;  (* read-only after the full pass *)
  pos_of : int array;  (* net id -> position of its block in the SPEF *)
  unique_blocks : bool;  (* no two SPEF blocks share a name *)
  driver_ids : int array;  (* the spec's driver lines, in order, as net ids *)
  input_ids : int array;  (* the spec's input lines, in order *)
  edges : (string * string * string) list;  (* the spec's, physically *)
  loads : (string * string * float) list;  (* the spec's, physically *)
  out_pins : (string * int) list array;  (* per net: (pin, driven net) of its edges *)
  fixed_loads : (string * float) list array;  (* per net: its explicit loads *)
  owners : owners;
  terms : term list array;  (* per coupling: the caps summed into it, in file order *)
  dangling : term list;  (* caps touching a node no design net owns, in file order *)
}

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

(* Per-net electrical view: everything but the graph fields is a function
   of the block and the loads folded into it. *)
let build ~id ~name ~size ~prim_slew ~fanin ~fanout ~level ~(block : Spef.dnet) ~loads =
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
     length-independent given totals, so the nominal 1 mm only feeds
     pretty-printing.  Degenerate R or L totals (single-node or RC-only
     nets) are clamped to keep the line constructible — a vanishing L
     makes Z0 ~ 0, which correctly drives Eq. 1's breakpoint to 0 and the
     Eq. 9 screen to "RC-like". *)
  let eq_line =
    Line.of_totals ~r:(Float.max 1e-6 r_tot) ~l:(Float.max 1e-16 l_tot) ~c:c_wire ~length:1e-3
  in
  let pade = Rlc_moments.Pade.fit (Rlc_moments.Moments.driving_point ~order:5 tree) in
  { id; name; size; root_pin; loads; tree; pade; eq_line; cl; fanin; fanout; level; prim_slew }

(* A net's receiver loads: the gate input cap of each net it drives, in
   edge order, then its explicit loads. *)
let loads_of ix tech size i =
  List.map
    (fun (pin, t) -> (pin, Inverter.input_cap (Inverter.make tech ~size:size.(t))))
    ix.out_pins.(i)
  @ ix.fixed_loads.(i)

let same_loads a b =
  List.equal (fun (p, x) (q, y) -> String.equal p q && Cache.same_bits x y) a b

(* Every node a block claims, in claim order: conn pins, grounded-cap
   nodes, branch endpoints. *)
let iter_nodes (d : Spef.dnet) f =
  List.iter (fun (c : Spef.conn) -> f c.Spef.pin) d.Spef.conns;
  List.iter (fun (c : Spef.ground_cap) -> f c.Spef.node) d.Spef.caps;
  List.iter
    (fun (b : Spef.branch) ->
      f b.Spef.n1;
      f b.Spef.n2)
    d.Spef.branches

(* Ownership from the grounded parasitics of [dnets] (indexed by net id); a
   node claimed by two different nets is a modeling error.  [claims]
   counts every claim made. *)
let owner_table ~claims names dnets =
  let owner =
    Hashtbl.create
      (Array.fold_left
         (fun acc (d : Spef.dnet) -> acc + List.length d.Spef.conns + List.length d.Spef.caps)
         16 dnets)
  in
  Array.iteri
    (fun i d ->
      iter_nodes d (fun node ->
          incr claims;
          match Hashtbl.find_opt owner node with
          | Some j when j <> i ->
              raise
                (Bad
                   (Printf.sprintf "node %s appears in both net %s and net %s" node names.(j)
                      names.(i)))
          | Some _ -> ()
          | None -> Hashtbl.add owner node i))
    dnets;
  owner

let owner_of o node =
  match SMap.find_opt node o.moved with
  | Some _ as j -> j
  | None -> (
      match Hashtbl.find_opt o.base node with
      | Some j when not (ISet.mem j o.replaced) -> Some j
      | _ -> None)

type reach = Pair of int * int | Self of int | Outside

let resolve owner (x : Spef.coupling_cap) =
  match (owner x.Spef.x_node1, owner x.Spef.x_node2) with
  | Some a, Some b when a = b -> Self a
  | Some a, Some b -> Pair (Int.min a b, Int.max a b)
  | _ -> Outside

let by_place a b = if a.pos <> b.pos then Int.compare a.pos b.pos else Int.compare a.k b.k

let by_pair (x, _) (y, _) =
  if x.net_a <> y.net_a then Int.compare x.net_a y.net_a else Int.compare x.net_b y.net_b

(* A pair's capacitance sums its caps in file order, as a scan of the file
   does, so an unchanged set of caps gives the same bits. *)
let coupling_of (a, b) terms =
  let cc = List.fold_left (fun acc t -> acc +. t.cap.Spef.x_farads) 0. terms in
  ({ net_a = a; net_b = b; cc }, terms)

(* SPEF blocks by name, first block of a name winning (as a scan would
   find it). *)
let blocks_by_name (spef : Spef.t) =
  let t = Hashtbl.create (2 * List.length spef.Spef.nets) in
  List.iter
    (fun (d : Spef.dnet) ->
      if not (Hashtbl.mem t d.Spef.net_name) then Hashtbl.add t d.Spef.net_name d)
    spef.Spef.nets;
  t

(* The index parts only a resident design needs, from the sources a full
   pass accepted: block positions, spec line order, per-net edges and
   loads. *)
let index_of ~n ~id_of ~owner ~terms ~dangling ~(spef : Spef.t) ~(spec : Spec.t) =
  let pos_of = Array.make n (-1) and unique_blocks = ref true in
  List.iteri
    (fun pos (d : Spef.dnet) ->
      match Hashtbl.find_opt id_of d.Spef.net_name with
      | Some i when pos_of.(i) < 0 -> pos_of.(i) <- pos
      | Some _ -> unique_blocks := false
      | None -> ())
    spef.Spef.nets;
  let ids lines = Array.of_list (List.map (fun (name, _) -> Hashtbl.find id_of name) lines) in
  let out_pins = Array.make n [] and fixed_loads = Array.make n [] in
  List.iter
    (fun (from_net, pin, to_net) ->
      let f = Hashtbl.find id_of from_net in
      out_pins.(f) <- (pin, Hashtbl.find id_of to_net) :: out_pins.(f))
    (List.rev spec.Spec.edges);
  List.iter
    (fun (name, pin, farads) ->
      let i = Hashtbl.find id_of name in
      fixed_loads.(i) <- (pin, farads) :: fixed_loads.(i))
    (List.rev spec.Spec.loads);
  {
    id_of;
    pos_of;
    unique_blocks = !unique_blocks;
    driver_ids = ids spec.Spec.drivers;
    input_ids = ids spec.Spec.inputs;
    edges = spec.Spec.edges;
    loads = spec.Spec.loads;
    out_pins;
    fixed_loads;
    owners = { base = owner; moved = SMap.empty; replaced = ISet.empty; n_replaced = 0 };
    terms;
    dangling;
  }

(* Nets a pool job builds: a net's tree and Pade fit take a few
   microseconds, so a job of this many outweighs its scheduling. *)
let build_chunk = 16

(* The full pass, a cold ingest: every net, every node and every coupling
   cap.  The per-net builds run as jobs of [pool] (the lowest failing id's
   error is raised, as a build in id order raises it); the rest runs on
   the calling domain.  Returns the design and a thunk building its
   index. *)
let full ~obs ~pool ~tech ~(spef : Spef.t) ~(spec : Spec.t) =
  (* Net universe: the spec's driver lines, sorted by name for stable ids. *)
  let names = Array.of_list (List.sort String.compare (List.map fst spec.Spec.drivers)) in
  let id_of = Hashtbl.create (2 * Array.length names) in
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
            (Bad (Printf.sprintf "net %s has no slew source (neither input nor edge)" names.(i)))
      | Some _, Some _ ->
          raise (Bad (Printf.sprintf "net %s is both a primary input and edge-driven" names.(i)))
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
  let nets =
    Pool.init (Pool.borrow ?pool ()) ~chunk:build_chunk n (fun i ->
        build ~id:i ~name:names.(i) ~size:size.(i) ~prim_slew:prim.(i) ~fanin:fanin.(i)
          ~fanout:(List.sort Int.compare fanout.(i))
          ~level:level.(i) ~block:dnets.(i) ~loads:(List.rev extra.(i)))
  in
  let max_level = Array.fold_left (fun acc net -> Int.max acc net.level) 0 nets in
  let levels =
    Array.init (max_level + 1) (fun l ->
        Array.of_list
          (List.filter_map
             (fun net -> if net.level = l then Some net.id else None)
             (Array.to_list nets)))
  in
  let sizes = List.sort_uniq Float.compare (Array.to_list size) in
  (* Coupling graph: resolve each cross-net cap's endpoints to the design
     nets owning those nodes.  Ownership comes from the grounded parasitics
     (conn pins, grounded-cap nodes, branch endpoints); a node claimed by
     two different nets is a modeling error.  Couplings touching a net the
     design does not time (driverless SPEF nets) are logged and skipped,
     matching how such nets are ignored above. *)
  let claims = ref 0 in
  let owner = owner_table ~claims names dnets in
  let pair_terms = Hashtbl.create 16 and dangling = ref [] in
  List.iteri
    (fun pos (d : Spef.dnet) ->
      List.iteri
        (fun k (x : Spef.coupling_cap) ->
          let term = { pos; k; cap = x } in
          match resolve (Hashtbl.find_opt owner) x with
          | Self a ->
              raise
                (Bad
                   (Printf.sprintf "coupling cap %s-%s joins net %s to itself" x.Spef.x_node1
                      x.Spef.x_node2 names.(a)))
          | Pair (a, b) ->
              Hashtbl.replace pair_terms (a, b)
                (term :: Option.value (Hashtbl.find_opt pair_terms (a, b)) ~default:[])
          | Outside ->
              Log.info (fun m ->
                  m "coupling cap %s-%s touches a net outside the design; ignored" x.Spef.x_node1
                    x.Spef.x_node2);
              dangling := term :: !dangling)
        d.Spef.x_caps)
    spef.Spef.nets;
  let pairs =
    Hashtbl.fold (fun key terms acc -> coupling_of key (List.rev terms) :: acc) pair_terms []
    |> List.sort by_pair |> Array.of_list
  in
  Obs.add obs "design.nodes_claimed" !claims;
  let couplings = Array.map fst pairs in
  ( { design_name = spef.Spef.design; tech; nets; levels; sizes; couplings },
    fun () ->
      index_of ~n ~id_of ~owner ~terms:(Array.map snd pairs) ~dangling:(List.rev !dangling) ~spef
        ~spec )

exception Stale

(* The coupling graph after the blocks [replaced] ([(position, old, new)])
   changed and ownership went from [old_owner] to [new_owner].  A pair can
   change only when one of its caps is touched: declared in a replaced
   block, or ending on a node of an edited net's old or new block
   ([touch]).  Such caps resolve, under either ownership, to a pair with an
   edited net ([edited]) or to nothing, except the caps a replaced block
   declares between other nets; so the affected pairs are the previous
   pairs of edited nets, the old pairs of the replaced blocks' caps, and
   the new pairs of every touched cap.  Each affected pair is re-summed
   from its untouched caps and its touched caps' new versions, in file
   order; every other pair keeps its value. *)
let recouple ~old_owner ~new_owner ~edited ~touch ~replaced (prev : t) ix =
  let replaced_at pos = List.exists (fun (p, _, _) -> p = pos) replaced in
  let touched t =
    replaced_at t.pos
    || Hashtbl.mem (Lazy.force touch) t.cap.Spef.x_node1
    || Hashtbl.mem (Lazy.force touch) t.cap.Spef.x_node2
  in
  let affected = Hashtbl.create 16 and fresh = Hashtbl.create 16 in
  let add key t =
    Hashtbl.replace fresh key (t :: Option.value (Hashtbl.find_opt fresh key) ~default:[])
  in
  let dangling = ref (List.filter (fun t -> not (touched t)) ix.dangling) in
  let place t =
    match resolve new_owner t.cap with
    | Pair (a, b) ->
        Hashtbl.replace affected (a, b) ();
        add (a, b) t
    | Outside -> dangling := t :: !dangling
    | Self _ -> raise Stale
  in
  List.iter
    (fun (pos, (o : Spef.dnet), (d : Spef.dnet)) ->
      List.iter
        (fun x ->
          match resolve old_owner x with
          | Pair (a, b) -> Hashtbl.replace affected (a, b) ()
          | Self _ | Outside -> ())
        o.Spef.x_caps;
      List.iteri (fun k cap -> place { pos; k; cap }) d.Spef.x_caps)
    replaced;
  let touched_elsewhere t = touched t && not (replaced_at t.pos) in
  Array.iteri
    (fun q (c : coupling) ->
      if ISet.mem c.net_a edited || ISet.mem c.net_b edited then begin
        Hashtbl.replace affected (c.net_a, c.net_b) ();
        List.iter (fun t -> if touched_elsewhere t then place t) ix.terms.(q)
      end)
    prev.couplings;
  List.iter (fun t -> if touched_elsewhere t then place t) ix.dangling;
  let kept = ref [] in
  Array.iteri
    (fun q (c : coupling) ->
      let key = (c.net_a, c.net_b) in
      if Hashtbl.mem affected key then
        List.iter (fun t -> if not (touched t) then add key t) ix.terms.(q)
      else kept := (c, ix.terms.(q)) :: !kept)
    prev.couplings;
  let pairs =
    Hashtbl.fold
      (fun key terms acc -> coupling_of key (List.sort by_place terms) :: acc)
      fresh !kept
    |> List.sort by_pair |> Array.of_list
  in
  (Array.map fst pairs, Array.map snd pairs, List.sort by_place !dangling)

(* The ingest of an edited successor of [prev] in time proportional to the
   edit, or [Stale] when these sources are not provably [prev]'s with
   values and whole blocks changed.  The net universe, the edges and loads
   and the SPEF's block order must be [prev]'s; then ids, connectivity and
   levels are too, and only these nets can move: those whose block was
   replaced, whose size or primary slew changed, and the drivers of
   resized nets (their trees fold the resized gate's input cap).  Only
   the replaced blocks' nodes are claimed. *)
let incremental ~obs ~tech (prev : t) ix (prev_spef : Spef.t) ~(spef : Spef.t) ~(spec : Spec.t) =
  let n = Array.length prev.nets in
  if
    not
      (tech == prev.tech && ix.unique_blocks
      && spec.Spec.edges == ix.edges
      && spec.Spec.loads == ix.loads)
  then raise Stale;
  let size = Array.make n 0. and prim = Array.make n None in
  let same_lines ids lines set =
    let k =
      List.fold_left
        (fun k (name, v) ->
          if k >= Array.length ids || not (String.equal name prev.nets.(ids.(k)).name) then
            raise Stale;
          set ids.(k) v;
          k + 1)
        0 lines
    in
    if k <> Array.length ids then raise Stale
  in
  same_lines ix.driver_ids spec.Spec.drivers (fun i s -> size.(i) <- s);
  same_lines ix.input_ids spec.Spec.inputs (fun i s -> prim.(i) <- Some s);
  let touched = Array.make n false and resized = ref false in
  Array.iteri
    (fun i (p : net) ->
      if not (Cache.same_bits size.(i) p.size) then begin
        resized := true;
        touched.(i) <- true;
        Option.iter (fun f -> touched.(f) <- true) p.fanin
      end;
      if not (Option.equal Cache.same_bits prim.(i) p.prim_slew) then touched.(i) <- true)
    prev.nets;
  let rec walk pos acc olds news =
    match (olds, news) with
    | [], [] -> List.rev acc
    | (o : Spef.dnet) :: olds, (d : Spef.dnet) :: news ->
        if o == d then walk (pos + 1) acc olds news
        else if String.equal o.Spef.net_name d.Spef.net_name then
          walk (pos + 1) ((pos, o, d) :: acc) olds news
        else raise Stale
    | _ -> raise Stale
  in
  let replaced = walk 0 [] prev_spef.Spef.nets spef.Spef.nets in
  (* The replaced blocks of design nets, as (id, old, new). *)
  let edited =
    List.filter_map
      (fun (_, o, (d : Spef.dnet)) ->
        Option.map (fun i -> (i, o, d)) (Hashtbl.find_opt ix.id_of d.Spef.net_name))
      replaced
  in
  List.iter (fun (i, _, _) -> touched.(i) <- true) edited;
  let nets = Array.copy prev.nets in
  Array.iteri
    (fun i t ->
      if t then begin
        let p = prev.nets.(i) and loads = loads_of ix tech size i in
        let rebuild block =
          build ~id:i ~name:p.name ~size:size.(i) ~prim_slew:prim.(i) ~fanin:p.fanin
            ~fanout:p.fanout ~level:p.level ~block ~loads
        in
        nets.(i) <-
          (match List.find_opt (fun (j, _, _) -> j = i) edited with
          | Some (_, _, block) -> rebuild block
          | None when not (same_loads p.loads loads) ->
              rebuild (List.nth spef.Spef.nets ix.pos_of.(i))
          | None ->
              if
                Cache.same_bits p.size size.(i)
                && Option.equal Cache.same_bits p.prim_slew prim.(i)
              then p
              else { p with size = size.(i); prim_slew = prim.(i) })
      end)
    touched;
  (* Ownership: drop the edited nets' old nodes, then claim their new ones;
     a node another net owns is a conflict the full pass reports. *)
  let claims = ref 0 in
  let o = ix.owners in
  let owners =
    if edited = [] then o
    else begin
      let moved =
        List.fold_left
          (fun moved (i, old, _) ->
            let m = ref moved in
            iter_nodes old (fun node ->
                match SMap.find_opt node !m with
                | Some j when j = i -> m := SMap.remove node !m
                | _ -> ());
            !m)
          o.moved edited
      in
      let replaced_ids, n_replaced =
        List.fold_left
          (fun (s, c) (i, _, _) -> if ISet.mem i s then (s, c) else (ISet.add i s, c + 1))
          (o.replaced, o.n_replaced) edited
      in
      let o = ref { o with moved; replaced = replaced_ids; n_replaced } in
      List.iter
        (fun (i, _, d) ->
          iter_nodes d (fun node ->
              incr claims;
              match owner_of !o node with
              | Some j when j <> i -> raise Stale
              | Some _ -> ()
              | None -> o := { !o with moved = SMap.add node i !o.moved }))
        edited;
      !o
    end
  in
  let edited_ids = List.fold_left (fun s (i, _, _) -> ISet.add i s) ISet.empty edited in
  let couplings, terms, dangling =
    if replaced = [] then (prev.couplings, ix.terms, ix.dangling)
    else
      let touch =
        lazy
          (let h = Hashtbl.create 64 in
           List.iter
             (fun (_, old, d) ->
               iter_nodes old (fun node -> Hashtbl.replace h node ());
               iter_nodes d (fun node -> Hashtbl.replace h node ()))
             edited;
           h)
      in
      recouple ~old_owner:(owner_of o) ~new_owner:(owner_of owners) ~edited:edited_ids ~touch
        ~replaced prev ix
  in
  (* Once a quarter of the nets sit in the overlay, fold it into a new base. *)
  let owners =
    if 4 * owners.n_replaced <= n then owners
    else
      let blocks = Array.of_list spef.Spef.nets in
      let base =
        owner_table ~claims
          (Array.map (fun (net : net) -> net.name) nets)
          (Array.map (fun pos -> blocks.(pos)) ix.pos_of)
      in
      { base; moved = SMap.empty; replaced = ISet.empty; n_replaced = 0 }
  in
  Obs.add obs "design.nodes_claimed" !claims;
  ( {
      design_name = spef.Spef.design;
      tech;
      nets;
      levels = prev.levels;
      sizes =
        (if !resized then
           List.sort_uniq Float.compare
             (Array.to_list (Array.map (fun (net : net) -> net.size) nets))
         else prev.sizes);
      couplings;
    },
    { ix with owners; terms; dangling } )

let ingest_resident ?(tech = Rlc_devices.Tech.c018) ?(obs = Obs.null) ?pool ?prev ~spef ~spec () =
  Obs.layer obs "design.ingest" (fun () ->
      let quick =
        match prev with
        | None -> None
        | Some (p, ix, prev_spef) -> (
            try Some (incremental ~obs ~tech p ix prev_spef ~spef ~spec)
            with Stale | Bad _ | Invalid_argument _ | Failure _ | Not_found -> None)
      in
      match quick with
      | Some r -> Ok r
      | None -> (
          match full ~obs ~pool ~tech ~spef ~spec with
          | design, index -> Ok (design, index ())
          | exception Bad msg -> Error msg))

let ingest ?(tech = Rlc_devices.Tech.c018) ?(obs = Obs.null) ?pool ~spef ~spec () =
  Obs.layer obs "design.ingest" (fun () ->
      match full ~obs ~pool ~tech ~spef ~spec with
      | design, _ -> Ok design
      | exception Bad msg -> Error msg)

let n_nets t = Array.length t.nets

let pp fmt t =
  Format.fprintf fmt "design<%s: %d nets, %d levels, %d couplings, sizes %s>" t.design_name
    (Array.length t.nets) (Array.length t.levels) (Array.length t.couplings)
    (String.concat "," (List.map (Printf.sprintf "%gX") t.sizes))
