type units = { t_scale : float; c_scale : float; r_scale : float; l_scale : float }

type direction = Input | Output | Bidir

type conn = { pin : string; dir : direction }

type branch_kind = Res | Induc

type branch = { b_id : int; kind : branch_kind; n1 : string; n2 : string; value : float }

type ground_cap = { c_id : int; node : string; farads : float }

type coupling_cap = { x_id : int; x_node1 : string; x_node2 : string; x_farads : float }

type dnet = {
  net_name : string;
  total_cap : float;
  conns : conn list;
  caps : ground_cap list;
  x_caps : coupling_cap list;
  branches : branch list;
}

type t = { design : string; units : units; nets : dnet list }

let default_units = { t_scale = 1e-12; c_scale = 1e-15; r_scale = 1.; l_scale = 1e-12 }

(* ------------------------------------------------------------- parsing *)

exception Err of int * string

let scale_of_suffix lineno = function
  | "S" -> 1.
  | "MS" -> 1e-3
  | "US" -> 1e-6
  | "NS" -> 1e-9
  | "PS" -> 1e-12
  | "F" -> 1.
  | "UF" -> 1e-6
  | "NF" -> 1e-9
  | "PF" -> 1e-12
  | "FF" -> 1e-15
  | "OHM" -> 1.
  | "KOHM" -> 1e3
  | "HENRY" -> 1.
  | "MH" -> 1e-3
  | "UH" -> 1e-6
  | "NH" -> 1e-9
  | "PH" -> 1e-12
  | u -> raise (Err (lineno, "unknown unit " ^ u))

let float_of lineno s =
  match float_of_string_opt s with
  | Some f -> f
  | None -> raise (Err (lineno, "expected a number, got " ^ s))

let int_of lineno s =
  match int_of_string_opt s with
  | Some i -> i
  | None -> raise (Err (lineno, "expected an integer id, got " ^ s))

let unquote s =
  let n = String.length s in
  if n >= 2 && s.[0] = '"' && s.[n - 1] = '"' then String.sub s 1 (n - 2) else s

type section = S_none | S_conn | S_cap | S_res | S_induc

let is_blank c = c = ' ' || c = '\t' || c = '\r'

(* The tokens of [src]'s bytes [lo, hi): the maximal runs of bytes other
   than ' ', '\t' and '\r', in order. *)
let tokens src lo hi =
  let acc = ref [] and i = ref lo in
  while !i < hi do
    if is_blank src.[!i] then incr i
    else begin
      let start = !i in
      while !i < hi && not (is_blank src.[!i]) do
        incr i
      done;
      acc := String.sub src start (!i - start) :: !acc
    end
  done;
  List.rev !acc

(* Call [f lineno toks] on every line of [src] in order, and return the
   number of lines.  Lines are separated by '\n' (a trailing one opens an
   empty last line); a line is cut at its first '/' when the next byte is
   another '/' (only the first '/' of a line can open a comment).  No
   line is copied, only its tokens. *)
let iter_lines src f =
  let n = String.length src in
  let pos = ref 0 and lineno = ref 0 in
  while !pos <= n do
    incr lineno;
    let eol = ref !pos and slash = ref (-1) in
    while !eol < n && src.[!eol] <> '\n' do
      if !slash < 0 && src.[!eol] = '/' then slash := !eol;
      incr eol
    done;
    let stop = if !slash >= 0 && !slash + 1 < !eol && src.[!slash + 1] = '/' then !slash else !eol in
    f !lineno (tokens src !pos stop);
    pos := !eol + 1
  done;
  !lineno

(* One parser drives both entry points: [allow_header] distinguishes a
   full SPEF file (header directives legal, units default) from a bare
   [*D_NET] fragment re-parsed against the units of an already-loaded
   file (header directives are "unexpected token" errors there — a delta
   must not silently re-scale the design). *)
let run_parser ?file ~allow_header ~units:init_units src =
  let design = ref "" in
  let units = ref init_units in
  let nets = ref [] in
  (* The block under construction: its name and declared total, and its
     entries so far, newest first. *)
  let cur = ref None in
  let conns = ref [] and caps = ref [] and x_caps = ref [] and branches = ref [] in
  let section = ref S_none in
  (* Every finished block's name, so a duplicate is found in constant time. *)
  let finished = Hashtbl.create 64 in
  (* Coupling caps are keyed by their unordered node pair, globally: the same
     physical capacitor listed twice (in one section or under both nets it
     couples) is a modeling error, not a doubling. *)
  let x_seen = Hashtbl.create 16 in
  let finish_net lineno net_name total_cap =
    if Hashtbl.mem finished net_name then raise (Err (lineno, "duplicate *D_NET " ^ net_name));
    Hashtbl.add finished net_name ();
    nets :=
      {
        net_name;
        total_cap;
        conns = List.rev !conns;
        caps = List.rev !caps;
        x_caps = List.rev !x_caps;
        branches = List.rev !branches;
      }
      :: !nets;
    cur := None;
    conns := [];
    caps := [];
    x_caps := [];
    branches := [];
    section := S_none
  in
  try
    let n_lines =
      iter_lines src (fun lineno toks ->
          match (toks, !cur) with
          | [], _ -> ()
          | ( "*SPEF" :: _, _ | "*VERSION" :: _, _ | "*DATE" :: _, _ | "*VENDOR" :: _, _
            | "*PROGRAM" :: _, _ | "*DIVIDER" :: _, _ | "*DELIMITER" :: _, _
            | "*BUS_DELIMITER" :: _, _ )
            when allow_header ->
              ()
          | [ "*DESIGN"; name ], _ when allow_header -> design := unquote name
          | [ "*T_UNIT"; mult; unit ], _ when allow_header ->
              units := { !units with t_scale = float_of lineno mult *. scale_of_suffix lineno unit }
          | [ "*C_UNIT"; mult; unit ], _ when allow_header ->
              units := { !units with c_scale = float_of lineno mult *. scale_of_suffix lineno unit }
          | [ "*R_UNIT"; mult; unit ], _ when allow_header ->
              units := { !units with r_scale = float_of lineno mult *. scale_of_suffix lineno unit }
          | [ "*L_UNIT"; mult; unit ], _ when allow_header ->
              units := { !units with l_scale = float_of lineno mult *. scale_of_suffix lineno unit }
          | [ "*D_NET"; name; tc ], None ->
              cur := Some (name, float_of lineno tc *. !units.c_scale);
              section := S_none
          | "*D_NET" :: _, Some _ -> raise (Err (lineno, "nested *D_NET"))
          | [ "*CONN" ], Some _ -> section := S_conn
          | [ "*CAP" ], Some _ -> section := S_cap
          | [ "*RES" ], Some _ -> section := S_res
          | [ "*INDUC" ], Some _ -> section := S_induc
          | [ "*END" ], Some (name, tc) -> finish_net lineno name tc
          | "*K" :: _, Some _ | "*C" :: "*K" :: _, Some _ ->
              raise (Err (lineno, "mutual inductance (*K) is not supported"))
          | (("*P" | "*I") :: pin :: dir :: _), Some _ when !section = S_conn ->
              let dir =
                match dir with
                | "I" -> Input
                | "O" -> Output
                | "B" -> Bidir
                | d -> raise (Err (lineno, "unknown direction " ^ d))
              in
              conns := { pin; dir } :: !conns
          | [ id; node; value ], Some _ when !section = S_cap ->
              caps :=
                { c_id = int_of lineno id; node; farads = float_of lineno value *. !units.c_scale }
                :: !caps
          | [ id; n1; n2; value ], Some _ when !section = S_cap ->
              (* Four-token *CAP entry: a coupling capacitor between two nodes
                 (SPEF's cross-net "*C" construct in this subset). *)
              if n1 = n2 then
                raise (Err (lineno, "coupling capacitance with identical nodes " ^ n1));
              let pair = if n1 <= n2 then (n1, n2) else (n2, n1) in
              (match Hashtbl.find_opt x_seen pair with
              | Some first ->
                  raise
                    (Err
                       ( lineno,
                         Printf.sprintf "duplicate coupling capacitance %s-%s (first at line %d)"
                           n1 n2 first ))
              | None -> Hashtbl.add x_seen pair lineno);
              x_caps :=
                {
                  x_id = int_of lineno id;
                  x_node1 = n1;
                  x_node2 = n2;
                  x_farads = float_of lineno value *. !units.c_scale;
                }
                :: !x_caps
          | [ id; n1; n2; value ], Some _ when !section = S_res || !section = S_induc ->
              let kind, scale =
                if !section = S_res then (Res, !units.r_scale) else (Induc, !units.l_scale)
              in
              branches :=
                { b_id = int_of lineno id; kind; n1; n2; value = float_of lineno value *. scale }
                :: !branches
          | tok :: _, _ -> raise (Err (lineno, "unexpected token " ^ tok)))
    in
    (match !cur with
    | Some (name, _) -> raise (Err (n_lines, "unterminated *D_NET " ^ name))
    | None -> ());
    Ok { design = !design; units = !units; nets = List.rev !nets }
  with Err (lineno, msg) -> Error (Rlc_errors.Error.parse ?file ~line:lineno msg)

let parse_res ?file src = run_parser ?file ~allow_header:true ~units:default_units src

let parse_dnet_res ?file ~units src =
  match run_parser ?file ~allow_header:false ~units src with
  | Error _ as e -> e
  | Ok { nets = [ net ]; _ } -> Ok net
  | Ok { nets; _ } ->
      Error
        (Rlc_errors.Error.parse ?file ~line:1
           (Printf.sprintf "expected exactly one *D_NET block, got %d" (List.length nets)))

(* ------------------------------------------------------------ printing *)

let to_string t =
  let buf = Buffer.create 1024 in
  let p fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  p "*SPEF \"IEEE 1481-1998\"\n";
  p "*DESIGN \"%s\"\n" t.design;
  p "*T_UNIT %g PS\n" (t.units.t_scale /. 1e-12);
  p "*C_UNIT %g FF\n" (t.units.c_scale /. 1e-15);
  p "*R_UNIT %g OHM\n" t.units.r_scale;
  p "*L_UNIT %g PH\n\n" (t.units.l_scale /. 1e-12);
  List.iter
    (fun net ->
      p "*D_NET %s %.6g\n" net.net_name (net.total_cap /. t.units.c_scale);
      if net.conns <> [] then begin
        p "*CONN\n";
        List.iter
          (fun c ->
            p "*P %s %s\n" c.pin
              (match c.dir with Input -> "I" | Output -> "O" | Bidir -> "B"))
          net.conns
      end;
      if net.caps <> [] || net.x_caps <> [] then begin
        p "*CAP\n";
        List.iter (fun c -> p "%d %s %.6g\n" c.c_id c.node (c.farads /. t.units.c_scale)) net.caps;
        List.iter
          (fun x ->
            p "%d %s %s %.6g\n" x.x_id x.x_node1 x.x_node2 (x.x_farads /. t.units.c_scale))
          net.x_caps
      end;
      let res = List.filter (fun b -> b.kind = Res) net.branches in
      let ind = List.filter (fun b -> b.kind = Induc) net.branches in
      if res <> [] then begin
        p "*RES\n";
        List.iter (fun b -> p "%d %s %s %.6g\n" b.b_id b.n1 b.n2 (b.value /. t.units.r_scale)) res
      end;
      if ind <> [] then begin
        p "*INDUC\n";
        List.iter (fun b -> p "%d %s %s %.6g\n" b.b_id b.n1 b.n2 (b.value /. t.units.l_scale)) ind
      end;
      p "*END\n\n")
    t.nets;
  Buffer.contents buf

let find_net t name = List.find_opt (fun n -> n.net_name = name) t.nets

let net_total_cap net = List.fold_left (fun acc c -> acc +. c.farads) 0. net.caps

let driver_conn net =
  match List.filter (fun c -> c.dir = Output) net.conns with
  | [ c ] -> Ok c
  | [] -> Error (Printf.sprintf "net %s has no Output *CONN (no driver pin)" net.net_name)
  | _ :: _ ->
      Error (Printf.sprintf "net %s has multiple Output *CONN entries" net.net_name)

let load_conns net = List.filter (fun c -> c.dir <> Output) net.conns

(* ----------------------------------------------------------- to_tree *)

module SMap = Map.Make (String)

let to_tree ?(extra_caps = []) net ~root =
  (* Merge R and L between identical unordered node pairs. *)
  let key a b = if a <= b then (a, b) else (b, a) in
  let merged = Hashtbl.create 16 in
  List.iter
    (fun b ->
      let k = key b.n1 b.n2 in
      let r, l = Option.value (Hashtbl.find_opt merged k) ~default:(0., 0.) in
      match b.kind with
      | Res ->
          let r' = if r = 0. then b.value else r *. b.value /. (r +. b.value) in
          Hashtbl.replace merged k (r', l)
      | Induc ->
          let l' = if l = 0. then b.value else l *. b.value /. (l +. b.value) in
          Hashtbl.replace merged k (r, l'))
    net.branches;
  (* Adjacency. *)
  let adj = Hashtbl.create 16 in
  let add_adj a b rl =
    Hashtbl.replace adj a ((b, rl) :: Option.value (Hashtbl.find_opt adj a) ~default:[])
  in
  Hashtbl.iter
    (fun (a, b) rl ->
      add_adj a b rl;
      add_adj b a rl)
    merged;
  let caps_at =
    List.fold_left
      (fun m (node, farads) ->
        SMap.update node (fun v -> Some (Option.value v ~default:0. +. farads)) m)
      SMap.empty
      (List.map (fun c -> (c.node, c.farads)) net.caps @ extra_caps)
  in
  let known_node n = Hashtbl.mem adj n || SMap.mem n caps_at in
  if not (known_node root) then Error (Printf.sprintf "root %s not found in net %s" root net.net_name)
  else begin
    let visited = Hashtbl.create 16 in
    let exception Cycle of string in
    let exception Bad_branch of string in
    let rec build parent node =
      Hashtbl.replace visited node ();
      let cap = Option.value (SMap.find_opt node caps_at) ~default:0. in
      let children =
        List.filter_map
          (fun (next, (r, l)) ->
            if Some next = parent then None
            else if Hashtbl.mem visited next then raise (Cycle next)
            else begin
              if r <= 0. then
                raise
                  (Bad_branch (Printf.sprintf "branch %s-%s has no resistance" node next));
              Some (r, l, build (Some node) next)
            end)
          (Option.value (Hashtbl.find_opt adj node) ~default:[])
      in
      Rlc_moments.Tree.make ~cap ~children ()
    in
    match build None root with
    | tree ->
        (* Anything carrying parasitics but unreachable is a modeling error. *)
        let disconnected =
          List.filter
            (fun node -> not (Hashtbl.mem visited node))
            (List.map (fun c -> c.node) net.caps @ List.map fst extra_caps)
        in
        if disconnected <> [] then
          Error
            (Printf.sprintf "net %s: node %s is not connected to %s" net.net_name
               (List.hd disconnected) root)
        else Ok tree
    | exception Cycle n ->
        Error (Printf.sprintf "net %s: resistive loop through %s (not a tree)" net.net_name n)
    | exception Bad_branch msg -> Error (Printf.sprintf "net %s: %s" net.net_name msg)
  end
