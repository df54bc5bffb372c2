(** SPEF-subset parser and printer for extracted RLC nets.

    The model's input in a production flow is an extracted netlist, not
    geometry; this module reads the detailed-parasitics subset needed for
    RLC timing — header units, [*D_NET] blocks with [*CONN], [*CAP]
    (grounded), [*RES] and the IEEE-1481 [*INDUC] (self-inductance) section —
    and converts a net into an {!Rlc_moments.Tree.t} rooted at its driver
    port.  Four-token [*CAP] entries — coupling capacitances between two
    nodes — are parsed into typed {!coupling_cap} records feeding the
    crosstalk analysis; mutual inductances ([*K]) remain out of scope and
    are reported as errors rather than silently dropped. *)

type units = {
  t_scale : float;  (** seconds per time unit *)
  c_scale : float;  (** farads per cap unit *)
  r_scale : float;
  l_scale : float;  (** henries per inductance unit *)
}

type direction = Input | Output | Bidir

type conn = { pin : string; dir : direction }

type branch_kind = Res | Induc

type branch = { b_id : int; kind : branch_kind; n1 : string; n2 : string; value : float }
(** Value in SI units after scaling. *)

type ground_cap = { c_id : int; node : string; farads : float }

type coupling_cap = { x_id : int; x_node1 : string; x_node2 : string; x_farads : float }
(** A cross-net coupling capacitor (farads after scaling) between two named
    nodes, typically belonging to different nets.  Listed under the [*CAP]
    section of whichever net declares it; each unordered node pair may appear
    at most once in a file. *)

type dnet = {
  net_name : string;
  total_cap : float;  (** farads; as declared on the D_NET line *)
  conns : conn list;
  caps : ground_cap list;
  x_caps : coupling_cap list;
  branches : branch list;
}

type t = { design : string; units : units; nets : dnet list }

val parse_res : ?file:string -> string -> (t, Rlc_errors.Error.t) result
(** Errors are {!Rlc_errors.Error.Parse} carrying the 1-based input line and
    the source [file] name when given.  Coupling capacitances (four-token
    [*CAP] entries) parse into {!coupling_cap}; a duplicate unordered node
    pair anywhere in the file, or a coupling cap with identical nodes, is an
    error.  Unsupported constructs ([*K] mutual sections) produce errors.

    Tokens are the runs of bytes other than space, tab and carriage
    return on each ['\n']-separated line; a line is cut at its first ['/']
    when another ['/'] follows it (only a line's first ['/'] can open a
    comment).  The source is scanned once, and a repeated [*D_NET] name is
    found in constant time, so a parse takes time linear in the file. *)

val parse_dnet_res : ?file:string -> units:units -> string -> (dnet, Rlc_errors.Error.t) result
(** Parse a source fragment holding exactly one [*D_NET ... *END] block
    against the [units] of an already-parsed file — the re-parse behind
    incremental (ECO) deltas.  Header directives ([*T_UNIT], [*DESIGN],
    ...) are rejected as unexpected tokens: a delta may not re-scale the
    design it edits.  Zero or several [*D_NET] blocks are errors. *)

val to_string : t -> string
(** Canonical printer; [parse (to_string f)] reproduces the structure
    (round-trip property in tests).  Values are emitted in the file's
    declared units. *)

val find_net : t -> string -> dnet option

val driver_conn : dnet -> (conn, string) result
(** The unique [Output] connection of the net — its driving pin in a
    full-design flow.  Zero or multiple [Output] conns are errors. *)

val load_conns : dnet -> conn list
(** The [Input]/[Bidir] connections (receiver pins), in file order. *)

val to_tree : ?extra_caps:(string * float) list -> dnet -> root:string -> (Rlc_moments.Tree.t, string) result
(** Build the RLC tree seen from [root] (a node or pin name appearing in the
    net).  Requires the R/L branch graph to be a tree after merging R and L
    between identical node pairs into single branches; loops, disconnected
    pieces, or L-only branches are errors.  [extra_caps] adds lumped
    grounded capacitance (farads) at named nodes — how a design flow folds
    receiver gate loads into the net before computing moments; naming a node
    absent from the net is an error.  Coupling caps are not folded into the
    tree — isolated-net timing stays byte-identical whether or not the file
    declares couplings; {!Rlc_xtalk} consumes them separately. *)

val net_total_cap : dnet -> float
(** Sum of the grounded caps (farads), excluding coupling caps; tests
    compare it with [total_cap]. *)
