(** Full-design ingest: SPEF parasitics + connectivity spec -> levelized net
    graph.

    Each net of the design becomes one timing job: an inverter driver of the
    spec'd size at the net's SPEF [Output] pin, the extracted RLC tree (with
    fan-out gate capacitances and explicit loads folded in at their receiver
    pins), and the lumped sink load [CL] the inductance screen compares
    against the wire capacitance.  Nets are levelized by driver dependency —
    level 0 nets take their input slew from the spec, level [k] nets from the
    far-end slew computed at level [k-1] — which is exactly the stage
    hand-off of {!Rlc_sta.analyze} lifted from a single path to a DAG. *)

type net = {
  id : int;  (** dense index; nets are sorted by name, so ids are stable *)
  name : string;
  size : float;  (** driver strength, X multiplier *)
  root_pin : string;  (** the SPEF [Output] conn the driver sits on *)
  loads : (string * float) list;
      (** [(pin, farads)] folded into [tree]: fan-out gate input caps in
          [edge] order, then explicit [load]s *)
  tree : Rlc_moments.Tree.t;  (** extracted tree with sink loads folded in *)
  pade : Rlc_moments.Pade.t;  (** 3/2 fit of the tree's admittance moments *)
  eq_line : Rlc_tline.Line.t;
      (** total-R/L/C equivalent uniform line: supplies [Z0], time of
          flight and the wire capacitance to Eq. 1 / Eq. 9, and carries the
          model waveform replay *)
  cl : float;  (** lumped sink load: fan-out gate caps + explicit loads, F *)
  fanin : int option;  (** the net whose far end drives this net's driver *)
  fanout : int list;  (** nets driven from this net's receivers, ascending *)
  level : int;
  prim_slew : float option;  (** input slew when this is a primary input *)
}

type coupling = { net_a : int; net_b : int; cc : float }
(** An undirected coupling edge between two design nets ([net_a < net_b]):
    the sum of all SPEF cross-net caps whose endpoints resolve to those two
    nets, in farads. *)

type t = {
  design_name : string;
  tech : Rlc_devices.Tech.t;
  nets : net array;  (** indexed by [id] *)
  levels : int array array;  (** [levels.(l)] = ids at level [l], ascending *)
  sizes : float list;  (** distinct driver sizes, ascending (for pre-characterization) *)
  couplings : coupling array;
      (** coupling graph, sorted by [(net_a, net_b)]; empty when the SPEF
          declares no cross-net caps, leaving the isolated flow untouched *)
}

val ingest :
  ?tech:Rlc_devices.Tech.t ->
  ?prev:t * Rlc_spef.Spef.t ->
  spef:Rlc_spef.Spef.t ->
  spec:Spec.t ->
  unit ->
  (t, string) result
(** Ingest runs in time linear in the design (nets, blocks, spec lines).

    [prev] is the design these sources were edited from, with the SPEF it
    was ingested from (an incremental retime passes the state before its
    delta; cold callers pass nothing).  Net [i] keeps [prev]'s record for
    id [i] — the same physical value, tree and Pade fit not recomputed —
    only when all of these hold: its [*D_NET] block is physically the
    block of that name in the previous SPEF (as {!Delta.apply} leaves
    unedited blocks), its name, connectivity and level are equal, its
    driver size and primary slew are bit-equal, and its [loads] are equal
    (pins equal, farads bit-equal).  Every other net is built afresh.  A
    kept record therefore equals, field by field, the one a cold ingest of
    the same sources would build, and correctness never depends on a dirty
    list.  Node ownership, the coupling graph and every validation below
    still run over every net, with or without [prev].  A design keeps no
    reference to the parsed SPEF.

    Errors: a spec net missing from the SPEF (or vice versa: SPEF nets not
    covered by a [driver] line are ignored with a log message, they are not
    errors); a net without a unique [Output] conn; a net that is neither a
    primary input nor the target of exactly one [edge]; combinational
    cycles; unknown pins; nets whose R/L graph is not a tree.  Cross-net
    coupling caps resolve each endpoint to the design net owning that node
    (a node owned by two nets, or a coupling joining a net to itself, is an
    error); couplings touching nets the design does not time are logged and
    skipped. *)

val n_nets : t -> int
val pp : Format.formatter -> t -> unit
