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
  ?obs:Rlc_obs.Obs.t ->
  ?pool:Rlc_parallel.Pool.t ->
  spef:Rlc_spef.Spef.t ->
  spec:Spec.t ->
  unit ->
  (t, string) result
(** A cold ingest, in time linear in the design (nets, blocks, spec
    lines).  A design keeps no reference to the parsed SPEF.

    Errors: a spec net missing from the SPEF (or vice versa: SPEF nets not
    covered by a [driver] line are ignored with a log message, they are not
    errors); a net without a unique [Output] conn; a net that is neither a
    primary input nor the target of exactly one [edge]; combinational
    cycles; unknown pins; nets whose R/L graph is not a tree.  Cross-net
    coupling caps resolve each endpoint to the design net owning that node
    (a node owned by two nets, or a coupling joining a net to itself, is an
    error); couplings touching nets the design does not time are logged and
    skipped.

    [obs] (default disabled) records a ["design.ingest"] span (also
    charged to the calling domain's {!Rlc_obs.Obs.with_split}) and adds
    every node claim made — each conn pin, grounded-cap node and branch
    endpoint of every net — to the ["design.nodes_claimed"] counter.

    Each net's tree and Padé fit are built as jobs of [pool] (default
    {!Rlc_parallel.Pool.borrow}[ ()], the process-wide resident pool, as
    {!Rlc_liberty.Characterize.cell} defaults; a daemon passes its own),
    {!Rlc_parallel.Pool.init}'s chunks of 16 nets in id order.  The design
    and the error are the same on any pool: of several failing nets, the
    lowest id's error is returned, as a build in id order returns it. *)

type index
(** A resident design's ingest index: what the ingest of an edited
    successor reuses.  It holds the name order and id map, the
    connectivity the spec's edges and loads define, the node-ownership
    index (an immutable base table plus a persistent overlay of the blocks
    replaced since) and each coupling's caps in file order.  Immutable:
    deriving a successor never changes it. *)

val ingest_resident :
  ?tech:Rlc_devices.Tech.t ->
  ?obs:Rlc_obs.Obs.t ->
  ?pool:Rlc_parallel.Pool.t ->
  ?prev:t * index * Rlc_spef.Spef.t ->
  spef:Rlc_spef.Spef.t ->
  spec:Spec.t ->
  unit ->
  (t * index, string) result
(** {!ingest}, plus the index for the design's edited successors.

    [prev] is the design these sources were edited from, with its index
    and the SPEF it was ingested from (an incremental retime passes the
    state before its delta).  When the sources are provably [prev]'s with
    only values and whole blocks changed — the same driver and input lines
    in the same order (sizes and slews may differ), physically [prev]'s
    spec [edges] and [loads] lists, the same [*D_NET] names in the same
    order, each block physically the previous one or a replacement, as
    {!Delta.apply} produces them — the ingest costs the edit, not the
    design:
    - ids, levels and connectivity are [prev]'s;
    - only nets whose block was replaced, whose size or primary slew
      changed, or which drive a resized net get a new record (a size- or
      slew-only change copies the record with the new value); every other
      net keeps [prev]'s record, physically;
    - only the replaced blocks' nodes are claimed, against [prev]'s
      ownership index; the overlay is folded into a new base once a
      quarter of the nets sit in it;
    - only the coupling pairs a replaced block or its nodes touch are
      re-summed, in file order, so every [cc] keeps its bits.
    Any other input, and any check the quick path cannot settle (a node
    claimed twice, a coupling joining a net to itself, a block that does
    not build), takes the full pass of {!ingest} instead.  Either way the
    design equals, field by field, the one a cold ingest of the same
    sources builds, and errors carry a cold ingest's text.  [obs] and
    [pool] as in {!ingest}: the quick path claims only the replaced
    blocks' nodes, and builds its few nets on the calling domain. *)

val n_nets : t -> int
val pp : Format.formatter -> t -> unit
