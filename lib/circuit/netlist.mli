(** Circuit netlists for nodal analysis.

    The engine solves pure nodal systems: every element is expressed as
    conductances plus current sources between nodes (inductors and capacitors
    through trapezoidal/backward-Euler companion models, nonlinear devices
    through Newton linearization).  Ideal voltage sources are supported as
    {e forced nodes} — a node whose voltage is a known function of time —
    which covers rails, input ramps, and PWL driver replacement without MNA
    branch currents, keeping ladder matrices tridiagonal. *)

type node = int
(** Node handle; [ground] is node 0.  Create others with {!node}. *)

val ground : node

type nonlinear = {
  nl_name : string;
  nl_nodes : node array;
  nl_eval : float array -> float array -> float array -> unit;
      (** [nl_eval v i g] reads the voltages at [nl_nodes] from [v] and
          writes, for the [nn] nodes, [i.(k)], the current flowing {e out
          of} node [k] into the device, and the row-major Jacobian
          [g.((k * nn) + j) = d i.(k) / d v.(j)].  The engine owns the
          three buffers ([nn], [nn] and [nn * nn] floats, one set per
          device and solver state) and reuses them every Newton iteration,
          so an evaluation allocates nothing; it must write every entry of
          [i] and [g] and may use them as scratch before it does. *)
}

type coupled = {
  cp_name : string;
  cp_branches : (node * node) array;  (** branch p carries current n1 -> n2 *)
  cp_lmat : float array array;
      (** symmetric positive-definite inductance matrix; off-diagonals are
          the mutual inductances *)
}

type element =
  | Resistor of { name : string; n1 : node; n2 : node; ohms : float }
  | Capacitor of { name : string; n1 : node; n2 : node; farads : float }
  | Inductor of { name : string; n1 : node; n2 : node; henries : float }
  | Current_source of { name : string; n1 : node; n2 : node; amps : float -> float }
      (** Positive current flows from [n1] through the source to [n2]. *)
  | Coupled_inductors of coupled
  | Nonlinear of nonlinear

type t

val create : unit -> t

val node : t -> string -> node
(** Allocate a fresh named node.  Number nodes along chains (the builder
    allocates sequentially) to keep the nodal matrix bandwidth small. *)

val node_count : t -> int
(** Including ground. *)

val node_name : t -> node -> string

val resistor : t -> ?name:string -> node -> node -> float -> unit
val capacitor : t -> ?name:string -> node -> node -> float -> unit
val inductor : t -> ?name:string -> node -> node -> float -> unit
val current_source : t -> ?name:string -> node -> node -> (float -> float) -> unit
val nonlinear : t -> nonlinear -> unit

val coupled_inductors :
  t -> ?name:string -> (node * node) array -> lmat:float array array -> unit
(** Magnetically coupled inductor group (e.g. the per-segment self and
    mutual inductances of a coupled bus).  [lmat] must be symmetric with
    positive diagonal and strictly diagonally-dominant-or-equal rows
    (passivity); violations raise [Invalid_argument].  A 1x1 group is
    equivalent to {!inductor}. *)

val coupled_pair :
  t -> ?name:string -> node * node -> float -> node * node -> float -> k:float -> unit
(** Two coupled inductors with coupling coefficient [k] in [0, 1):
    [M = k sqrt (l1 l2)]. *)

val force_voltage : t -> ?breakpoints:float list -> node -> (float -> float) -> unit
(** Attach an ideal voltage source from [node] to ground.  A node may be
    forced at most once; forcing ground raises [Invalid_argument].

    [breakpoints] (default none) declares the times where the source is not
    smooth — ramp corners, PWL kinks, plateau starts.  The fixed-step engine
    ignores them; the adaptive stepper lands a step on each one exactly so a
    kink is never stepped over.  Non-finite times raise [Invalid_argument]. *)

val force_pwl : t -> node -> Rlc_waveform.Pwl.t -> unit
(** [force_voltage] with the PWL's evaluator and every PWL point registered
    as a breakpoint.  Unlike a closure, the source is known to hold its
    last value from its last point on (see {!flat_after}). *)

val elements : t -> element list
(** In insertion order. *)

val forced : t -> (node * (float -> float)) list

val breakpoints : t -> float list
(** All declared source breakpoints, sorted and deduplicated. *)

val flat_after : t -> float
(** The time from which every forced source holds its final value: the
    latest last-point time over the {!force_pwl} sources, [infinity] once
    any node is forced by a {!force_voltage} closure (whose future the
    netlist cannot see), [neg_infinity] when nothing is forced. *)

val validate : t -> unit
(** Checks that every non-ground node is reachable from a forced node or
    ground through element connectivity (otherwise the nodal matrix is
    singular).  Raises [Failure] with the offending node's name. *)

val pp_summary : Format.formatter -> t -> unit
