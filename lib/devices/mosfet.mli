(** Sakurai–Newton alpha-power-law MOSFET model.

    The model captures what matters for driver output waveforms: a
    velocity-saturated drive current [Idsat ∝ W (Vgs - Vth)^α], a quadratic
    triode region joining it with continuous value and slope at
    [Vdsat = kv (Vgs - Vth)^(α/2)], channel-length modulation, and
    source/drain symmetry (reverse conduction during ringing).  Gate current
    is zero; gate/junction capacitances are added as linear elements by
    {!Inverter}. *)

type polarity = Nmos | Pmos

type eval = {
  id : float;  (** drain-to-source channel current (NMOS convention), A *)
  g_dd : float;  (** d id / d v_drain *)
  g_dg : float;  (** d id / d v_gate *)
  g_ds : float;  (** d id / d v_source *)
}

val nmos_ids :
  Tech.mosfet_params -> w_um:float -> vgs:float -> vds:float -> float * float * float
(** [(id, gm, gds)] for an NMOS with [vds >= 0]; pure drive equation without
    symmetry handling.  Exposed for model-continuity tests. *)

val eval_nmos : Tech.mosfet_params -> w_um:float -> vd:float -> vg:float -> vs:float -> eval
(** Full symmetric evaluation at the given node voltages (swaps drain and
    source when [vd < vs]).  A small [gmin = 1e-9 S] drain-source leak keeps
    Newton matrices nonsingular when the device is off. *)

val eval_pmos : Tech.mosfet_params -> w_um:float -> vd:float -> vg:float -> vs:float -> eval
(** PMOS via voltage mirroring; [id] is again the current entering the drain
    terminal (negative when the PMOS sources current into the drain node). *)

val device :
  Tech.mosfet_params -> polarity:polarity -> w_um:float ->
  d:Rlc_circuit.Netlist.node -> g:Rlc_circuit.Netlist.node -> s:Rlc_circuit.Netlist.node ->
  name:string -> Rlc_circuit.Netlist.nonlinear
(** Package as a circuit-engine nonlinear element over nodes [d; g; s].
    Its evaluation is {!eval_nmos} / {!eval_pmos}'s, float expression for
    float expression, written into the engine's buffers without
    allocating. *)
