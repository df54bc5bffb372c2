(** Input canonicalization for the Ceff result cache.

    The Ceff↔Tr fixed point is a pure function of (cell, edge, input slew,
    load admittance, line constants, sink load), so repeated bus bits — and
    warm re-runs of a design — can share one solve.  The flow keys its
    cache ({!Flow.create_cache}, an {!Rlc_obs.Memo}) by {e quantized}
    inputs and feeds the {e same quantized values} into the solve itself:
    two nets that collide on a key compute bit-identical results, so
    reports do not depend on which domain solved a key first (the
    [--jobs 1] vs [--jobs N] determinism guarantee). *)

val quantize : float -> float
(** Round to 9 significant decimal digits by a [%.8e] round-trip; total
    order preserved, NaN/inf pass through.  Nine digits comfortably
    exceeds extraction noise while collapsing bit-identical bus parasitics
    emitted with different float garbage. *)

val quantize_slew : float -> float
(** Snap a slew to a 0.1 ps grid: slews arriving from upstream stages
    differ in the last ulps even for symmetric bus bits, so a coarser
    deterministic grid is what makes their cache keys collide. *)

val same_bits : float -> float -> bool
(** Bit-pattern equality: tells [-0.] from [0.] and matches a NaN only
    with the same NaN.  Reuse checks compare floats with it, so a reused
    value's inputs are the previous ones exactly, not merely [=]. *)
