type polarity = Nmos | Pmos

type eval = { id : float; g_dd : float; g_dg : float; g_ds : float }

let gmin = 1e-9

(* The drive equation at vgs = [o.(3)], vds = [o.(4)] (vds >= 0), written
   as id, gm and gds into [o.(3)], [o.(4)] and [o.(5)].  Floats pass
   through the array because a float argument or result of a call that is
   not inlined is boxed: the evaluation below allocates nothing. *)
let drive_into (p : Tech.mosfet_params) w_um (o : float array) =
  let vgs = o.(3) and vds = o.(4) in
  let vgt = vgs -. p.vth in
  if vgt <= 0. then begin
    o.(3) <- 0.;
    o.(4) <- 0.;
    o.(5) <- 0.
  end
  else begin
    let vd0 = p.kv *. (vgt ** (p.alpha /. 2.)) in
    let i0 = p.beta *. w_um *. (vgt ** p.alpha) in
    let clm = 1. +. (p.lambda *. vds) in
    if vds >= vd0 then begin
      o.(3) <- i0 *. clm;
      o.(4) <- p.alpha *. i0 /. vgt *. clm;
      o.(5) <- i0 *. p.lambda
    end
    else begin
      let u = vds /. vd0 in
      let f = u *. (2. -. u) in
      let f' = 2. -. (2. *. u) in
      o.(3) <- i0 *. clm *. f;
      (* du/dvgs = -u * (alpha/2) / vgt because vd0 grows with vgt. *)
      o.(4) <- clm *. i0 /. vgt *. ((p.alpha *. f) -. (f' *. u *. p.alpha /. 2.));
      o.(5) <- i0 *. ((p.lambda *. f) +. (clm *. f' /. vd0))
    end
  end

let nmos_ids p ~w_um ~vgs ~vds =
  let o = [| 0.; 0.; 0.; vgs; vds; 0. |] in
  drive_into p w_um o;
  (o.(3), o.(4), o.(5))

(* The device over nodes [d; g; s] at the voltages [v], as {!eval_nmos}
   (or, [pmos], {!eval_pmos}) computes it, written as the engine's
   current vector [i] and row-major Jacobian [g]: row 0 is the drain's
   (id, g_dd, g_dg, g_ds), the gate row is zero, the source row is the
   drain's negated.  The gate row carries the drive equation's operands
   and results until it is zeroed. *)
let eval_into p w_um ~pmos (v : float array) (i : float array) (g : float array) =
  (* A PMOS at (vd, vg, vs) is an NMOS at the negated voltages with the
     channel current reversed; the chain rule through the negation leaves
     the conductances unchanged. *)
  let vd = if pmos then -.v.(0) else v.(0) in
  let vg = if pmos then -.v.(1) else v.(1) in
  let vs = if pmos then -.v.(2) else v.(2) in
  if vd >= vs then begin
    g.(3) <- vg -. vs;
    g.(4) <- vd -. vs;
    drive_into p w_um g;
    let id = g.(3) and gm = g.(4) and gds = g.(5) in
    i.(0) <- id +. (gmin *. (vd -. vs));
    g.(0) <- gds +. gmin;
    g.(1) <- gm;
    g.(2) <- -.(gm +. gds) -. gmin
  end
  else begin
    (* Reverse conduction: the lower terminal acts as the source. *)
    g.(3) <- vg -. vd;
    g.(4) <- vs -. vd;
    drive_into p w_um g;
    let id = g.(3) and gm = g.(4) and gds = g.(5) in
    i.(0) <- -.id +. (gmin *. (vd -. vs));
    g.(0) <- gm +. gds +. gmin;
    g.(1) <- -.gm;
    g.(2) <- -.gds -. gmin
  end;
  if pmos then i.(0) <- -.i.(0);
  i.(1) <- 0.;
  i.(2) <- -.i.(0);
  g.(3) <- 0.;
  g.(4) <- 0.;
  g.(5) <- 0.;
  g.(6) <- -.g.(0);
  g.(7) <- -.g.(1);
  g.(8) <- -.g.(2)

let evaluate ~pmos p ~w_um ~vd ~vg ~vs =
  let i = Array.make 3 0. and g = Array.make 9 0. in
  eval_into p w_um ~pmos [| vd; vg; vs |] i g;
  { id = i.(0); g_dd = g.(0); g_dg = g.(1); g_ds = g.(2) }

let eval_nmos p ~w_um ~vd ~vg ~vs = evaluate ~pmos:false p ~w_um ~vd ~vg ~vs
let eval_pmos p ~w_um ~vd ~vg ~vs = evaluate ~pmos:true p ~w_um ~vd ~vg ~vs

let device p ~polarity ~w_um ~d ~g ~s ~name =
  let pmos = match polarity with Nmos -> false | Pmos -> true in
  { Rlc_circuit.Netlist.nl_name = name; nl_nodes = [| d; g; s |]; nl_eval = eval_into p w_um ~pmos }
