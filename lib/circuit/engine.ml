open Rlc_num
module Waveform = Rlc_waveform.Waveform
module Obs = Rlc_obs.Obs
module Deadline = Rlc_errors.Deadline

(* Per-request deadline observation points: every step loop polls the
   ambient deadline once per [deadline_stride] steps.  With no deadline
   installed a poll is one domain-local read and a float compare, so the
   stride keeps the cost unmeasurable while still interrupting a runaway
   transient within a few hundred steps of its budget expiring. *)
let deadline_stride = 256

(* Newton limits: converged once no unknown moves by [newton_tol] volts,
   at most [newton_max] iterations per solve, each unknown's update
   clamped to [dv_limit] volts per iteration. *)
let newton_tol = 1e-9
let newton_max = 60
let dv_limit = 0.5

(* Linear-system abstraction: banded when the netlist numbering keeps the
   bandwidth small (uniform ladders are tridiagonal), dense otherwise. *)
type sys = B of Banded.t | D of Linalg.mat

let sys_create ~n ~bw =
  (* An n x n system never needs more than n - 1 off-diagonals; compile
     seeds the bandwidth at 1, so clamp before sizing the band storage. *)
  let bw = Int.min bw (Int.max 0 (n - 1)) in
  if bw <= 16 || (n <= 24 && bw < n) then B (Banded.create ~n ~bw) else D (Linalg.make n n 0.)

let sys_clear = function
  | B b -> Banded.clear b
  | D m -> Array.iter (fun row -> Array.fill row 0 (Array.length row) 0.) m

let sys_add s i j v =
  match s with B b -> Banded.add b i j v | D m -> m.(i).(j) <- m.(i).(j) +. v

let sys_copy = function B b -> B (Banded.copy b) | D m -> D (Linalg.copy_mat m)

let sys_blit ~src ~dst =
  match (src, dst) with
  | B a, B b -> Banded.blit ~src:a ~dst:b
  | D a, D b -> Array.iteri (fun i row -> Array.blit row 0 b.(i) 0 (Array.length row)) a
  | _ -> invalid_arg "Engine.sys_blit: shape mismatch"

let sys_solve_in_place s rhs =
  match s with
  | B b -> Banded.solve_in_place b rhs
  | D m ->
      let x = Linalg.solve m rhs in
      Array.blit x 0 rhs 0 (Array.length x)

(* A factorized system: the banded case factors in place and replays the
   elimination per right-hand side; the dense case keeps the pivoted LU. *)
type factored = FB of Banded.t | FD of Linalg.lu

let factorize = function
  | B b ->
      Banded.factor b;
      FB b
  | D m -> FD (Linalg.lu_factor_in_place m)

(* Overwrite [rhs] with the solution; [scratch] (same length, distinct) is
   needed by the dense path to un-permute without allocating. *)
let factored_solve f rhs scratch =
  match f with
  | FB b -> Banded.solve_factored b rhs
  | FD lu ->
      Linalg.lu_solve_into lu rhs scratch;
      Array.blit scratch 0 rhs 0 (Array.length rhs)

(* Per-step companion history.  Kept as its own all-float record so it is a
   flat float block: updating [v_prev]/[i_prev] is a direct unboxed store.
   Inside the mixed int/float [companion] record the same mutable float
   fields would be boxed, costing an allocation plus a write barrier per
   element per step in [commit_step]. *)
type comp_hist = { mutable v_prev : float; mutable i_prev : float }

(* Compiled two-terminal element with per-step companion state.  [value] is
   mutable so [Compiled.restamp] can write new element values into the
   existing structure without rebuilding it. *)
type companion = { n1 : int; n2 : int; mutable value : float; hist : comp_hist }

(* Resistor / forced-source / current-source slots are records with mutable
   value fields for the same reason: a restamp writes in place. *)
type resistor = { rn1 : int; rn2 : int; mutable rg : float  (* conductance *) }

type forced_src = { fnode : int; mutable fsrc : float -> float }
type isource = { sn1 : int; sn2 : int; mutable samps : float -> float }

(* Magnetically coupled group: branch currents depend on all branch
   voltages through G = alpha * L^{-1} (alpha = h/2, the trapezoidal
   rule), which stays purely nodal.  [k_lmat] keeps a copy of the
   inductance matrix so a restamp can detect a value change cheaply before
   paying for a re-inversion. *)
type coupled_state = {
  k_branches : (int * int) array;
  mutable k_lmat : float array array;
  mutable linv : float array array;  (* L^{-1} *)
  i_prev_k : float array;
  v_prev_k : float array;
}

type compiled = {
  nl : Netlist.t;
  n_nodes : int;
  n_unknown : int;
  unknown_of_node : int array;  (* -1 for ground and forced nodes *)
  forced : forced_src array;
  resistors : resistor array;
  caps : companion array;
  inds : companion array;
  coupled : coupled_state array;
  isources : isource array;
  nonlinears : Netlist.nonlinear array;  (* slots replaced by restamp *)
  bandwidth : int;
}

let invert m =
  let n = Array.length m in
  let lu = Linalg.lu_factor m in
  let inv = Array.make_matrix n n 0. in
  for j = 0 to n - 1 do
    let e = Array.make n 0. in
    e.(j) <- 1.;
    let col = Linalg.lu_solve lu e in
    for i = 0 to n - 1 do
      inv.(i).(j) <- col.(i)
    done
  done;
  inv

let compile netlist =
  Netlist.validate netlist;
  let n_nodes = Netlist.node_count netlist in
  let forced =
    Array.of_list
      (List.map (fun (n, f) -> { fnode = n; fsrc = f }) (Netlist.forced netlist))
  in
  let unknown_of_node = Array.make n_nodes (-1) in
  let is_forced = Array.make n_nodes false in
  Array.iter (fun fs -> is_forced.(fs.fnode) <- true) forced;
  let next = ref 0 in
  for n = 1 to n_nodes - 1 do
    if not is_forced.(n) then begin
      unknown_of_node.(n) <- !next;
      incr next
    end
  done;
  let n_unknown = !next in
  let rs = ref [] and cs = ref [] and ls = ref [] and is_ = ref [] and nls = ref [] in
  let ks = ref [] in
  List.iter
    (fun (e : Netlist.element) ->
      match e with
      | Resistor { n1; n2; ohms; _ } -> rs := { rn1 = n1; rn2 = n2; rg = 1. /. ohms } :: !rs
      | Capacitor { n1; n2; farads; _ } ->
          cs := { n1; n2; value = farads; hist = { v_prev = 0.; i_prev = 0. } } :: !cs
      | Inductor { n1; n2; henries; _ } ->
          ls := { n1; n2; value = henries; hist = { v_prev = 0.; i_prev = 0. } } :: !ls
      | Current_source { n1; n2; amps; _ } ->
          is_ := { sn1 = n1; sn2 = n2; samps = amps } :: !is_
      | Coupled_inductors { cp_branches; cp_lmat; _ } ->
          let k = Array.length cp_branches in
          ks :=
            {
              k_branches = Array.copy cp_branches;
              k_lmat = Array.map Array.copy cp_lmat;
              linv = invert cp_lmat;
              i_prev_k = Array.make k 0.;
              v_prev_k = Array.make k 0.;
            }
            :: !ks
      | Nonlinear nl -> nls := nl :: !nls)
    (Netlist.elements netlist);
  let pair_band n1 n2 =
    let u1 = unknown_of_node.(n1) and u2 = unknown_of_node.(n2) in
    if u1 >= 0 && u2 >= 0 then abs (u1 - u2) else 0
  in
  let bw = ref 1 in
  List.iter (fun (r : resistor) -> bw := Int.max !bw (pair_band r.rn1 r.rn2)) !rs;
  List.iter (fun (c : companion) -> bw := Int.max !bw (pair_band c.n1 c.n2)) !cs;
  List.iter (fun (c : companion) -> bw := Int.max !bw (pair_band c.n1 c.n2)) !ls;
  List.iter
    (fun (nl : Netlist.nonlinear) ->
      Array.iter
        (fun a -> Array.iter (fun b -> bw := Int.max !bw (pair_band a b)) nl.nl_nodes)
        nl.nl_nodes)
    !nls;
  List.iter
    (fun (k : coupled_state) ->
      Array.iter
        (fun (a1, b1) ->
          Array.iter
            (fun (a2, b2) ->
              List.iter
                (fun (x, y) -> bw := Int.max !bw (pair_band x y))
                [ (a1, a2); (a1, b2); (b1, a2); (b1, b2) ])
            k.k_branches)
        k.k_branches)
    !ks;
  {
    nl = netlist;
    n_nodes;
    n_unknown;
    unknown_of_node;
    forced;
    resistors = Array.of_list (List.rev !rs);
    caps = Array.of_list (List.rev !cs);
    inds = Array.of_list (List.rev !ls);
    coupled = Array.of_list (List.rev !ks);
    isources = Array.of_list (List.rev !is_);
    nonlinears = Array.of_list (List.rev !nls);
    bandwidth = !bw;
  }

(* Trapezoidal companion conductances for a fixed dt: time-invariant, so
   the fast path computes them once per transient. *)
let cap_g dt (cc : companion) = 2. *. cc.value /. dt
let ind_g dt (cc : companion) = dt /. (2. *. cc.value)

(* History current (flowing n1 -> n2 through the companion source) for the
   current step, given the element's per-transient conductance. *)
let cap_ieq g (cc : companion) =
  let h = cc.hist in
  -.((g *. h.v_prev) +. h.i_prev)

let ind_ieq g (cc : companion) =
  let h = cc.hist in
  h.i_prev +. (g *. h.v_prev)

(* Stamp conductance [g] and constant element current [j] (flowing n1 -> n2)
   into system/rhs given the full node-voltage vector for known nodes. *)
let stamp c sys rhs vnode n1 n2 g j =
  let u1 = c.unknown_of_node.(n1) and u2 = c.unknown_of_node.(n2) in
  if u1 >= 0 then begin
    if g <> 0. then begin
      sys_add sys u1 u1 g;
      if u2 >= 0 then sys_add sys u1 u2 (-.g) else rhs.(u1) <- rhs.(u1) +. (g *. vnode.(n2))
    end;
    rhs.(u1) <- rhs.(u1) -. j
  end;
  if u2 >= 0 then begin
    if g <> 0. then begin
      sys_add sys u2 u2 g;
      if u1 >= 0 then sys_add sys u2 u1 (-.g) else rhs.(u2) <- rhs.(u2) +. (g *. vnode.(n1))
    end;
    rhs.(u2) <- rhs.(u2) +. j
  end

(* The time-invariant matrix half of [stamp]; the per-step right-hand-side
   half is open-coded in [assemble_rhs].  Contribution order matches
   [stamp] exactly so the fast path accumulates bit-identical sums. *)
let stamp_mat c sys n1 n2 g =
  if g <> 0. then begin
    let u1 = c.unknown_of_node.(n1) and u2 = c.unknown_of_node.(n2) in
    if u1 >= 0 then begin
      sys_add sys u1 u1 g;
      if u2 >= 0 then sys_add sys u1 u2 (-.g)
    end;
    if u2 >= 0 then begin
      sys_add sys u2 u2 g;
      if u1 >= 0 then sys_add sys u2 u1 (-.g)
    end
  end

(* Companion coefficients of a coupled group for the current step:
   [g = alpha L^{-1}] and per-branch history sources. *)
let coupled_galpha (k : coupled_state) dt =
  let alpha = dt /. 2. in
  Array.init (Array.length k.k_branches) (fun p -> Array.map (fun v -> alpha *. v) k.linv.(p))

let coupled_ieq_into (k : coupled_state) g ieq =
  let nb = Array.length k.k_branches in
  for p = 0 to nb - 1 do
    let acc = ref k.i_prev_k.(p) in
    for q = 0 to nb - 1 do
      acc := !acc +. (g.(p).(q) *. k.v_prev_k.(q))
    done;
    ieq.(p) <- !acc
  done

(* Stamp a coupled group: branch p carries
   i_p = sum_q g.(p).(q) (v(aq) - v(bq)) + ieq.(p), flowing from the first
   to the second node of branch p. *)
let stamp_coupled c sys rhs vnode (k : coupled_state) g ieq =
  let nb = Array.length k.k_branches in
  for p = 0 to nb - 1 do
    let ap, bp = k.k_branches.(p) in
    let row node row_sign =
      let u = c.unknown_of_node.(node) in
      if u >= 0 then begin
        for q = 0 to nb - 1 do
          let aq, bq = k.k_branches.(q) in
          let add col col_sign =
            let coeff = row_sign *. col_sign *. g.(p).(q) in
            if coeff <> 0. then begin
              let uc = c.unknown_of_node.(col) in
              if uc >= 0 then sys_add sys u uc coeff
              else rhs.(u) <- rhs.(u) -. (coeff *. vnode.(col))
            end
          in
          add aq 1.;
          add bq (-1.)
        done;
        rhs.(u) <- rhs.(u) -. (row_sign *. ieq.(p))
      end
    in
    row ap 1.;
    row bp (-1.)
  done

(* Matrix/rhs split of [stamp_coupled], same contribution order. *)
let stamp_coupled_mat c sys (k : coupled_state) g =
  let nb = Array.length k.k_branches in
  for p = 0 to nb - 1 do
    let ap, bp = k.k_branches.(p) in
    let row node row_sign =
      let u = c.unknown_of_node.(node) in
      if u >= 0 then
        for q = 0 to nb - 1 do
          let aq, bq = k.k_branches.(q) in
          let add col col_sign =
            let coeff = row_sign *. col_sign *. g.(p).(q) in
            if coeff <> 0. then begin
              let uc = c.unknown_of_node.(col) in
              if uc >= 0 then sys_add sys u uc coeff
            end
          in
          add aq 1.;
          add bq (-1.)
        done
    in
    row ap 1.;
    row bp (-1.)
  done

let stamp_coupled_rhs c rhs vnode (k : coupled_state) g ieq =
  let nb = Array.length k.k_branches in
  for p = 0 to nb - 1 do
    let ap, bp = k.k_branches.(p) in
    let row node row_sign =
      let u = c.unknown_of_node.(node) in
      if u >= 0 then begin
        for q = 0 to nb - 1 do
          let aq, bq = k.k_branches.(q) in
          let add col col_sign =
            let coeff = row_sign *. col_sign *. g.(p).(q) in
            if coeff <> 0. && c.unknown_of_node.(col) < 0 then
              rhs.(u) <- rhs.(u) -. (coeff *. vnode.(col))
          in
          add aq 1.;
          add bq (-1.)
        done;
        rhs.(u) <- rhs.(u) -. (row_sign *. ieq.(p))
      end
    in
    row ap 1.;
    row bp (-1.)
  done

let stamp_nonlinear c sys rhs vnode (dev : Netlist.nonlinear) =
  let nn = Array.length dev.nl_nodes in
  let v = Array.map (fun n -> vnode.(n)) dev.nl_nodes in
  let i, gm = dev.nl_eval v in
  for k = 0 to nn - 1 do
    let uk = c.unknown_of_node.(dev.nl_nodes.(k)) in
    if uk >= 0 then begin
      let acc = ref (-.i.(k)) in
      for jn = 0 to nn - 1 do
        let uj = c.unknown_of_node.(dev.nl_nodes.(jn)) in
        if uj >= 0 then begin
          sys_add sys uk uj gm.(k).(jn);
          acc := !acc +. (gm.(k).(jn) *. v.(jn))
        end
      done;
      rhs.(uk) <- rhs.(uk) +. !acc
    end
  done

let update_forced c vnode t =
  for i = 0 to Array.length c.forced - 1 do
    let fs = c.forced.(i) in
    vnode.(fs.fnode) <- fs.fsrc t
  done

exception Newton_diverged of { t : float; within : string list }

let () =
  Printexc.register_printer (function
    | Newton_diverged { t; within } ->
        Some
          (Printf.sprintf "Engine: Newton failed to converge at t=%g s%s" t
             (match within with [] -> "" | l -> " (" ^ String.concat "; " l ^ ")"))
    | _ -> None)

let within what f =
  match f () with
  | v -> v
  | exception Newton_diverged d -> raise (Newton_diverged { d with within = what :: d.within })

let diverged t = raise (Newton_diverged { t; within = [] })

(* Newton loop on top of a base (linear part) assembly function — the
   rebuild-everything path, used for the DC operating point (once per
   transient) and as the [reassemble_per_step] reference stepper. *)
let newton ~c ~assemble_base ~vnode ~t =
  if Array.length c.nonlinears = 0 && c.n_unknown > 0 then begin
    let sys, rhs = assemble_base () in
    sys_solve_in_place sys rhs;
    for n = 1 to c.n_nodes - 1 do
      let u = c.unknown_of_node.(n) in
      if u >= 0 then vnode.(n) <- rhs.(u)
    done;
    1
  end
  else if c.n_unknown = 0 then 0
  else begin
    let iter = ref 0 and converged = ref false in
    while (not !converged) && !iter < newton_max do
      incr iter;
      let base_sys, base_rhs = assemble_base () in
      let sys = sys_copy base_sys and rhs = Array.copy base_rhs in
      Array.iter (fun dev -> stamp_nonlinear c sys rhs vnode dev) c.nonlinears;
      sys_solve_in_place sys rhs;
      let worst = ref 0. in
      for n = 1 to c.n_nodes - 1 do
        let u = c.unknown_of_node.(n) in
        if u >= 0 then begin
          let dv = rhs.(u) -. vnode.(n) in
          worst := Float.max !worst (Float.abs dv);
          let dv = Float.max (-.dv_limit) (Float.min dv_limit dv) in
          vnode.(n) <- vnode.(n) +. dv
        end
      done;
      if !worst < newton_tol then converged := true
    done;
    if not !converged then
      diverged t;
    !iter
  end

type result = {
  times_ : float array;
  col_of_node : int array;  (* -1 when the node was not recorded *)
  cols : float array array;  (* cols.(col_of_node.(node)).(step) *)
  total_newton : int;
  worst_newton : int;
  rejected_ : int;  (* adaptive mode: LTE-rejected step attempts *)
  refactors_ : int;  (* adaptive mode: system assemblies/factorizations *)
}

let g_short = 1e3

let dc_solve ?(leak = 1e-12) c t =
  let vnode = Array.make c.n_nodes 0. in
  update_forced c vnode t;
  let assemble_base () =
    let sys = sys_create ~n:c.n_unknown ~bw:c.bandwidth in
    sys_clear sys;
    let rhs = Array.make c.n_unknown 0. in
    Array.iter (fun (r : resistor) -> stamp c sys rhs vnode r.rn1 r.rn2 r.rg 0.) c.resistors;
    Array.iter (fun (cc : companion) -> stamp c sys rhs vnode cc.n1 cc.n2 g_short 0.) c.inds;
    Array.iter
      (fun (k : coupled_state) ->
        Array.iter (fun (a, b) -> stamp c sys rhs vnode a b g_short 0.) k.k_branches)
      c.coupled;
    (* Capacitors are open at DC, but a node connected only through
       capacitors would make the matrix singular; a tiny leak conductance
       pins such nodes without perturbing the solution elsewhere. *)
    Array.iter (fun (cc : companion) -> stamp c sys rhs vnode cc.n1 cc.n2 leak 0.) c.caps;
    Array.iter (fun (s : isource) -> stamp c sys rhs vnode s.sn1 s.sn2 0. (s.samps t)) c.isources;
    (sys, rhs)
  in
  let _ = newton ~c ~assemble_base ~vnode ~t in
  vnode

let dc_operating_point netlist = dc_solve (compile netlist) 0.

(* Per-transient solver state for the fast path: everything that is
   time-invariant for a fixed dt is computed once here —
   companion conductances, the assembled linear system matrix (factored
   outright when the circuit has no nonlinear devices), the coupled-group
   alpha*L^-1 matrices, and all solver scratch. *)
type transient_state = {
  caps_g : float array;
  inds_g : float array;
  galpha : float array array array;  (* per coupled group *)
  ieq_k : float array array;  (* per-group history scratch, refreshed per step *)
  vnew_k : float array array;  (* per-group commit scratch (post-step branch voltages) *)
  rhs : float array;
  xsol : float array;  (* dense-solve unpermute scratch *)
  linear_fact : factored option;  (* Some iff no nonlinear devices *)
  (* Nonlinear path: pre-stamped linear matrix, per-iteration scratch. *)
  base : sys;
  base_rhs : float array;
  newton_sys : sys;
}

let make_transient_state c dt =
  let caps_g = Array.map (cap_g dt) c.caps in
  let inds_g = Array.map (ind_g dt) c.inds in
  let galpha = Array.map (fun k -> coupled_galpha k dt) c.coupled in
  let ieq_k = Array.map (fun (k : coupled_state) -> Array.make (Array.length k.k_branches) 0.) c.coupled in
  let vnew_k = Array.map (fun (k : coupled_state) -> Array.make (Array.length k.k_branches) 0.) c.coupled in
  let base = sys_create ~n:c.n_unknown ~bw:c.bandwidth in
  (* Assembly order mirrors the rebuild path: resistors, caps, inductors,
     coupled groups (current sources carry no conductance). *)
  Array.iter (fun (r : resistor) -> stamp_mat c base r.rn1 r.rn2 r.rg) c.resistors;
  Array.iteri (fun i (cc : companion) -> stamp_mat c base cc.n1 cc.n2 caps_g.(i)) c.caps;
  Array.iteri (fun i (cc : companion) -> stamp_mat c base cc.n1 cc.n2 inds_g.(i)) c.inds;
  Array.iteri (fun i k -> stamp_coupled_mat c base k galpha.(i)) c.coupled;
  let linear = Array.length c.nonlinears = 0 in
  let linear_fact =
    if linear && c.n_unknown > 0 then Some (factorize (sys_copy base)) else None
  in
  {
    caps_g;
    inds_g;
    galpha;
    ieq_k;
    vnew_k;
    rhs = Array.make c.n_unknown 0.;
    xsol = Array.make c.n_unknown 0.;
    linear_fact;
    base;
    base_rhs = Array.make c.n_unknown 0.;
    newton_sys = sys_copy base;
  }

(* Independent-source contribution to the RHS — split out so the linear
   fast path can skip the call entirely (and the float [t] boxing that
   comes with it) when the circuit has no current sources. *)
let add_isources_rhs c rhs t =
  let uon = c.unknown_of_node in
  for i = 0 to Array.length c.isources - 1 do
    let s = c.isources.(i) in
    let j = s.samps t in
    let u1 = uon.(s.sn1) and u2 = uon.(s.sn2) in
    if u1 >= 0 then rhs.(u1) <- rhs.(u1) -. j;
    if u2 >= 0 then rhs.(u2) <- rhs.(u2) +. j
  done

(* Linear-part right-hand side for the step: history currents plus
   injections from forced-node neighbours, in rebuild-path order.  Plain
   [for] loops — this runs once per step (the whole point of the
   factor-once split), so closure allocation here would dominate small
   circuits. *)
let assemble_rhs_hist c st rhs vnode =
  (* Monomorphic clear: [Array.fill] goes through the generic set primitive
     (runtime float-array dispatch per element); this loop compiles to
     direct unboxed stores. *)
  for k = 0 to Array.length rhs - 1 do
    rhs.(k) <- 0.
  done;
  let uon = c.unknown_of_node in
  (* The right-hand-side half of [stamp] is open-coded per element type:
     without flambda a per-element helper call boxes its float arguments,
     and at one call per element per step that boxing rivals the factored
     solve itself.  Contribution order per element — forced-neighbour
     injection, then the -j/+j history pair — matches [stamp] exactly. *)
  for i = 0 to Array.length c.resistors - 1 do
    let r = c.resistors.(i) in
    let g = r.rg in
    let u1 = uon.(r.rn1) and u2 = uon.(r.rn2) in
    if u1 >= 0 && g <> 0. && u2 < 0 then rhs.(u1) <- rhs.(u1) +. (g *. vnode.(r.rn2));
    if u2 >= 0 && g <> 0. && u1 < 0 then rhs.(u2) <- rhs.(u2) +. (g *. vnode.(r.rn1))
  done;
  for i = 0 to Array.length c.caps - 1 do
    let cc = c.caps.(i) in
    let g = st.caps_g.(i) in
    let h = cc.hist in
    let j = -.((g *. h.v_prev) +. h.i_prev) in
    let u1 = uon.(cc.n1) and u2 = uon.(cc.n2) in
    if u1 >= 0 then begin
      if g <> 0. && u2 < 0 then rhs.(u1) <- rhs.(u1) +. (g *. vnode.(cc.n2));
      rhs.(u1) <- rhs.(u1) -. j
    end;
    if u2 >= 0 then begin
      if g <> 0. && u1 < 0 then rhs.(u2) <- rhs.(u2) +. (g *. vnode.(cc.n1));
      rhs.(u2) <- rhs.(u2) +. j
    end
  done;
  for i = 0 to Array.length c.inds - 1 do
    let cc = c.inds.(i) in
    let g = st.inds_g.(i) in
    let h = cc.hist in
    let j = h.i_prev +. (g *. h.v_prev) in
    let u1 = uon.(cc.n1) and u2 = uon.(cc.n2) in
    if u1 >= 0 then begin
      if g <> 0. && u2 < 0 then rhs.(u1) <- rhs.(u1) +. (g *. vnode.(cc.n2));
      rhs.(u1) <- rhs.(u1) -. j
    end;
    if u2 >= 0 then begin
      if g <> 0. && u1 < 0 then rhs.(u2) <- rhs.(u2) +. (g *. vnode.(cc.n1));
      rhs.(u2) <- rhs.(u2) +. j
    end
  done;
  for i = 0 to Array.length c.coupled - 1 do
    stamp_coupled_rhs c rhs vnode c.coupled.(i) st.galpha.(i) st.ieq_k.(i)
  done

let assemble_rhs c st rhs vnode t =
  assemble_rhs_hist c st rhs vnode;
  add_isources_rhs c rhs t

(* The annotations keep both arrays monomorphic: left to inference they
   generalize to ['a array], and every element access then goes through the
   generic primitive and boxes the float it moves. *)
let scatter_solution c (vnode : float array) (x : float array) =
  for n = 1 to c.n_nodes - 1 do
    let u = c.unknown_of_node.(n) in
    if u >= 0 then vnode.(n) <- x.(u)
  done

(* One fast-path timestep: factored solve for linear circuits; for nonlinear
   circuits, copy the pre-stamped linear system per Newton iteration instead
   of re-walking every element.  Returns the Newton iteration count. *)
let fast_step c st vnode t =
  if c.n_unknown = 0 then 0
  else
    match st.linear_fact with
    | Some f ->
        assemble_rhs c st st.rhs vnode t;
        factored_solve f st.rhs st.xsol;
        scatter_solution c vnode st.rhs;
        1
    | None ->
        assemble_rhs c st st.base_rhs vnode t;
        let iter = ref 0 and converged = ref false in
        while (not !converged) && !iter < newton_max do
          incr iter;
          sys_blit ~src:st.base ~dst:st.newton_sys;
          Array.blit st.base_rhs 0 st.rhs 0 c.n_unknown;
          Array.iter (fun dev -> stamp_nonlinear c st.newton_sys st.rhs vnode dev) c.nonlinears;
          (match st.newton_sys with
          | B b -> Banded.solve_in_place b st.rhs
          | D m ->
              let lu = Linalg.lu_factor_in_place m in
              Linalg.lu_solve_into lu st.rhs st.xsol;
              Array.blit st.xsol 0 st.rhs 0 c.n_unknown);
          let worst = ref 0. in
          for n = 1 to c.n_nodes - 1 do
            let u = c.unknown_of_node.(n) in
            if u >= 0 then begin
              let dv = st.rhs.(u) -. vnode.(n) in
              worst := Float.max !worst (Float.abs dv);
              let dv = Float.max (-.dv_limit) (Float.min dv_limit dv) in
              vnode.(n) <- vnode.(n) +. dv
            end
          done;
          if !worst < newton_tol then converged := true
        done;
        if not !converged then
          diverged t;
        !iter

(* The pre-factorization stepper: rebuild and refactor the whole system at
   every step (and every Newton iteration), exactly as the engine did before
   the compile/factor/step split.  Kept as the golden reference for
   equivalence tests. *)
let rebuild_step ~dt c st vnode t =
  let assemble_base () =
    let sys = sys_create ~n:c.n_unknown ~bw:c.bandwidth in
    sys_clear sys;
    let rhs = Array.make c.n_unknown 0. in
    Array.iter (fun (r : resistor) -> stamp c sys rhs vnode r.rn1 r.rn2 r.rg 0.) c.resistors;
    Array.iter
      (fun (cc : companion) ->
        let g = cap_g dt cc in
        stamp c sys rhs vnode cc.n1 cc.n2 g (cap_ieq g cc))
      c.caps;
    Array.iter
      (fun (cc : companion) ->
        let g = ind_g dt cc in
        stamp c sys rhs vnode cc.n1 cc.n2 g (ind_ieq g cc))
      c.inds;
    Array.iteri
      (fun i k ->
        stamp_coupled c sys rhs vnode k st.galpha.(i) st.ieq_k.(i))
      c.coupled;
    Array.iter (fun (s : isource) -> stamp c sys rhs vnode s.sn1 s.sn2 0. (s.samps t)) c.isources;
    (sys, rhs)
  in
  newton ~c ~assemble_base ~vnode ~t

(* Commit companion states after a converged step.  Coupled groups reuse the
   step's alpha*L^-1 and pre-step history sources.  The companion
   conductances come from [st] rather than being re-divided per element per
   step — [make_transient_state] computed them with the exact same
   expressions, so the substitution is bit-identical. *)
let commit_step c st vnode =
  for i = 0 to Array.length c.caps - 1 do
    let cc = c.caps.(i) in
    let h = cc.hist in
    let v = vnode.(cc.n1) -. vnode.(cc.n2) in
    let g = st.caps_g.(i) in
    let icur = (g *. v) -. ((g *. h.v_prev) +. h.i_prev) in
    h.v_prev <- v;
    h.i_prev <- icur
  done;
  for i = 0 to Array.length c.inds - 1 do
    let cc = c.inds.(i) in
    let h = cc.hist in
    let v = vnode.(cc.n1) -. vnode.(cc.n2) in
    let g = st.inds_g.(i) in
    let icur = (g *. v) +. h.i_prev +. (g *. h.v_prev) in
    h.v_prev <- v;
    h.i_prev <- icur
  done;
  for gi = 0 to Array.length c.coupled - 1 do
    let k = c.coupled.(gi) in
    (* galpha/ieq still reference the pre-step state; commit currents
       first, voltages after. *)
    let g = st.galpha.(gi) and ieq = st.ieq_k.(gi) and v_new = st.vnew_k.(gi) in
    let nb = Array.length k.k_branches in
    for p = 0 to nb - 1 do
      let a, b = k.k_branches.(p) in
      v_new.(p) <- vnode.(a) -. vnode.(b)
    done;
    for p = 0 to nb - 1 do
      let acc = ref ieq.(p) in
      for q = 0 to nb - 1 do
        acc := !acc +. (g.(p).(q) *. v_new.(q))
      done;
      k.i_prev_k.(p) <- !acc
    done;
    Array.blit v_new 0 k.v_prev_k 0 nb
  done

(* Companion states from the DC point (inductor/coupled history currents
   through the DC solve's 1 kS short, matching [dc_solve]'s [g_short]). *)
let init_companions c vnode =
  Array.iter
    (fun (cc : companion) ->
      cc.hist.v_prev <- vnode.(cc.n1) -. vnode.(cc.n2);
      cc.hist.i_prev <- 0.)
    c.caps;
  Array.iter
    (fun (cc : companion) ->
      let dv = vnode.(cc.n1) -. vnode.(cc.n2) in
      cc.hist.v_prev <- dv;
      cc.hist.i_prev <- g_short *. dv)
    c.inds;
  Array.iter
    (fun (k : coupled_state) ->
      Array.iteri
        (fun p (a, b) ->
          let dv = vnode.(a) -. vnode.(b) in
          k.v_prev_k.(p) <- dv;
          k.i_prev_k.(p) <- g_short *. dv)
        k.k_branches)
    c.coupled

(* Selective recording: storing all nodes costs O(nodes * steps) memory;
   long-ladder references only ever measure input/near/far.  Returns the
   node -> column map (-1 = unrecorded) and the node-ascending recorded
   list; column ids were assigned in node order, so column [i] is exactly
   [rec_nodes.(i)]'s trace. *)
let record_plan c record_nodes =
  let col_of_node = Array.make c.n_nodes (-1) in
  (match record_nodes with
  | None -> Array.iteri (fun n _ -> col_of_node.(n) <- n) col_of_node
  | Some nodes ->
      List.iter
        (fun n ->
          if n < 0 || n >= c.n_nodes then
            invalid_arg "Engine.transient: record_nodes entry out of range";
          col_of_node.(n) <- 0)
        nodes;
      let next = ref 0 in
      Array.iteri
        (fun n marked ->
          if marked >= 0 then begin
            col_of_node.(n) <- !next;
            incr next
          end)
        col_of_node);
  let rec_nodes =
    let acc = ref [] in
    for n = c.n_nodes - 1 downto 0 do
      if col_of_node.(n) >= 0 then acc := n :: !acc
    done;
    Array.of_list !acc
  in
  (col_of_node, rec_nodes)

(* Recorded waveforms.  A run whose length is known up front allocates it
   exactly; one that steps adaptively or may stop early starts small and
   doubles (amortized O(1), no per-step allocation), and is trimmed at the
   end.  [tr_limit] caps the growth at the longest possible run. *)
type trace = {
  tr_nodes : int array;  (* recorded nodes, in column order *)
  tr_limit : int;
  mutable tr_len : int;
  mutable tr_times : float array;
  mutable tr_cols : float array array;
}

let trace_create rec_nodes ~cap ~limit =
  {
    tr_nodes = rec_nodes;
    tr_limit = limit;
    tr_len = 0;
    tr_times = Array.make cap 0.;
    tr_cols = Array.map (fun _ -> Array.make cap 0.) rec_nodes;
  }

(* Append the recorded nodes' voltages and return the new sample's index.
   The caller stores the sample time there: passing the time in would box
   it on every step. *)
let trace_push tr (vnode : float array) =
  let i = tr.tr_len in
  if i = Array.length tr.tr_times then begin
    let cap = Int.min tr.tr_limit (2 * i) in
    let grow (a : float array) =
      let b = Array.make cap 0. in
      Array.blit a 0 b 0 i;
      b
    in
    tr.tr_times <- grow tr.tr_times;
    tr.tr_cols <- Array.map grow tr.tr_cols
  end;
  for k = 0 to Array.length tr.tr_nodes - 1 do
    tr.tr_cols.(k).(i) <- vnode.(tr.tr_nodes.(k))
  done;
  tr.tr_len <- i + 1;
  i

let trace_finish tr =
  let n = tr.tr_len in
  if n = Array.length tr.tr_times then (tr.tr_times, tr.tr_cols)
  else (Array.sub tr.tr_times 0 n, Array.map (fun a -> Array.sub a 0 n) tr.tr_cols)

type crossing = Netlist.node * float * Waveform.direction

(* The [until] list as flat arrays, plus each crossing's node voltage at
   the last accepted sample.  A crossing is detected between consecutive
   samples with exactly the comparisons of [Waveform.crossings], so when the
   last one fires the recorded prefix already holds every listed first
   crossing, bit for bit. *)
type watch = {
  w_nodes : int array;
  w_levels : float array;
  w_rising : bool array;
  w_prev : float array;
  w_hit : bool array;
  mutable w_pending : int;
}

let watch_create c until (vnode : float array) =
  match until with
  | None | Some [] -> None
  | Some l ->
      let l = Array.of_list l in
      let w_nodes = Array.map (fun ((n : Netlist.node), _, _) -> n) l in
      Array.iter
        (fun n ->
          if n < 0 || n >= c.n_nodes then
            invalid_arg "Engine.transient: until node out of range")
        w_nodes;
      Some
        {
          w_nodes;
          w_levels = Array.map (fun (_, level, _) -> level) l;
          w_rising = Array.map (fun (_, _, dir) -> dir = Waveform.Rising) l;
          w_prev = Array.map (fun n -> vnode.(n)) w_nodes;
          w_hit = Array.make (Array.length l) false;
          w_pending = Array.length l;
        }

(* Advance the watch past the sample just accepted into [vnode]; [true]
   once every listed crossing has happened. *)
let watch_done watch (vnode : float array) =
  match watch with
  | None -> false
  | Some w ->
      for i = 0 to Array.length w.w_nodes - 1 do
        let v = vnode.(w.w_nodes.(i)) in
        if not w.w_hit.(i) then begin
          let p = w.w_prev.(i) and level = w.w_levels.(i) in
          if
            (w.w_rising.(i) && p < level && v >= level)
            || ((not w.w_rising.(i)) && p > level && v <= level)
          then begin
            w.w_hit.(i) <- true;
            w.w_pending <- w.w_pending - 1
          end
        end;
        w.w_prev.(i) <- v
      done;
      w.w_pending = 0

(* [until_peak]: stop once no later sample can raise the node's running
   maximum.  Once every source is flat, the deviation of the state from the
   final DC point x^ obeys the source-free companion recurrence, and its
   stored energy

     W = 1/2 sum C (v - v^)^2 + 1/2 sum L i^2      (no inductor current at x^)

   cannot rise from one step to the next: under the trapezoidal rule a
   capacitor's or inductor's energy change over a step is h times its
   step-averaged voltage times current; KCL holds at both ends of the
   step, so by Tellegen's theorem those terms sum to -h sum G avg(v)^2 <= 0
   over the resistors (forced nodes contribute nothing: their deviation is
   zero).  The node's capacitance to ground or to forced nodes, C_g, alone
   holds 1/2 C_g (v - v^)^2 of W, so every later sample sits at or below
   v^ + sqrt (2 W / C_g).  When that bound clears the running maximum by a
   margin -- [peak_margin] of the peak's excursion above v^ plus a rounding
   floor -- the maximum so far is the maximum of the whole run.  The margin
   dwarfs the rounding of the solves and of x^ itself; x^ is solved with
   capacitors open and inductors as the DC model's 1 mOhm shorts, which is
   exact when no inductor carries DC current (otherwise the run keeps its
   full window). *)
let peak_stride = 16
let peak_margin = 1e-3

type peak_state =
  | Off  (* a precondition failed: the run keeps its full window *)
  | Waiting  (* sources not yet flat, or x^ not yet solved *)
  | Live of { vhat : float array; scale : float  (* max |v^|, for the rounding floor *) }
  | Final

type peak = {
  pk_node : int;
  pk_cg : float;  (* capacitance from the node to ground or forced nodes *)
  pk_flat : float;  (* every source holds its final value from here on *)
  pk_dt : float;  (* the run's step: sample [k] sits at [k * pk_dt] *)
  pk_max : float array;  (* [| running maximum |], kept unboxed *)
  mutable pk_state : peak_state;
}

let peak_create c ~flat_after ~dt until_peak (vnode : float array) =
  match until_peak with
  | None -> None
  | Some n ->
      if n < 0 || n >= c.n_nodes then
        invalid_arg "Engine.transient: until_peak node out of range";
      let anchored m = m = Netlist.ground || c.unknown_of_node.(m) < 0 in
      let cg =
        Array.fold_left
          (fun acc (cc : companion) ->
            if (cc.n1 = n && anchored cc.n2) || (cc.n2 = n && anchored cc.n1) then acc +. cc.value
            else acc)
          0. c.caps
      in
      let certifiable =
        Array.length c.nonlinears = 0
        && Array.length c.isources = 0
        && flat_after < Float.infinity
        && c.unknown_of_node.(n) >= 0
        && cg > 0.
      in
      Some
        {
          pk_node = n;
          pk_cg = cg;
          pk_flat = flat_after;
          pk_dt = dt;
          pk_max = [| vnode.(n) |];
          pk_state = (if certifiable then Waiting else Off);
        }

(* The final DC point with the sources at their values at [t], or [None]
   when it cannot anchor the bound: a capacitor-only node (singular with
   capacitors open), or an inductor carrying DC current, whose 1 mOhm
   short would misplace v^ (the drop test allows only rounding). *)
let final_point c t =
  match dc_solve ~leak:0. c t with
  | exception (Banded.Singular _ | Linalg.Singular _) -> None
  | v ->
      let scale = Array.fold_left (fun acc x -> Float.max acc (Float.abs x)) 0. v in
      let tol = 1e-12 *. scale in
      let carries a b = not (Float.abs (v.(a) -. v.(b)) <= tol) in
      if
        Array.exists (fun (cc : companion) -> carries cc.n1 cc.n2) c.inds
        || Array.exists (fun k -> Array.exists (fun (a, b) -> carries a b) k.k_branches) c.coupled
      then None
      else Some (v, scale)

(* 2 W from the committed companion histories. *)
let deviation_energy2 c (vhat : float array) =
  let w = ref 0. in
  for i = 0 to Array.length c.caps - 1 do
    let cc = c.caps.(i) in
    let dv = cc.hist.v_prev -. (vhat.(cc.n1) -. vhat.(cc.n2)) in
    w := !w +. (cc.value *. dv *. dv)
  done;
  for i = 0 to Array.length c.inds - 1 do
    let cc = c.inds.(i) in
    let di = cc.hist.i_prev in
    w := !w +. (cc.value *. di *. di)
  done;
  Array.iter
    (fun k ->
      let nb = Array.length k.k_branches in
      for p = 0 to nb - 1 do
        for q = 0 to nb - 1 do
          w := !w +. (k.i_prev_k.(p) *. k.k_lmat.(p).(q) *. k.i_prev_k.(q))
        done
      done)
    c.coupled;
  !w

(* Advance the peak watch past the sample just committed at [step]; [true]
   once the running maximum is certified final (and from then on). *)
let rec peak_final c pk (vnode : float array) step =
  let v = vnode.(pk.pk_node) in
  if v > pk.pk_max.(0) then pk.pk_max.(0) <- v;
  match pk.pk_state with
  | Off -> false
  | Final -> true
  | (Waiting | Live _) when step land (peak_stride - 1) <> 0 -> false
  | Waiting ->
      let t = pk.pk_dt *. float_of_int step in
      if t < pk.pk_flat then false
      else begin
        pk.pk_state <-
          (match final_point c t with
          | Some (vhat, scale) -> Live { vhat; scale }
          | None -> Off);
        peak_final c pk vnode step
      end
  | Live { vhat; scale } ->
      let vmax = pk.pk_max.(0) in
      let dev = vmax -. vhat.(pk.pk_node) in
      let margin = (peak_margin *. dev) +. (1e-9 *. Float.max scale (Float.abs vmax)) in
      let final = Float.sqrt (deviation_energy2 c vhat /. pk.pk_cg) +. margin <= dev in
      if final then pk.pk_state <- Final;
      final

(* The fixed-step stop: once every requested condition holds -- each
   [until] crossing seen, the [until_peak] maximum final. *)
let stop_now c watch peak vnode step =
  let crossed = Option.is_none watch || watch_done watch vnode in
  let final = match peak with None -> true | Some pk -> peak_final c pk vnode step in
  (Option.is_some watch || Option.is_some peak) && crossed && final

(* -------------------------------------------------------------- handles *)

(* Every transient runs on a handle: a compiled netlist, every solver state
   built on it (one [transient_state] per step size -- fixed-step states
   and adaptive rung/offcut states share the table, since a state depends
   on nothing else), and the last DC operating point.  [transient] compiles
   a fresh one per call; [Compiled.cached] keeps them across a sweep. *)
type dc_entry = {
  dc_f0 : int64 array;  (* forced-source values at t = 0, bit patterns *)
  dc_i0 : int64 array;  (* current-source values at t = 0, bit patterns *)
  dc_v : float array;
}

type handle = {
  h_c : compiled;
  mutable h_nl : Netlist.t;  (* latest restamp target: breakpoints live here *)
  h_states : (float, transient_state) Hashtbl.t;
  mutable h_dc : dc_entry option;
}

(* The solver state for step [dt], and whether it was just built (what the
   adaptive refactor counter counts): this is where a sweep stops paying
   [make_transient_state] + factorization per run. *)
let state_for h dt =
  match Hashtbl.find_opt h.h_states dt with
  | Some st -> (st, false)
  | None ->
      if Hashtbl.length h.h_states >= 128 then Hashtbl.reset h.h_states;
      let st = make_transient_state h.h_c dt in
      Hashtbl.add h.h_states dt st;
      (st, true)

(* The DC operating point depends only on element values and the source
   values at t = 0; cache it keyed by the latter (bit patterns, so any
   behavioural difference at 0 forces a fresh solve).  Nonlinear circuits
   always re-solve — their Newton iteration isn't worth fingerprinting. *)
let dc_for h =
  let c = h.h_c in
  if Array.length c.nonlinears > 0 then dc_solve c 0.
  else begin
    let f0 = Array.map (fun fs -> Int64.bits_of_float (fs.fsrc 0.)) c.forced in
    let i0 = Array.map (fun (s : isource) -> Int64.bits_of_float (s.samps 0.)) c.isources in
    match h.h_dc with
    | Some e when e.dc_f0 = f0 && e.dc_i0 = i0 -> Array.copy e.dc_v
    | _ ->
        let v = dc_solve c 0. in
        h.h_dc <- Some { dc_f0 = f0; dc_i0 = i0; dc_v = Array.copy v };
        v
  end

(* ------------------------------------------------------------- adaptive *)

type adaptive = { dt_min : float; dt_max : float; ltol : float }

let default_adaptive ?(dt_min = 0.25e-12) ?dt_max ?(ltol = 1e-2) () =
  let dt_max = match dt_max with Some v -> v | None -> dt_min *. 256. in
  { dt_min; dt_max; ltol }

(* Grow the rung only after this many consecutive accepted steps whose LTE
   estimate sits comfortably inside the budget. *)
let grow_after = 2
let grow_margin = 0.25

(* LTE-controlled stepper.  Step sizes live on the quantized ladder
   [h = dt_min * 2^k] so the per-h factorization from [make_transient_state]
   is built at most once per rung and reused across every step taken at
   that rung; only breakpoint-clamped "offcut" steps (one per arrival at a
   source kink) may need a system of their own.

   The local truncation error of each attempted step is estimated as the
   gap between the corrector solution and a quadratic extrapolation through
   the last three accepted points (divided differences, so non-uniform
   history is handled); both scale with h^3 * v''', so the gap tracks the
   trapezoidal LTE.  A step whose estimate exceeds [ltol] is rolled back —
   the solve only mutates [vnode], and companion history is only advanced
   by [commit_step] after acceptance, so rejection is a single vector
   restore — and retried one rung down.  Rung-0 steps are always accepted:
   [dt_min] is the accuracy floor.

   Breakpoints (source kinks declared on the netlist, plus [t_stop]) are
   landed on exactly; landing resets the predictor history and drops back
   to rung 0, since the waveform is not smooth across a kink.

   Rung and offcut states alike come from the handle's table, keyed by
   step size; the refactor counter counts the ones built during the run. *)
let adaptive_core ~obs ~record_nodes ~until ~t_stop (a : adaptive) h =
  let c = h.h_c in
  let vnode = Obs.time obs "engine.dc_solve" (fun () -> dc_for h) in
  init_companions c vnode;
  let n_nodes = c.n_nodes in
  let kmax =
    let k = ref 0 in
    while !k < 60 && ldexp a.dt_min (!k + 1) <= a.dt_max do
      incr k
    done;
    !k
  in
  let bps =
    let l = List.filter (fun b -> b > 0. && b < t_stop) (Netlist.breakpoints h.h_nl) in
    Array.of_list (l @ [ t_stop ])
  in
  let col_of_node, rec_nodes = record_plan c record_nodes in
  let watch = watch_create c until vnode in
  let stopped = ref false in
  (* The accepted-step count is data-dependent, so the recorded waveforms
     live in growing buffers. *)
  let tr = trace_create rec_nodes ~cap:256 ~limit:max_int in
  let i0 = trace_push tr vnode in
  tr.tr_times.(i0) <- 0.;
  (* Predictor history: the last three accepted (t, vnode) samples, rotated
     by reference swap so the hot loop never allocates. *)
  let h0v = ref (Array.make n_nodes 0.)
  and h1v = ref (Array.make n_nodes 0.)
  and h2v = ref (Array.make n_nodes 0.) in
  let h0t = ref 0. and h1t = ref 0. and h2t = ref 0. in
  let nh = ref 0 in
  let push_hist tm =
    let tmp = !h0v in
    h0v := !h1v;
    h1v := !h2v;
    h2v := tmp;
    h0t := !h1t;
    h1t := !h2t;
    h2t := tm;
    Array.blit vnode 0 !h2v 0 n_nodes;
    if !nh < 3 then incr nh
  in
  push_hist 0.;
  let v_save = Array.make n_nodes 0. in
  (* Worst |corrector - quadratic extrapolation| over the unknown nodes
     (forced nodes are exact by construction). *)
  let pred_err t_new =
    let va = !h0v and vb = !h1v and vc = !h2v in
    let ta = !h0t and tb = !h1t and tc = !h2t in
    let dab = tb -. ta and dbc = tc -. tb and dac = tc -. ta in
    let x1 = t_new -. ta and x2 = t_new -. tb in
    let uon = c.unknown_of_node in
    let worst = ref 0. in
    for n = 1 to n_nodes - 1 do
      if uon.(n) >= 0 then begin
        let f_ab = (vb.(n) -. va.(n)) /. dab in
        let f_bc = (vc.(n) -. vb.(n)) /. dbc in
        let f2 = (f_bc -. f_ab) /. dac in
        let p = va.(n) +. (x1 *. (f_ab +. (x2 *. f2))) in
        let e = Float.abs (vnode.(n) -. p) in
        if e > !worst then worst := e
      end
    done;
    !worst
  in
  let refactors = ref 0 in
  let total_newton = ref 0 and worst_newton = ref 0 in
  let rejected = ref 0 in
  let k = ref 0 and consec = ref 0 and bpi = ref 0 in
  let t = ref 0. in
  (* Steps that would leave a sliver shorter than half a rung-0 step before
     the next breakpoint are stretched to land on it instead. *)
  let slack = 0.5 *. a.dt_min in
  let n_bps = Array.length bps in
  let step_t0 = Obs.start obs in
  let dl_tick = ref 0 in
  while !bpi < n_bps && not !stopped do
    incr dl_tick;
    if !dl_tick land (deadline_stride - 1) = 0 then Deadline.check_ambient ();
    let bp = bps.(!bpi) in
    let rung_h = ldexp a.dt_min !k in
    let clamped = !t +. rung_h >= bp -. slack in
    let h_eff = if clamped then bp -. !t else rung_h in
    let t_new = if clamped then bp else !t +. rung_h in
    let st, fresh = state_for h h_eff in
    if fresh then incr refactors;
    Array.blit vnode 0 v_save 0 n_nodes;
    update_forced c vnode t_new;
    for i = 0 to Array.length c.coupled - 1 do
      coupled_ieq_into c.coupled.(i) st.galpha.(i) st.ieq_k.(i)
    done;
    let verdict =
      match fast_step c st vnode t_new with
      | iters ->
          (* err < 0 means "no estimate yet" (fewer than three accepted
             points since the start or the last kink). *)
          let err = if !nh >= 3 then pred_err t_new else -1. in
          if !k = 0 || err < 0. || err <= a.ltol then Some (iters, err) else None
      | exception (Failure _ | Newton_diverged _) when !k > 0 -> None
    in
    match verdict with
    | None ->
        Array.blit v_save 0 vnode 0 n_nodes;
        incr rejected;
        k := Int.max 0 (!k - 1);
        consec := 0
    | Some (iters, err) ->
        total_newton := !total_newton + iters;
        worst_newton := Int.max !worst_newton iters;
        commit_step c st vnode;
        t := t_new;
        let i = trace_push tr vnode in
        tr.tr_times.(i) <- t_new;
        push_hist t_new;
        if watch_done watch vnode then stopped := true;
        Obs.observe obs "engine.step_size_ns" (h_eff *. 1e9);
        if clamped then begin
          incr bpi;
          k := 0;
          consec := 0;
          (* The source is not smooth across the kink just landed on:
             restart the predictor from this point only. *)
          nh := 1
        end
        else begin
          if err >= 0. && err <= grow_margin *. a.ltol then incr consec else consec := 0;
          if !consec >= grow_after && !k < kmax then begin
            k := !k + 1;
            consec := 0
          end
        end
  done;
  let times_, cols = trace_finish tr in
  let n_steps = Array.length times_ - 1 in
  if Obs.enabled obs then begin
    let path =
      if Array.length c.nonlinears = 0 then "adaptive-linear" else "adaptive-newton"
    in
    Obs.finish obs
      ~args:
        [
          ("steps", string_of_int n_steps);
          ("rejected", string_of_int !rejected);
          ("refactors", string_of_int !refactors);
          ("newton_total", string_of_int !total_newton);
          ("path", path);
        ]
      "engine.step_loop" step_t0;
    Obs.incr obs "engine.transients";
    Obs.add obs "engine.steps" n_steps;
    Obs.add obs "engine.newton_iters" !total_newton;
    Obs.add obs "engine.steps_rejected" !rejected;
    Obs.add obs "engine.refactors" !refactors
  end;
  {
    times_;
    col_of_node;
    cols;
    total_newton = !total_newton;
    worst_newton = !worst_newton;
    rejected_ = !rejected;
    refactors_ = !refactors;
  }

(* Fixed-step stepping; like [adaptive_core] it takes its DC point and
   solver state from the handle. *)
let fixed_core ~obs ~record_nodes ~until ~until_peak ~reassemble_per_step ~dt ~t_stop h =
  let c = h.h_c in
  (* Tiny epsilon guards float-division noise (1e-9 / 10e-12 is slightly
     above 100) from adding a spurious extra step. *)
  let n_steps = Int.max 1 (int_of_float (Float.ceil ((t_stop /. dt) -. 1e-9))) in
  let vnode = Obs.time obs "engine.dc_solve" (fun () -> dc_for h) in
  init_companions c vnode;
  let col_of_node, rec_nodes = record_plan c record_nodes in
  let watch = watch_create c until vnode in
  let peak = peak_create c ~flat_after:(Netlist.flat_after h.h_nl) ~dt until_peak vnode in
  (* A run that cannot stop early records into buffers of its exact length;
     one that may stop starts small and grows. *)
  let tr =
    trace_create rec_nodes ~limit:(n_steps + 1)
      ~cap:
        (if Option.is_none watch && Option.is_none peak then n_steps + 1
         else Int.min (n_steps + 1) 256)
  in
  let i0 = trace_push tr vnode in
  tr.tr_times.(i0) <- 0.;
  let st = Obs.time obs "engine.factor" (fun () -> fst (state_for h dt)) in
  let total_newton = ref 0 and worst_newton = ref 0 in
  let step = ref 0 and stopped = ref false in
  let step_t0 = Obs.start obs in
  (match (st.linear_fact, reassemble_per_step) with
  | Some f, false ->
      (* Linear fast path, fully specialized: one factored solve per step,
         no per-step dispatch.  The forced-source update is open-coded and
         the isource term split off so that (for the common forced-input
         circuit) no float crosses a non-inlined call boundary per step. *)
      let n_forced = Array.length c.forced in
      let n_coupled = Array.length c.coupled in
      let has_isources = Array.length c.isources > 0 in
      while (not !stopped) && !step < n_steps do
        incr step;
        let step = !step in
        if step land (deadline_stride - 1) = 0 then Deadline.check_ambient ();
        let t = dt *. float_of_int step in
        for i = 0 to n_forced - 1 do
          let fs = c.forced.(i) in
          vnode.(fs.fnode) <- fs.fsrc t
        done;
        for i = 0 to n_coupled - 1 do
          coupled_ieq_into c.coupled.(i) st.galpha.(i) st.ieq_k.(i)
        done;
        assemble_rhs_hist c st st.rhs vnode;
        if has_isources then add_isources_rhs c st.rhs t;
        factored_solve f st.rhs st.xsol;
        scatter_solution c vnode st.rhs;
        commit_step c st vnode;
        let i = trace_push tr vnode in
        tr.tr_times.(i) <- t;
        stopped := stop_now c watch peak vnode step
      done;
      total_newton := !step;
      worst_newton := 1
  | _ ->
      let step_fn = if reassemble_per_step then rebuild_step ~dt else fast_step in
      while (not !stopped) && !step < n_steps do
        incr step;
        let step = !step in
        if step land (deadline_stride - 1) = 0 then Deadline.check_ambient ();
        let t = dt *. float_of_int step in
        update_forced c vnode t;
        (* Coupled-group history sources for this step (pre-step state),
           shared by assembly and commit. *)
        for i = 0 to Array.length c.coupled - 1 do
          coupled_ieq_into c.coupled.(i) st.galpha.(i) st.ieq_k.(i)
        done;
        let iters = step_fn c st vnode t in
        total_newton := !total_newton + iters;
        worst_newton := Int.max !worst_newton iters;
        commit_step c st vnode;
        let i = trace_push tr vnode in
        tr.tr_times.(i) <- t;
        stopped := stop_now c watch peak vnode step
      done);
  let n_steps = !step in
  if Obs.enabled obs then begin
    let path =
      match (st.linear_fact, reassemble_per_step) with
      | Some _, false -> "linear-fast"
      | None, false -> "newton-fast"
      | _, true -> "rebuild"
    in
    Obs.finish obs
      ~args:
        [
          ("steps", string_of_int n_steps);
          ("newton_total", string_of_int !total_newton);
          ("path", path);
        ]
      "engine.step_loop" step_t0;
    Obs.incr obs "engine.transients";
    Obs.add obs "engine.steps" n_steps;
    Obs.add obs "engine.newton_iters" !total_newton
  end;
  let times_, cols = trace_finish tr in
  {
    times_;
    col_of_node;
    cols;
    total_newton = !total_newton;
    worst_newton = !worst_newton;
    rejected_ = 0;
    refactors_ = 0;
  }

let times r = Array.copy r.times_

let is_recorded r n = n >= 0 && n < Array.length r.col_of_node && r.col_of_node.(n) >= 0

let voltage r n =
  if not (is_recorded r n) then
    invalid_arg
      (Printf.sprintf "Engine.voltage: node %d was not recorded (pass it in ~record_nodes)" n);
  Waveform.create ~ts:r.times_ ~vs:r.cols.(r.col_of_node.(n))

let voltage_at r n t =
  let w = voltage r n in
  Waveform.value_at w t

let newton_total r = r.total_newton
let newton_worst r = r.worst_newton
let steps r = Array.length r.times_ - 1
let steps_rejected r = r.rejected_
let refactors r = r.refactors_

(* Compile-once transient handles for candidate sweeps.  [restamp] writes
   new element values into the existing structure without reallocating;
   only a matrix-affecting value change (R/C/L/L-matrix) invalidates the
   cached states and DC point, so a sweep that only swaps the input source
   pays zero re-factorization.  A reused handle is bit-identical to a fresh
   one: its cached states and DC point hold the same floats, computed by
   the same expressions in the same order. *)
module Compiled = struct
  type nonrec handle = handle

  let compile ?(obs = Obs.null) netlist =
    let c = Obs.time obs "engine.compile" (fun () -> compile netlist) in
    { h_c = c; h_nl = netlist; h_states = Hashtbl.create 8; h_dc = None }

  let structure_err () =
    invalid_arg
      "Engine.Compiled.restamp: netlist structure does not match the compiled handle"

  (* Write the new netlist's element values into the compiled slots,
     validating structure (kinds and node pairs in insertion order) as we
     go.  Value changes that alter the nodal matrix mark the handle dirty;
     source/nonlinear closures are swapped without invalidating anything
     (the DC cache re-validates against source values at t = 0 on its
     own).  On a structure mismatch the handle may be partially restamped;
     callers either re-restamp with a matching netlist or rebuild. *)
  let restamp h newnl =
    let c = h.h_c in
    if Netlist.node_count newnl <> c.n_nodes then structure_err ();
    let nf = ref 0 in
    List.iter
      (fun (n, f) ->
        if !nf >= Array.length c.forced then structure_err ();
        let fs = c.forced.(!nf) in
        incr nf;
        if fs.fnode <> n then structure_err ();
        fs.fsrc <- f)
      (Netlist.forced newnl);
    if !nf <> Array.length c.forced then structure_err ();
    let dirty = ref false in
    let ri = ref 0 and ci = ref 0 and li = ref 0 and si = ref 0 and ki = ref 0 and ni = ref 0 in
    List.iter
      (fun (e : Netlist.element) ->
        match e with
        | Resistor { n1; n2; ohms; _ } ->
            if !ri >= Array.length c.resistors then structure_err ();
            let r = c.resistors.(!ri) in
            incr ri;
            if r.rn1 <> n1 || r.rn2 <> n2 then structure_err ();
            let g = 1. /. ohms in
            if r.rg <> g then begin
              r.rg <- g;
              dirty := true
            end
        | Capacitor { n1; n2; farads; _ } ->
            if !ci >= Array.length c.caps then structure_err ();
            let cc = c.caps.(!ci) in
            incr ci;
            if cc.n1 <> n1 || cc.n2 <> n2 then structure_err ();
            if cc.value <> farads then begin
              cc.value <- farads;
              dirty := true
            end
        | Inductor { n1; n2; henries; _ } ->
            if !li >= Array.length c.inds then structure_err ();
            let cc = c.inds.(!li) in
            incr li;
            if cc.n1 <> n1 || cc.n2 <> n2 then structure_err ();
            if cc.value <> henries then begin
              cc.value <- henries;
              dirty := true
            end
        | Current_source { n1; n2; amps; _ } ->
            if !si >= Array.length c.isources then structure_err ();
            let s = c.isources.(!si) in
            incr si;
            if s.sn1 <> n1 || s.sn2 <> n2 then structure_err ();
            s.samps <- amps
        | Coupled_inductors { cp_branches; cp_lmat; _ } ->
            if !ki >= Array.length c.coupled then structure_err ();
            let k = c.coupled.(!ki) in
            incr ki;
            if Array.length k.k_branches <> Array.length cp_branches then structure_err ();
            Array.iteri
              (fun p (a, b) ->
                let a', b' = k.k_branches.(p) in
                if a <> a' || b <> b' then structure_err ())
              cp_branches;
            let same = ref true in
            Array.iteri
              (fun i row ->
                Array.iteri (fun j v -> if k.k_lmat.(i).(j) <> v then same := false) row)
              cp_lmat;
            if not !same then begin
              k.k_lmat <- Array.map Array.copy cp_lmat;
              k.linv <- invert cp_lmat;
              dirty := true
            end
        | Nonlinear nl ->
            if !ni >= Array.length c.nonlinears then structure_err ();
            let old = c.nonlinears.(!ni) in
            if old.nl_nodes <> nl.nl_nodes then structure_err ();
            c.nonlinears.(!ni) <- nl;
            incr ni)
      (Netlist.elements newnl);
    if
      !ri <> Array.length c.resistors
      || !ci <> Array.length c.caps
      || !li <> Array.length c.inds
      || !si <> Array.length c.isources
      || !ki <> Array.length c.coupled
      || !ni <> Array.length c.nonlinears
    then structure_err ();
    h.h_nl <- newnl;
    if !dirty then begin
      Hashtbl.reset h.h_states;
      h.h_dc <- None
    end

  (* The engine's one argument check comes first.  Each test is written so
     that NaN fails it; [dt] is unused under [adaptive]. *)
  let run ?(obs = Obs.null) ?record_nodes ?until ?until_peak ?(reassemble_per_step = false)
      ?adaptive ~dt ~t_stop h =
    let finite_positive x = x > 0. && x < Float.infinity in
    let bad what = invalid_arg ("Engine.transient: " ^ what) in
    if not (finite_positive t_stop) then bad "t_stop must be positive and finite";
    match adaptive with
    | Some a ->
        if reassemble_per_step then bad "adaptive and reassemble_per_step are exclusive";
        if not (finite_positive a.dt_min) then bad "adaptive dt_min must be positive and finite";
        if not (a.dt_max >= a.dt_min) then bad "adaptive dt_max must be at least dt_min";
        if not (a.ltol > 0.) then bad "adaptive ltol must be positive";
        adaptive_core ~obs ~record_nodes ~until ~t_stop a h
    | None ->
        if not (finite_positive dt) then bad "dt must be positive and finite";
        fixed_core ~obs ~record_nodes ~until ~until_peak ~reassemble_per_step ~dt ~t_stop h

  (* The handle cache's structure key hashes topology only — node count
     plus two independent polynomial hashes over (kind, nodes) in
     insertion order; a collision is caught by [restamp]'s structural
     validation and falls back to a rebuild. *)
  let structure_key netlist =
    let a = ref (Netlist.node_count netlist) and b = ref 17 in
    let add x =
      a := (!a * 31) + x;
      b := (!b * 131) + x
    in
    List.iter (fun ((n : int), _) -> add ((3 * n) + 1)) (Netlist.forced netlist);
    List.iter
      (fun (e : Netlist.element) ->
        match e with
        | Resistor { n1; n2; _ } ->
            add 11;
            add n1;
            add n2
        | Capacitor { n1; n2; _ } ->
            add 13;
            add n1;
            add n2
        | Inductor { n1; n2; _ } ->
            add 19;
            add n1;
            add n2
        | Current_source { n1; n2; _ } ->
            add 23;
            add n1;
            add n2
        | Coupled_inductors { cp_branches; _ } ->
            add 29;
            Array.iter
              (fun ((x : int), (y : int)) ->
                add x;
                add y)
              cp_branches
        | Nonlinear nl ->
            add 37;
            Array.iter add nl.nl_nodes)
      (Netlist.elements netlist);
    (Netlist.node_count netlist, !a, !b)

  (* Every run mutates a handle's scratch, so the key also names the
     domain that built it, and handles are never shared across domains.  A
     crosstalk flow uses at most five structures a domain. *)
  let handles : (Domain.id * (int * int * int), handle) Rlc_obs.Memo.t =
    Rlc_obs.Memo.create ~capacity:256 ()

  let cache_stats () = Rlc_obs.Memo.stats handles
  let clear_cache () = Rlc_obs.Memo.clear handles

  let cached ?(obs = Obs.null) netlist =
    let key = (Domain.self (), structure_key netlist) in
    match Rlc_obs.Memo.find_or_add handles key (fun () -> compile ~obs netlist) with
    | h, false ->
        Obs.incr obs "engine.handle.misses";
        h
    | h, true -> (
        match restamp h netlist with
        | () ->
            Obs.incr obs "engine.handle.hits";
            h
        | exception Invalid_argument _ ->
            (* Key collision (or a half-restamped handle from a previous
               collision): rebuild and let the new handle own the slot. *)
            Obs.incr obs "engine.handle.misses";
            let h = compile ~obs netlist in
            Rlc_obs.Memo.replace handles key h;
            h)
end

let transient ?obs ?record_nodes ?until ?until_peak ?reassemble_per_step ?adaptive ~dt ~t_stop
    netlist =
  Compiled.run ?obs ?record_nodes ?until ?until_peak ?reassemble_per_step ?adaptive ~dt ~t_stop
    (Compiled.compile ?obs netlist)
