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

(* The two-terminal elements of one class -- resistors, capacitors or
   inductors -- as parallel arrays in insertion order: end nodes, their
   unknowns (-1 for ground and forced nodes), values (conductance for
   resistors, farads, henries; [restamp] writes them in place) and, for
   capacitors and inductors, the companion history of the last accepted
   step.  Float arrays are flat, so a history update is an unboxed store. *)
type branches = {
  n1 : int array;
  n2 : int array;
  u1 : int array;
  u2 : int array;
  value : float array;
  v_prev : float array;
  i_prev : float array;
}

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

(* [forced_res] lists, in insertion order, the resistors with exactly one
   unknown end (the other forced or ground): a resistor between two
   unknowns puts nothing on the right-hand side.  [scatter_node] /
   [scatter_unk] pair every non-ground, non-forced node with its unknown.
   Every index in these arrays and in [res]/[caps]/[inds] is checked by
   [compile]: a node is below [n_nodes], an unknown below [n_unknown], a
   resistor index below the resistor count.  The per-step element passes
   index with them unchecked on that invariant, into node vectors of
   length [n_nodes] and right-hand sides of length [n_unknown]. *)
type compiled = {
  n_nodes : int;
  n_unknown : int;
  unknown_of_node : int array;  (* -1 for ground and forced nodes *)
  forced : forced_src array;
  res : branches;
  caps : branches;
  inds : branches;
  forced_res : int array;
  scatter_node : int array;
  scatter_unk : int array;
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

let branches_of unknown_of_node l =
  let l = Array.of_list (List.rev l) in
  let n1 = Array.map (fun (a, _, _) -> a) l and n2 = Array.map (fun (_, b, _) -> b) l in
  {
    n1;
    n2;
    u1 = Array.map (fun n -> unknown_of_node.(n)) n1;
    u2 = Array.map (fun n -> unknown_of_node.(n)) n2;
    value = Array.map (fun (_, _, v) -> v) l;
    v_prev = Array.make (Array.length l) 0.;
    i_prev = Array.make (Array.length l) 0.;
  }

let compile netlist =
  Netlist.validate netlist;
  let n_nodes = Netlist.node_count netlist in
  let node n =
    if n < 0 || n >= n_nodes then invalid_arg "Engine.compile: node out of range";
    n
  in
  let forced =
    Array.of_list
      (List.map (fun (n, f) -> { fnode = node n; fsrc = f }) (Netlist.forced netlist))
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
      | Resistor { n1; n2; ohms; _ } -> rs := (node n1, node n2, 1. /. ohms) :: !rs
      | Capacitor { n1; n2; farads; _ } -> cs := (node n1, node n2, farads) :: !cs
      | Inductor { n1; n2; henries; _ } -> ls := (node n1, node n2, henries) :: !ls
      | Current_source { n1; n2; amps; _ } ->
          is_ := { sn1 = node n1; sn2 = node n2; samps = amps } :: !is_
      | Coupled_inductors { cp_branches; cp_lmat; _ } ->
          let k = Array.length cp_branches in
          ks :=
            {
              k_branches = Array.map (fun (a, b) -> (node a, node b)) cp_branches;
              k_lmat = Array.map Array.copy cp_lmat;
              linv = invert cp_lmat;
              i_prev_k = Array.make k 0.;
              v_prev_k = Array.make k 0.;
            }
            :: !ks
      | Nonlinear nl ->
          Array.iter (fun n -> ignore (node n)) nl.nl_nodes;
          nls := nl :: !nls)
    (Netlist.elements netlist);
  let res = branches_of unknown_of_node !rs in
  let caps = branches_of unknown_of_node !cs in
  let inds = branches_of unknown_of_node !ls in
  let pair_band n1 n2 =
    let u1 = unknown_of_node.(n1) and u2 = unknown_of_node.(n2) in
    if u1 >= 0 && u2 >= 0 then abs (u1 - u2) else 0
  in
  let bw = ref 1 in
  List.iter
    (fun (b : branches) -> Array.iteri (fun i a -> bw := Int.max !bw (pair_band a b.n2.(i))) b.n1)
    [ res; caps; inds ];
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
  let one_unknown_end i = (res.u1.(i) >= 0) <> (res.u2.(i) >= 0) in
  let scatter = List.filter (fun n -> unknown_of_node.(n) >= 0) (List.init n_nodes Fun.id) in
  {
    n_nodes;
    n_unknown;
    unknown_of_node;
    forced;
    res;
    caps;
    inds;
    forced_res =
      Array.of_list (List.filter one_unknown_end (List.init (Array.length res.value) Fun.id));
    scatter_node = Array.of_list scatter;
    scatter_unk = Array.of_list (List.map (fun n -> unknown_of_node.(n)) scatter);
    coupled = Array.of_list (List.rev !ks);
    isources = Array.of_list (List.rev !is_);
    nonlinears = Array.of_list (List.rev !nls);
    bandwidth = !bw;
  }

(* Trapezoidal companion conductances for a fixed dt: time-invariant, so
   the fast path computes them once per transient. *)
let cap_g dt farads = 2. *. farads /. dt
let ind_g dt henries = dt /. (2. *. henries)

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

(* Per-branch history sources of a coupled group for the current step,
   from its [g = alpha L^{-1}]. *)
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

(* One nonlinear device's evaluation buffers ([Netlist.nonlinear]'s [v],
   [i] and row-major [g], owned here so an evaluation allocates nothing)
   and its stamp targets: each node's unknown (-1 for ground and forced
   nodes) and, on a banded system, the data position of each (row,
   column) pair of unknowns, row-major like [g] (-1 where either is
   absent). *)
type device = {
  dv_v : float array;
  dv_i : float array;
  dv_g : float array;
  dv_u : int array;
  dv_at : int array;
}

(* Buffers for every device of [c], with positions in [sys]'s shape. *)
let devices c sys =
  Array.map
    (fun (dev : Netlist.nonlinear) ->
      let nn = Array.length dev.nl_nodes in
      let u = Array.map (fun n -> c.unknown_of_node.(n)) dev.nl_nodes in
      {
        dv_v = Array.make nn 0.;
        dv_i = Array.make nn 0.;
        dv_g = Array.make (nn * nn) 0.;
        dv_u = u;
        dv_at =
          Array.init (nn * nn) (fun kj ->
              let uk = u.(kj / nn) and uj = u.(kj mod nn) in
              match sys with B b when uk >= 0 && uj >= 0 -> Banded.index b uk uj | _ -> -1);
      })
    c.nonlinears

(* Evaluate every device at [vnode] and stamp its linearization: the
   Jacobian into [sys], the equivalent current into [rhs].  Per device,
   row by row, the Jacobian's entries add in column order and the current
   accumulates from -i(k) the same way, as [Banded.add] / a dense add
   would; [devs] must come from [devices] on a system of [sys]'s shape. *)
let stamp_devices c (devs : device array) sys (rhs : float array) (vnode : float array) =
  for d = 0 to Array.length devs - 1 do
    let dv = devs.(d) and dev = c.nonlinears.(d) in
    let v = dv.dv_v and i = dv.dv_i and g = dv.dv_g and u = dv.dv_u and at = dv.dv_at in
    let nn = Array.length u in
    for k = 0 to nn - 1 do
      v.(k) <- vnode.(dev.nl_nodes.(k))
    done;
    dev.nl_eval v i g;
    for k = 0 to nn - 1 do
      let uk = u.(k) in
      if uk >= 0 then begin
        let acc = ref (-.i.(k)) in
        for j = 0 to nn - 1 do
          let uj = u.(j) in
          if uj >= 0 then begin
            let gkj = g.((k * nn) + j) in
            (match sys with
            | B b ->
                let data = Banded.data b and p = at.((k * nn) + j) in
                data.(p) <- data.(p) +. gkj
            | D m -> m.(uk).(uj) <- m.(uk).(uj) +. gkj);
            acc := !acc +. (gkj *. v.(j))
          end
        done;
        rhs.(uk) <- rhs.(uk) +. !acc
      end
    done
  done

(* Move [vnode] toward the Newton solution [x] (indexed by unknown), node
   by node in ascending order, each move clamped to [dv_limit]; [true]
   once no unknown moved by [newton_tol] or more.  It is [newton]'s
   [Float.max]/[Float.min] update written with plain comparisons: [worst]
   is only compared, and it is below the tolerance exactly when every
   |dv| is (a NaN fails both); the clamp returns [dv] itself inside the
   limits, at a limit and when it is NaN, as the [Float] pair does.
   Calling [Float.max] and [Float.min] cost more than the factorization.
   The scatter arrays index unchecked on [compiled]'s invariant, [x] holds
   [n_unknown] entries and [vnode] [n_nodes]. *)
let newton_update c (vnode : float array) (x : float array) =
  let sn = c.scatter_node and su = c.scatter_unk in
  let converged = ref true in
  for k = 0 to Array.length sn - 1 do
    let n = Array.unsafe_get sn k in
    let v = Array.unsafe_get vnode n in
    let dv = Array.unsafe_get x (Array.unsafe_get su k) -. v in
    if not (Float.abs dv < newton_tol) then converged := false;
    let dv = if dv > dv_limit then dv_limit else if dv < -.dv_limit then -.dv_limit else dv in
    Array.unsafe_set vnode n (v +. dv)
  done;
  !converged

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

(* [stamp_devices] for one device, the reference way: fresh evaluation
   buffers and [sys_add] per entry, in the same order. *)
let stamp_nonlinear c sys rhs vnode (dev : Netlist.nonlinear) =
  let nn = Array.length dev.nl_nodes in
  let v = Array.map (fun n -> vnode.(n)) dev.nl_nodes in
  let i = Array.make nn 0. and g = Array.make (nn * nn) 0. in
  dev.nl_eval v i g;
  for k = 0 to nn - 1 do
    let uk = c.unknown_of_node.(dev.nl_nodes.(k)) in
    if uk >= 0 then begin
      let acc = ref (-.i.(k)) in
      for j = 0 to nn - 1 do
        let uj = c.unknown_of_node.(dev.nl_nodes.(j)) in
        if uj >= 0 then begin
          sys_add sys uk uj g.((k * nn) + j);
          acc := !acc +. (g.((k * nn) + j) *. v.(j))
        end
      done;
      rhs.(uk) <- rhs.(uk) +. !acc
    end
  done

(* Newton loop on top of a base (linear part) assembly function — the
   rebuild-everything path, used for the DC operating point (once per
   transient) and as the [reassemble_per_step] reference stepper.  It
   keeps its own stamping and update, so the reference run checks the
   step kernels' [stamp_devices] and [newton_update]. *)
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
    let each (b : branches) g =
      for i = 0 to Array.length b.value - 1 do
        stamp c sys rhs vnode b.n1.(i) b.n2.(i) (g i) 0.
      done
    in
    each c.res (fun i -> c.res.value.(i));
    each c.inds (fun _ -> g_short);
    Array.iter
      (fun (k : coupled_state) ->
        Array.iter (fun (a, b) -> stamp c sys rhs vnode a b g_short 0.) k.k_branches)
      c.coupled;
    (* Capacitors are open at DC, but a node connected only through
       capacitors would make the matrix singular; a tiny leak conductance
       pins such nodes without perturbing the solution elsewhere. *)
    each c.caps (fun _ -> leak);
    Array.iter (fun (s : isource) -> stamp c sys rhs vnode s.sn1 s.sn2 0. (s.samps t)) c.isources;
    (sys, rhs)
  in
  let _ = newton ~c ~assemble_base ~vnode ~t in
  vnode

let dc_operating_point netlist = dc_solve (compile netlist) 0.

(* How a step solves its system: a linear circuit's matrix, factored once in
   place; a nonlinear circuit's pre-stamped linear part with its right-hand
   side, copied into Newton scratch per iteration.  A circuit without
   unknowns solves nothing. *)
type solver = Factored of factored | Newton of newton | Nothing

(* [base] and [base_rhs]: the linear part, pre-stamped, and the step's
   right-hand side; [newton_sys]: the iteration's copy, stamped with the
   devices through [devs] and factored in place. *)
and newton = { base : sys; base_rhs : float array; newton_sys : sys; devs : device array }

(* Per-transient solver state for the fast path: everything that is
   time-invariant for a fixed dt is computed once here --
   companion conductances, the assembled linear system matrix, the
   coupled-group alpha*L^-1 matrices, and all solver scratch. *)
type transient_state = {
  caps_g : float array;
  inds_g : float array;
  galpha : float array array array;  (* per coupled group *)
  ieq_k : float array array;  (* per-group history scratch, refreshed per step *)
  vnew_k : float array array;  (* per-group commit scratch (post-step branch voltages) *)
  isrc : float array;  (* current-source values at the step being taken *)
  rhs : float array;
  xsol : float array;  (* dense-solve unpermute scratch *)
  solver : solver;
}

let make_transient_state c dt =
  let caps_g = Array.map (cap_g dt) c.caps.value in
  let inds_g = Array.map (ind_g dt) c.inds.value in
  let alpha = dt /. 2. in
  let galpha =
    Array.map (fun (k : coupled_state) -> Array.map (Array.map (fun v -> alpha *. v)) k.linv) c.coupled
  in
  let per_group f =
    Array.map (fun (k : coupled_state) -> f (Array.length k.k_branches)) c.coupled
  in
  let base = sys_create ~n:c.n_unknown ~bw:c.bandwidth in
  (* Assembly order mirrors the rebuild path: resistors, caps, inductors,
     coupled groups (current sources carry no conductance). *)
  let mat (b : branches) g = Array.iteri (fun i a -> stamp_mat c base a b.n2.(i) g.(i)) b.n1 in
  mat c.res c.res.value;
  mat c.caps caps_g;
  mat c.inds inds_g;
  Array.iteri (fun i k -> stamp_coupled_mat c base k galpha.(i)) c.coupled;
  let solver =
    if c.n_unknown = 0 then Nothing
    else if Array.length c.nonlinears = 0 then Factored (factorize base)
    else
      let newton_sys = sys_copy base in
      Newton
        { base; base_rhs = Array.make c.n_unknown 0.; newton_sys; devs = devices c newton_sys }
  in
  {
    caps_g;
    inds_g;
    galpha;
    ieq_k = per_group (fun nb -> Array.make nb 0.);
    vnew_k = per_group (fun nb -> Array.make nb 0.);
    isrc = Array.make (Array.length c.isources) 0.;
    rhs = Array.make c.n_unknown 0.;
    xsol = Array.make c.n_unknown 0.;
    solver;
  }

(* ------------------------------------------------------- element passes *)

(* The per-step element passes every stepper shares: set the sources,
   assemble the right-hand side, scatter the solution, commit the
   companion histories.  Without flambda a per-element helper call boxes
   its float arguments, so each pass is one plain loop per element class.
   They index unchecked only with [compiled]'s index arrays, whose bounds
   [compile] checked (see [compiled]), into a node vector of [n_nodes]
   entries, right-hand sides of [n_unknown] and the [transient_state]
   built on the same [compiled]; [Array.unsafe_get] is called directly,
   since a local alias of it is a polymorphic closure that boxes every
   float. *)

(* Write the forced nodes' values at [t] into [vnode] and the current
   sources' into [st.isrc]. *)
let set_sources c st (vnode : float array) t =
  let forced = c.forced in
  for i = 0 to Array.length forced - 1 do
    let fs = Array.unsafe_get forced i in
    Array.unsafe_set vnode fs.fnode (fs.fsrc t)
  done;
  let isrc : float array = st.isrc in
  for i = 0 to Array.length c.isources - 1 do
    isrc.(i) <- c.isources.(i).samps t
  done

(* A capacitor's or inductor's part of the right-hand side, per element
   in [stamp]'s order: the forced-neighbour injection, then the -j/+j
   history pair. *)
let companion_rhs ~cap (b : branches) (g : float array) (rhs : float array) (vnode : float array)
    =
  let n1 = b.n1 and n2 = b.n2 and u1 = b.u1 and u2 = b.u2 in
  let vp = b.v_prev and ip = b.i_prev in
  for i = 0 to Array.length g - 1 do
    let gi = Array.unsafe_get g i in
    let j =
      if cap then -.((gi *. Array.unsafe_get vp i) +. Array.unsafe_get ip i)
      else Array.unsafe_get ip i +. (gi *. Array.unsafe_get vp i)
    in
    let a = Array.unsafe_get u1 i and c = Array.unsafe_get u2 i in
    if a >= 0 then begin
      if gi <> 0. && c < 0 then
        Array.unsafe_set rhs a
          (Array.unsafe_get rhs a +. (gi *. Array.unsafe_get vnode (Array.unsafe_get n2 i)));
      Array.unsafe_set rhs a (Array.unsafe_get rhs a -. j)
    end;
    if c >= 0 then begin
      if gi <> 0. && a < 0 then
        Array.unsafe_set rhs c
          (Array.unsafe_get rhs c +. (gi *. Array.unsafe_get vnode (Array.unsafe_get n1 i)));
      Array.unsafe_set rhs c (Array.unsafe_get rhs c +. j)
    end
  done

(* The step's right-hand side, element class by element class in the
   rebuild path's order (resistors, capacitors, inductors, coupled groups,
   current sources), so its sums are bit for bit the rebuild's.  The
   sources must already be set. *)
let assemble_rhs c st (rhs : float array) (vnode : float array) =
  for k = 0 to Array.length rhs - 1 do
    Array.unsafe_set rhs k 0.
  done;
  let r = c.res and fr = c.forced_res in
  let rg = r.value and ru1 = r.u1 and ru2 = r.u2 and rn1 = r.n1 and rn2 = r.n2 in
  for k = 0 to Array.length fr - 1 do
    let i = Array.unsafe_get fr k in
    let g = Array.unsafe_get rg i in
    if g <> 0. then begin
      let a = Array.unsafe_get ru1 i in
      if a >= 0 then
        Array.unsafe_set rhs a
          (Array.unsafe_get rhs a +. (g *. Array.unsafe_get vnode (Array.unsafe_get rn2 i)))
      else
        let b = Array.unsafe_get ru2 i in
        Array.unsafe_set rhs b
          (Array.unsafe_get rhs b +. (g *. Array.unsafe_get vnode (Array.unsafe_get rn1 i)))
    end
  done;
  companion_rhs ~cap:true c.caps st.caps_g rhs vnode;
  companion_rhs ~cap:false c.inds st.inds_g rhs vnode;
  for i = 0 to Array.length c.coupled - 1 do
    stamp_coupled_rhs c rhs vnode c.coupled.(i) st.galpha.(i) st.ieq_k.(i)
  done;
  let uon = c.unknown_of_node and isrc : float array = st.isrc in
  for i = 0 to Array.length c.isources - 1 do
    let s = c.isources.(i) and j = isrc.(i) in
    let u1 = uon.(s.sn1) and u2 = uon.(s.sn2) in
    if u1 >= 0 then rhs.(u1) <- rhs.(u1) -. j;
    if u2 >= 0 then rhs.(u2) <- rhs.(u2) +. j
  done

(* Write the solution [x] into the node vector. *)
let scatter c (vnode : float array) (x : float array) =
  let sn = c.scatter_node and su = c.scatter_unk in
  for k = 0 to Array.length sn - 1 do
    Array.unsafe_set vnode (Array.unsafe_get sn k) (Array.unsafe_get x (Array.unsafe_get su k))
  done

let companion_commit ~cap (b : branches) (g : float array) (vnode : float array) =
  let n1 = b.n1 and n2 = b.n2 and vp = b.v_prev and ip = b.i_prev in
  for i = 0 to Array.length g - 1 do
    let v =
      Array.unsafe_get vnode (Array.unsafe_get n1 i)
      -. Array.unsafe_get vnode (Array.unsafe_get n2 i)
    in
    let gi = Array.unsafe_get g i and v0 = Array.unsafe_get vp i and i0 = Array.unsafe_get ip i in
    let icur = if cap then (gi *. v) -. ((gi *. v0) +. i0) else (gi *. v) +. i0 +. (gi *. v0) in
    Array.unsafe_set vp i v;
    Array.unsafe_set ip i icur
  done

(* Commit companion states after a converged step.  Coupled groups reuse the step's alpha*L^-1 and
   pre-step history sources.  The companion conductances come from [st],
   computed by [make_transient_state] with the same expressions a rebuild
   uses. *)
let commit c st (vnode : float array) =
  companion_commit ~cap:true c.caps st.caps_g vnode;
  companion_commit ~cap:false c.inds st.inds_g vnode;
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

(* ------------------------------------------------------------ Newton *)

(* A Newton run at the step being taken, as [newton_iterations] sees it:
   its compiled circuit, solver state and node vector, the step's
   iteration count once it has converged, and its failure. *)
type nlane = {
  nc : compiled;
  nst : transient_state;  (* [nst.rhs]: each iteration's right-hand side, then solution *)
  nw : newton;
  nv : float array;
  mutable n_iters : int;
  mutable n_fail : exn option;
}

let nlane c st vnode =
  match st.solver with
  | Newton nw -> { nc = c; nst = st; nw; nv = vnode; n_iters = 0; n_fail = None }
  | Factored _ | Nothing -> invalid_arg "Engine.nlane: not a Newton circuit"

(* Scratch of [newton_iterations] for up to [lanes] lanes. *)
type nscratch = { ns_it : int array; ns_b : Banded.t array; ns_x : float array array; ns_piv : int array }

let nscratch lanes =
  {
    ns_it = Array.make lanes 0;
    ns_b = Array.make lanes (Banded.create ~n:0 ~bw:0);
    ns_x = Array.make lanes [||];
    ns_piv = Array.make lanes 0;
  }

(* The engine's one Newton iteration: the Newton steps at [t] of the lanes
   [ls.(act.(0 .. n_act - 1))], whose step right-hand sides [nw.base_rhs]
   are assembled, iterated in lock-step.  Per iteration each lane copies
   its base system and right-hand side, stamps its devices, solves, and
   moves its node vector ([newton_update]); a lane leaves the iteration
   once it converges ([n_iters] set) or fails ([n_fail]: a vanishing
   pivot's [Singular], or [Newton_diverged] after [newton_max]
   iterations), so every lane does the operations of its run alone.
   Banded lanes -- all of one size and bandwidth -- factor and substitute
   interleaved ([Banded.factor_lanes] and [solve_factored_lanes]); a dense
   lane comes alone and takes the pivoted LU. *)
let newton_iterations ~t (ls : nlane array) (act : int array) n_act (s : nscratch) =
  let it = s.ns_it and sb = s.ns_b and sx = s.ns_x and piv = s.ns_piv in
  Array.blit act 0 it 0 n_act;
  let n_it = ref n_act and iter = ref 0 in
  while !n_it > 0 do
    incr iter;
    for a = 0 to !n_it - 1 do
      let l = ls.(it.(a)) in
      let w = l.nw and rhs = l.nst.rhs in
      sys_blit ~src:w.base ~dst:w.newton_sys;
      Array.blit w.base_rhs 0 rhs 0 l.nc.n_unknown;
      stamp_devices l.nc w.devs w.newton_sys rhs l.nv
    done;
    let solved =
      match ls.(it.(0)).nw.newton_sys with
      | B _ ->
          for a = 0 to !n_it - 1 do
            let l = ls.(it.(a)) in
            (match l.nw.newton_sys with B b -> sb.(a) <- b | D _ -> assert false);
            sx.(a) <- l.nst.rhs
          done;
          Banded.factor_lanes sb !n_it piv;
          let k = ref 0 in
          for a = 0 to !n_it - 1 do
            let li = it.(a) in
            if piv.(a) >= 0 then ls.(li).n_fail <- Some (Banded.Singular piv.(a))
            else begin
              it.(!k) <- li;
              sb.(!k) <- sb.(a);
              sx.(!k) <- sx.(a);
              incr k
            end
          done;
          Banded.solve_factored_lanes sb sx !k;
          !k
      | D m -> (
          let l = ls.(it.(0)) in
          match Linalg.lu_factor_in_place m with
          | lu ->
              Linalg.lu_solve_into lu l.nst.rhs l.nst.xsol;
              Array.blit l.nst.xsol 0 l.nst.rhs 0 l.nc.n_unknown;
              1
          | exception (Linalg.Singular _ as e) ->
              l.n_fail <- Some e;
              0)
    in
    let kept = ref 0 in
    for a = 0 to solved - 1 do
      let li = it.(a) in
      let l = ls.(li) in
      if newton_update l.nc l.nv l.nst.rhs then l.n_iters <- !iter
      else if !iter = newton_max then l.n_fail <- Some (Newton_diverged { t; within = [] })
      else begin
        it.(!kept) <- li;
        incr kept
      end
    done;
    n_it := !kept
  done

(* One step of a Newton circuit, or of a linear one under adaptive
   stepping, with the sources set and the coupled-group history formed:
   a factored solve for linear circuits; for nonlinear circuits, the
   right-hand side's linear part, then [newton_iterations] on this run
   alone.  Returns the Newton iteration count. *)
let fast_step c st vnode t =
  match st.solver with
  | Nothing -> 0
  | Factored f ->
      assemble_rhs c st st.rhs vnode;
      factored_solve f st.rhs st.xsol;
      scatter c vnode st.rhs;
      1
  | Newton w -> (
      assemble_rhs c st w.base_rhs vnode;
      let l = nlane c st vnode in
      newton_iterations ~t [| l |] [| 0 |] 1 (nscratch 1);
      match l.n_fail with Some e -> raise e | None -> l.n_iters)

(* The pre-factorization stepper: rebuild and refactor the whole system at
   every step (and every Newton iteration), exactly as the engine did before
   the compile/factor/step split.  Kept as the golden reference for
   equivalence tests. *)
let rebuild_step ~dt c st vnode t =
  let assemble_base () =
    let sys = sys_create ~n:c.n_unknown ~bw:c.bandwidth in
    sys_clear sys;
    let rhs = Array.make c.n_unknown 0. in
    let r = c.res in
    for i = 0 to Array.length r.value - 1 do
      stamp c sys rhs vnode r.n1.(i) r.n2.(i) r.value.(i) 0.
    done;
    let companions (b : branches) g_of ieq =
      for i = 0 to Array.length b.value - 1 do
        let g = g_of dt b.value.(i) in
        stamp c sys rhs vnode b.n1.(i) b.n2.(i) g (ieq g b.v_prev.(i) b.i_prev.(i))
      done
    in
    companions c.caps cap_g (fun g vp ip -> -.((g *. vp) +. ip));
    companions c.inds ind_g (fun g vp ip -> ip +. (g *. vp));
    Array.iteri
      (fun i k ->
        stamp_coupled c sys rhs vnode k st.galpha.(i) st.ieq_k.(i))
      c.coupled;
    Array.iter (fun (s : isource) -> stamp c sys rhs vnode s.sn1 s.sn2 0. (s.samps t)) c.isources;
    (sys, rhs)
  in
  newton ~c ~assemble_base ~vnode ~t

(* Companion states from the DC point (inductor/coupled history currents
   through the DC solve's 1 kS short, matching [dc_solve]'s [g_short]). *)
let init_companions c (vnode : float array) =
  let dv (b : branches) i = vnode.(b.n1.(i)) -. vnode.(b.n2.(i)) in
  let caps = c.caps and inds = c.inds in
  for i = 0 to Array.length caps.value - 1 do
    caps.v_prev.(i) <- dv caps i;
    caps.i_prev.(i) <- 0.
  done;
  for i = 0 to Array.length inds.value - 1 do
    let d = dv inds i in
    inds.v_prev.(i) <- d;
    inds.i_prev.(i) <- g_short *. d
  done;
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
      let cg = ref 0. in
      Array.iteri
        (fun i farads ->
          let a = c.caps.n1.(i) and b = c.caps.n2.(i) in
          if (a = n && anchored b) || (b = n && anchored a) then cg := !cg +. farads)
        c.caps.value;
      let cg = !cg in
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
        Array.exists (fun i -> carries c.inds.n1.(i) c.inds.n2.(i))
          (Array.init (Array.length c.inds.value) Fun.id)
        || Array.exists (fun k -> Array.exists (fun (a, b) -> carries a b) k.k_branches) c.coupled
      then None
      else Some (v, scale)

(* 2 W from the committed companion histories. *)
let deviation_energy2 c (vhat : float array) =
  let w = ref 0. in
  let caps = c.caps and inds = c.inds in
  for i = 0 to Array.length caps.value - 1 do
    let dv = caps.v_prev.(i) -. (vhat.(caps.n1.(i)) -. vhat.(caps.n2.(i))) in
    w := !w +. (caps.value.(i) *. dv *. dv)
  done;
  for i = 0 to Array.length inds.value - 1 do
    let di = inds.i_prev.(i) in
    w := !w +. (inds.value.(i) *. di *. di)
  done;
  (* A plain loop: a closure over the groups would capture [w] and box
     every term. *)
  for g = 0 to Array.length c.coupled - 1 do
    let k = c.coupled.(g) in
    let nb = Array.length k.k_branches in
    for p = 0 to nb - 1 do
      for q = 0 to nb - 1 do
        w := !w +. (k.i_prev_k.(p) *. k.k_lmat.(p).(q) *. k.i_prev_k.(q))
      done
    done
  done;
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
  (* Of the latest restamp's netlist, which the handle does not keep: a
     replay's netlist is garbage once its values are in. *)
  mutable h_breakpoints : float list;
  mutable h_flat_after : float;
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
   always re-solve — their Newton iteration isn't worth fingerprinting.

   A linear circuit whose every source is +0.0 at t = 0 (a replay whose
   model waveform starts later) has the all-zero point, taken without a
   solve: [dc_solve] would assemble a right-hand side of +0.0 sums (each
   term is a finite conductance times a +0.0 node, or a +0.0 source, and
   x + -0.0 = x), and substituting it leaves every entry +0.0 as long as
   every pivot is positive, which holds for the positive-valued elements
   {!Netlist} admits (a symmetric, diagonally dominant system; the dense
   LU's partial pivoting keeps the diagonal there).  [test_circuit]'s "zero
   DC point" checks it bit for bit against [dc_operating_point] on
   ladders, trees, clusters and a dense system.  The shortcut skips only
   the solve's singularity test; every element that conducts at DC
   conducts in a step too, so a circuit with a node cut off from ground
   and the forced nodes is as singular in its steps. *)
let dc_for h =
  let c = h.h_c in
  if Array.length c.nonlinears > 0 then dc_solve c 0.
  else begin
    let f0 = Array.map (fun fs -> Int64.bits_of_float (fs.fsrc 0.)) c.forced in
    let i0 = Array.map (fun (s : isource) -> Int64.bits_of_float (s.samps 0.)) c.isources in
    if Array.for_all (Int64.equal 0L) f0 && Array.for_all (Int64.equal 0L) i0 then
      Array.make c.n_nodes 0.
    else
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
   by [commit] after acceptance, so rejection is a single vector
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
    let l = List.filter (fun b -> b > 0. && b < t_stop) h.h_breakpoints in
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
    set_sources c st vnode t_new;
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
        commit c st vnode;
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

(* ----------------------------------------------------------- fixed step *)

(* The most runs a kernel interleaves.  Past eight lanes the
   substitutions of a tridiagonal ladder stop overlapping any further, and
   a Newton bench's whole steps gain little past four (EXPERIMENTS.md). *)
let max_lanes = 8

(* One fixed-step run, set up by [lane_setup] -- DC point, companion
   histories, record plan, watches, trace, solver state, in the order a
   single run has always taken them -- and advanced by [step_lanes],
   [step_newton_lanes] or [step_generic]. *)
type lane = {
  l_c : compiled;
  l_st : transient_state;
  l_vnode : float array;
  l_n_steps : int;
  l_col_of_node : int array;
  l_tr : trace;
  l_watch : watch option;
  l_peak : peak option;
  l_rebuild : bool;  (* [reassemble_per_step] *)
  mutable l_steps : int;  (* steps taken *)
  mutable l_repeated : int;  (* of those, repeats of an all-zero sample ([step_lanes]) *)
  mutable l_newton : int;
  mutable l_worst : int;
  mutable l_fail : exn option;  (* a Newton failure or a vanishing pivot *)
}

let lane_setup ~obs ~record_nodes ~until ~until_peak ~reassemble_per_step ~dt ~t_stop h =
  let c = h.h_c in
  (* Tiny epsilon guards float-division noise (1e-9 / 10e-12 is slightly
     above 100) from adding a spurious extra step. *)
  let n_steps = Int.max 1 (int_of_float (Float.ceil ((t_stop /. dt) -. 1e-9))) in
  let vnode = Obs.time obs "engine.dc_solve" (fun () -> dc_for h) in
  init_companions c vnode;
  let col_of_node, rec_nodes = record_plan c record_nodes in
  let watch = watch_create c until vnode in
  let peak = peak_create c ~flat_after:h.h_flat_after ~dt until_peak vnode in
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
  {
    l_c = c;
    l_st = st;
    l_vnode = vnode;
    l_n_steps = n_steps;
    l_col_of_node = col_of_node;
    l_tr = tr;
    l_watch = watch;
    l_peak = peak;
    l_rebuild = reassemble_per_step;
    l_steps = 0;
    l_repeated = 0;
    l_newton = 0;
    l_worst = 0;
    l_fail = None;
  }

(* [true] when every entry of [a] is +0.0, bit for bit. *)
let all_zero (a : float array) =
  let z = ref true in
  for i = 0 to Array.length a - 1 do
    if Int64.bits_of_float (Array.unsafe_get a i) <> 0L then z := false
  done;
  !z

(* Every quantity a linear step reads besides its sources -- the node
   vector, the capacitor and inductor histories, the coupled groups'
   histories -- is +0.0. *)
let state_zero c (vnode : float array) =
  all_zero vnode && all_zero c.caps.v_prev && all_zero c.caps.i_prev && all_zero c.inds.v_prev
  && all_zero c.inds.i_prev
  && Array.for_all (fun (k : coupled_state) -> all_zero k.v_prev_k && all_zero k.i_prev_k) c.coupled

(* The sources [set_sources] just wrote are all +0.0. *)
let sources_zero c st (vnode : float array) =
  let z = ref true in
  for i = 0 to Array.length c.forced - 1 do
    if Int64.bits_of_float vnode.(c.forced.(i).fnode) <> 0L then z := false
  done;
  !z && all_zero st.isrc

(* The linear fixed-step kernel: advances lanes that each hold a factored
   linear system, one step at a time.  Per lane a step does the one-lane
   step's floating-point operations in its order -- sources, coupled
   history, right-hand side, solve, scatter, commit -- so each lane's
   samples are bit for bit those of its run alone.  When every lane is
   banded ([run_fixed] groups only lanes of one size and bandwidth), their
   substitutions run interleaved row by row, so the latency-bound chain
   of one lane overlaps the others'; a lane leaves the interleaving once it
   stops.

   A lane repeats its all-zero sample instead of stepping while nothing
   can move it.  A linear step is a function of the lane's fixed matrices,
   the state it starts from ([state_zero]'s quantities) and the sources at
   its time.  So if step 1 took the all-+0.0 state with all-+0.0 sources
   back to the all-+0.0 state, every later step that starts there with
   all-+0.0 sources lands there too, and by induction the state stays
   put while the sources do.  Each lane checks its state once before and
   once after step 1 ([quiet]); while it is quiet, a step sets the sources
   and, if they all read +0.0, skips the coupled history, right-hand side,
   solve, scatter and commit -- it leaves the interleaved solve for that
   step only -- and pushes the unchanged node vector with its time, tests
   its stop and counts as a step ([l_repeated] too).  What it skips
   outlives no step: the history sources, right-hand side and current
   values are rewritten by the next step that runs.  The first step whose
   sources move clears [quiet] for good, so a live run pays one flag test
   a step.  This is every far-end replay's lead-in, the steps before its
   shifted model waveform starts. *)
let step_lanes ~dt (lanes : lane array) =
  let m = Array.length lanes in
  let facts =
    Array.map
      (fun l -> match l.l_st.solver with Factored f -> f | Newton _ | Nothing -> assert false)
      lanes
  in
  let banded =
    Array.of_list (List.filter_map (function FB b -> Some b | FD _ -> None) (Array.to_list facts))
  in
  let interleave = Array.length banded = m in
  (* The lanes solved at this step, gathered for the interleaved solve. *)
  let solve_b = Array.copy banded and solve_x = Array.make m [||] in
  let active = Array.init m Fun.id and n_active = ref m in
  let quiet = Array.map (fun l -> state_zero l.l_c l.l_vnode) lanes in
  let repeat = Array.make m false in
  let step = ref 0 in
  while !n_active > 0 do
    incr step;
    let step = !step in
    if step land (deadline_stride - 1) = 0 then Deadline.check_ambient ();
    let t = dt *. float_of_int step in
    let k = ref 0 in
    for a = 0 to !n_active - 1 do
      let li = active.(a) in
      let l = lanes.(li) in
      let c = l.l_c and st = l.l_st in
      set_sources c st l.l_vnode t;
      if quiet.(li) && not (sources_zero c st l.l_vnode) then quiet.(li) <- false;
      repeat.(li) <- quiet.(li) && step > 1;
      if not repeat.(li) then begin
        for i = 0 to Array.length c.coupled - 1 do
          coupled_ieq_into c.coupled.(i) st.galpha.(i) st.ieq_k.(i)
        done;
        assemble_rhs c st st.rhs l.l_vnode;
        if interleave then begin
          solve_b.(!k) <- banded.(li);
          solve_x.(!k) <- st.rhs;
          incr k
        end
        else factored_solve facts.(li) st.rhs st.xsol
      end
    done;
    if !k > 0 then Banded.solve_factored_lanes solve_b solve_x !k;
    let kept = ref 0 in
    for a = 0 to !n_active - 1 do
      let li = active.(a) in
      let l = lanes.(li) in
      let c = l.l_c and vnode = l.l_vnode in
      if repeat.(li) then l.l_repeated <- l.l_repeated + 1
      else begin
        scatter c vnode l.l_st.rhs;
        commit c l.l_st vnode;
        if step = 1 && quiet.(li) then quiet.(li) <- state_zero c vnode
      end;
      l.l_steps <- step;
      let i = trace_push l.l_tr vnode in
      l.l_tr.tr_times.(i) <- t;
      if not (stop_now c l.l_watch l.l_peak vnode step || step = l.l_n_steps) then begin
        active.(!kept) <- li;
        incr kept
      end
    done;
    n_active := !kept
  done;
  Array.iter
    (fun l ->
      l.l_newton <- l.l_steps;
      l.l_worst <- 1)
    lanes

(* The Newton fixed-step kernel: advances banded Newton lanes of one
   size and bandwidth one step at a time.  Per step each lane sets its
   sources, forms its coupled history and assembles its right-hand side;
   [newton_iterations] then iterates the lanes still iterating in
   lock-step, their factorizations and substitutions interleaved; then
   each lane commits, traces and tests its stop.  Every lane does the
   one-lane step's floating-point operations in its order, so its samples,
   iteration counts and failure are bit for bit its run alone's.  A lane
   that fails leaves with its exception, and the others carry on.  The
   passes index unchecked only as [step_lanes] does, and the banded solves
   keep [Rlc_num.Banded]'s invariant: [run_fixed] puts only lanes of one
   banded shape in a pass, so every lane's system and right-hand side
   have the same dimension. *)
let step_newton_lanes ~dt (lanes : lane array) =
  let m = Array.length lanes in
  let nls = Array.map (fun l -> nlane l.l_c l.l_st l.l_vnode) lanes in
  let scratch = nscratch m in
  let active = Array.init m Fun.id and n_active = ref m in
  let step = ref 0 in
  while !n_active > 0 do
    incr step;
    let step = !step in
    if step land (deadline_stride - 1) = 0 then Deadline.check_ambient ();
    let t = dt *. float_of_int step in
    for a = 0 to !n_active - 1 do
      let nl = nls.(active.(a)) in
      let c = nl.nc and st = nl.nst in
      set_sources c st nl.nv t;
      for i = 0 to Array.length c.coupled - 1 do
        coupled_ieq_into c.coupled.(i) st.galpha.(i) st.ieq_k.(i)
      done;
      assemble_rhs c st nl.nw.base_rhs nl.nv
    done;
    newton_iterations ~t nls active !n_active scratch;
    let kept = ref 0 in
    for a = 0 to !n_active - 1 do
      let li = active.(a) in
      let l = lanes.(li) and nl = nls.(li) in
      match nl.n_fail with
      | Some e -> l.l_fail <- Some e
      | None ->
          let c = l.l_c and vnode = l.l_vnode in
          l.l_newton <- l.l_newton + nl.n_iters;
          l.l_worst <- Int.max l.l_worst nl.n_iters;
          commit c l.l_st vnode;
          l.l_steps <- step;
          let i = trace_push l.l_tr vnode in
          l.l_tr.tr_times.(i) <- t;
          if not (stop_now c l.l_watch l.l_peak vnode step || step = l.l_n_steps) then begin
            active.(!kept) <- li;
            incr kept
          end
    done;
    n_active := !kept
  done

(* A dense Newton run, a run without unknowns, or one
   [reassemble_per_step] reference run. *)
let step_generic ~dt l =
  let c = l.l_c and st = l.l_st and vnode = l.l_vnode in
  let step_fn = if l.l_rebuild then rebuild_step ~dt else fast_step in
  let step = ref 0 and stopped = ref false in
  while (not !stopped) && !step < l.l_n_steps do
    incr step;
    let step = !step in
    if step land (deadline_stride - 1) = 0 then Deadline.check_ambient ();
    let t = dt *. float_of_int step in
    set_sources c st vnode t;
    (* Coupled-group history sources for this step (pre-step state),
       shared by assembly and commit. *)
    for i = 0 to Array.length c.coupled - 1 do
      coupled_ieq_into c.coupled.(i) st.galpha.(i) st.ieq_k.(i)
    done;
    let iters = step_fn c st vnode t in
    l.l_newton <- l.l_newton + iters;
    l.l_worst <- Int.max l.l_worst iters;
    commit c st vnode;
    let i = trace_push l.l_tr vnode in
    l.l_tr.tr_times.(i) <- t;
    stopped := stop_now c l.l_watch l.l_peak vnode step
  done;
  l.l_steps <- !step

(* A failure that belongs to one run of a batch: Newton's, or a vanishing
   pivot's.  Anything else (an expired deadline, a bad argument, a source
   that raises) aborts the batch. *)
let lane_failure = function
  | Newton_diverged _ | Banded.Singular _ | Linalg.Singular _ -> true
  | _ -> false

(* Fixed-step runs of set-up lanes, each to its own outcome.  Banded runs
   go through the kernels: linear ones of one system size and bandwidth
   share a [step_lanes] pass, Newton ones a [step_newton_lanes] pass, up
   to [max_lanes] at a time, in order of appearance.  Dense linear runs
   take [step_lanes] alone; dense Newton runs, runs without unknowns and
   reference runs step alone on [step_generic].  Each pass records one
   step-loop span; the counters count lanes. *)
let run_fixed ~obs ~dt (lanes : lane array) =
  let kind l =
    if l.l_rebuild then `Generic
    else match l.l_st.solver with
      | Factored _ -> `Linear
      | Newton { newton_sys = B _; _ } -> `Newton
      | Newton { newton_sys = D _; _ } | Nothing -> `Generic
  in
  let shape l =
    match (kind l, l.l_st.solver) with
    | `Linear, Factored (FB b) -> Some (false, Banded.dim b, Banded.bandwidth b)
    | `Newton, Newton { newton_sys = B b; _ } -> Some (true, Banded.dim b, Banded.bandwidth b)
    | _ -> None
  in
  let passes = ref [] in
  Array.iteri
    (fun i l ->
      let fits (sh, members) =
        Option.is_some sh && sh = shape l && List.length !members < max_lanes
      in
      match List.find_opt fits !passes with
      | Some (_, members) -> members := i :: !members
      | None -> passes := !passes @ [ (shape l, ref [ i ]) ])
    lanes;
  List.iter
    (fun (_, members) ->
      let pass = Array.of_list (List.rev_map (fun i -> lanes.(i)) !members) in
      let step_t0 = Obs.start obs in
      let l0 = pass.(0) in
      (match kind l0 with
      | `Linear -> step_lanes ~dt pass
      | `Newton -> step_newton_lanes ~dt pass
      | `Generic -> (
          try step_generic ~dt l0 with e when lane_failure e -> l0.l_fail <- Some e));
      if Obs.enabled obs then begin
        let sum f = Array.fold_left (fun acc l -> acc + f l) 0 pass in
        let steps = sum (fun l -> l.l_steps) and newton = sum (fun l -> l.l_newton) in
        let path =
          match kind l0 with
          | `Linear -> "linear-fast"
          | `Generic when l0.l_rebuild -> "rebuild"
          | `Newton | `Generic -> "newton-fast"
        in
        Obs.finish obs
          ~args:
            [
              ("steps", string_of_int steps);
              ("newton_total", string_of_int newton);
              ("path", path);
              ("lanes", string_of_int (Array.length pass));
            ]
          "engine.step_loop" step_t0;
        Obs.add obs "engine.transients" (Array.length pass);
        Obs.add obs "engine.steps" steps;
        Obs.add obs "engine.newton_iters" newton;
        let repeated = sum (fun l -> l.l_repeated) in
        if repeated > 0 then Obs.add obs "engine.steps_repeated" repeated
      end)
    !passes;
  Array.map
    (fun l ->
      match l.l_fail with
      | Some e -> Error e
      | None ->
          let times_, cols = trace_finish l.l_tr in
          Ok
            {
              times_;
              col_of_node = l.l_col_of_node;
              cols;
              total_newton = l.l_newton;
              worst_newton = l.l_worst;
              rejected_ = 0;
              refactors_ = 0;
            })
    lanes

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
   cached states and the DC point, so a sweep that only swaps the input source pays zero
   re-factorization.  A reused handle is bit-identical to a fresh
   one: its cached states and DC point hold the same floats, computed by
   the same expressions in the same order. *)
module Compiled = struct
  type nonrec handle = handle

  let compile ?(obs = Obs.null) netlist =
    let c = Obs.time obs "engine.compile" (fun () -> compile netlist) in
    {
      h_c = c;
      h_breakpoints = Netlist.breakpoints netlist;
      h_flat_after = Netlist.flat_after netlist;
      h_states = Hashtbl.create 8;
      h_dc = None;
    }

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
    let write (b : branches) next n1 n2 v =
      let i = !next in
      if i >= Array.length b.value then structure_err ();
      incr next;
      if b.n1.(i) <> n1 || b.n2.(i) <> n2 then structure_err ();
      if b.value.(i) <> v then begin
        b.value.(i) <- v;
        dirty := true
      end
    in
    List.iter
      (fun (e : Netlist.element) ->
        match e with
        | Resistor { n1; n2; ohms; _ } -> write c.res ri n1 n2 (1. /. ohms)
        | Capacitor { n1; n2; farads; _ } -> write c.caps ci n1 n2 farads
        | Inductor { n1; n2; henries; _ } -> write c.inds li n1 n2 henries
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
      !ri <> Array.length c.res.value
      || !ci <> Array.length c.caps.value
      || !li <> Array.length c.inds.value
      || !si <> Array.length c.isources
      || !ki <> Array.length c.coupled
      || !ni <> Array.length c.nonlinears
    then structure_err ();
    h.h_breakpoints <- Netlist.breakpoints newnl;
    h.h_flat_after <- Netlist.flat_after newnl;
    if !dirty then begin
      Hashtbl.reset h.h_states;
      h.h_dc <- None
    end

  (* The engine's one argument check comes first.  Each test is written so
     that NaN fails it; [dt] is unused under [adaptive]. *)
  let check ~reassemble_per_step ~adaptive ~dt t_stops =
    let finite_positive x = x > 0. && x < Float.infinity in
    let bad what = invalid_arg ("Engine.transient: " ^ what) in
    let positive_stop t_stop =
      if not (finite_positive t_stop) then bad "t_stop must be positive and finite"
    in
    List.iter positive_stop t_stops;
    match adaptive with
    | Some a ->
        if reassemble_per_step then bad "adaptive and reassemble_per_step are exclusive";
        if not (finite_positive a.dt_min) then bad "adaptive dt_min must be positive and finite";
        if not (a.dt_max >= a.dt_min) then bad "adaptive dt_max must be at least dt_min";
        if not (a.ltol > 0.) then bad "adaptive ltol must be positive"
    | None -> if not (finite_positive dt) then bad "dt must be positive and finite"

  let run ?(obs = Obs.null) ?record_nodes ?until ?until_peak ?(reassemble_per_step = false)
      ?adaptive ~dt ~t_stop h =
    check ~reassemble_per_step ~adaptive ~dt [ t_stop ];
    match adaptive with
    | Some a -> adaptive_core ~obs ~record_nodes ~until ~t_stop a h
    | None ->
        let lane =
          lane_setup ~obs ~record_nodes ~until ~until_peak ~reassemble_per_step ~dt ~t_stop h
        in
        Result.fold ~ok:Fun.id ~error:raise (run_fixed ~obs ~dt [| lane |]).(0)

  type nonrec lane = {
    handle : handle;
    t_stop : float;
    record_nodes : Netlist.node list;
    until : crossing list;
    until_peak : Netlist.node option;
  }

  let max_lanes = max_lanes

  let run_lanes ?(obs = Obs.null) ?adaptive ~dt lanes =
    check ~reassemble_per_step:false ~adaptive ~dt
      (Array.to_list (Array.map (fun l -> l.t_stop) lanes));
    Array.iteri
      (fun i l ->
        for j = 0 to i - 1 do
          if lanes.(j).handle == l.handle then
            invalid_arg "Engine.Compiled.run_lanes: a handle appears in two lanes"
        done)
      lanes;
    let outcome f = match f () with v -> Ok v | exception e when lane_failure e -> Error e in
    match adaptive with
    | Some a ->
        Array.map
          (fun l ->
            outcome (fun () ->
                adaptive_core ~obs ~record_nodes:(Some l.record_nodes) ~until:(Some l.until)
                  ~t_stop:l.t_stop a l.handle))
          lanes
    | None ->
        let set =
          Array.map
            (fun l ->
              outcome (fun () ->
                  lane_setup ~obs ~record_nodes:(Some l.record_nodes) ~until:(Some l.until)
                    ~until_peak:l.until_peak ~reassemble_per_step:false ~dt ~t_stop:l.t_stop
                    l.handle))
            lanes
        in
        let stepped =
          run_fixed ~obs ~dt (Array.of_list (List.filter_map Result.to_option (Array.to_list set)))
        in
        let next = ref 0 in
        Array.map
          (function
            | Error e -> Error e
            | Ok _ ->
                incr next;
                stepped.(!next - 1))
          set

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
     domain that built it, and handles are never shared across domains;
     the lane index keeps a batch's same-structure runs on distinct
     handles.  A domain holds at most [max_lanes] handles of a replay
     ladder and, for a crosstalk flow, one per lane of each cluster
     structure it steps: a noise and a driven structure per cluster shape,
     each on as many lanes as its batches hold (eight handles on
     [xtalk_bus]). *)
  let handles : (Domain.id * int * (int * int * int), handle) Rlc_obs.Memo.t =
    Rlc_obs.Memo.create ~capacity:256 ()

  let cache_stats () = Rlc_obs.Memo.stats handles
  let clear_cache () = Rlc_obs.Memo.clear handles

  let cached ?(obs = Obs.null) ?(lane = 0) netlist =
    if lane < 0 || lane >= max_lanes then invalid_arg "Engine.Compiled.cached: lane out of range";
    let key = (Domain.self (), lane, structure_key netlist) in
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
