(* Storage: row i keeps its entries for columns [i-bw, i+bw] in a flat array
   at offset [i*(2*bw+1)]; column j lives at slot [j - i + bw]. *)
type t = { n : int; bw : int; data : float array }

exception Singular of int

let create ~n ~bw =
  if n < 0 || bw < 0 then invalid_arg "Banded.create";
  { n; bw; data = Array.make (n * ((2 * bw) + 1)) 0. }

let dim t = t.n
let bandwidth t = t.bw

let slot t i j =
  if i < 0 || i >= t.n || j < 0 || j >= t.n then invalid_arg "Banded: index out of range";
  if abs (i - j) > t.bw then None else Some ((i * ((2 * t.bw) + 1)) + (j - i) + t.bw)

let get t i j = match slot t i j with None -> 0. | Some k -> t.data.(k)

let set t i j v =
  match slot t i j with
  | None -> invalid_arg "Banded.set: entry outside band"
  | Some k -> t.data.(k) <- v

let add t i j v =
  match slot t i j with
  | None -> invalid_arg "Banded.add: entry outside band"
  | Some k -> t.data.(k) <- t.data.(k) +. v

let index t i j =
  match slot t i j with None -> invalid_arg "Banded.index: entry outside band" | Some k -> k

let data t = t.data
let clear t = Array.fill t.data 0 (Array.length t.data) 0.
let copy t = { t with data = Array.copy t.data }

let blit ~src ~dst =
  if src.n <> dst.n || src.bw <> dst.bw then invalid_arg "Banded.blit: shape mismatch";
  Array.blit src.data 0 dst.data 0 (Array.length src.data)

let mat_vec t v =
  Array.init t.n (fun i ->
      let acc = ref 0. in
      for j = Int.max 0 (i - t.bw) to Int.min (t.n - 1) (i + t.bw) do
        acc := !acc +. (get t i j *. v.(j))
      done;
      !acc)

(* Elimination overwrites the strict lower band with the multipliers, so the
   factorization can be replayed against many right-hand sides.  No pivoting:
   see the .mli for why companion-model matrices permit it.

   [factor_lanes] eliminates lanes [0, k) column by column, interleaved:
   column c of every live lane, then column c + 1, so the division chains
   of independent lanes overlap while each lane does [factor]'s operations
   in [factor]'s order.  A lane whose pivot vanishes at column c records c
   in [piv] and takes no further part; the others carry on.

   The hot loops index [data] directly -- row i's entry (i, j) lives at
   [i*w + j - i + bw] with [w = 2*bw + 1] -- because going through
   [get]/[set] costs a bounds check and an option allocation per entry,
   which dominates the per-step solve on small bandwidths.  The unchecked
   accesses are safe: the checks of [factor_lanes] give every lane the same
   [n] and [bw], so its data has [n*w] entries, and every loop keeps
   [|i - j| <= bw] and [i, j < n], so the flat index stays inside row i's
   [w]-wide segment. *)
let factor_lanes ts k (piv : int array) =
  if k < 0 || k > Array.length ts || k > Array.length piv then
    invalid_arg "Banded.factor_lanes: lane count";
  if k > 0 then begin
    let n = ts.(0).n and bw = ts.(0).bw in
    for l = 0 to k - 1 do
      if ts.(l).n <> n || ts.(l).bw <> bw then invalid_arg "Banded.factor_lanes: size mismatch";
      piv.(l) <- -1
    done;
    let w = (2 * bw) + 1 in
    for c = 0 to n - 1 do
      let krow = (c * w) + bw - c and last = Int.min (n - 1) (c + bw) in
      for l = 0 to k - 1 do
        if Array.unsafe_get piv l < 0 then begin
          let data = (Array.unsafe_get ts l).data in
          let pivot = Array.unsafe_get data (krow + c) in
          if Float.abs pivot < 1e-300 then Array.unsafe_set piv l c
          else
            for i = c + 1 to last do
              let irow = (i * w) + bw - i in
              let f = Array.unsafe_get data (irow + c) /. pivot in
              Array.unsafe_set data (irow + c) f;
              if f <> 0. then
                for j = c + 1 to last do
                  Array.unsafe_set data (irow + j)
                    (Array.unsafe_get data (irow + j) -. (f *. Array.unsafe_get data (krow + j)))
                done
            done
        end
      done
    done
  end

let factor t =
  let piv = [| -1 |] in
  factor_lanes [| t |] 1 piv;
  if piv.(0) >= 0 then raise (Singular piv.(0))

(* Forward and back substitution on lanes [0, k), interleaved row by row:
   each lane runs the operations of a solve on its own in the same order, so
   its result is bit for bit its own solve, while the division chains of
   independent lanes overlap.  Forward substitution goes by rows: row i
   subtracts f(i, r) b(r) for r from i - bw up to i - 1, skipping a zero
   multiplier, which is the sequence a column-by-column elimination applies
   to b(i) (the skip keeps the sign of a zero b(i)).  Back substitution
   subtracts its row's terms in column order, then divides by the pivot.
   The unchecked accesses keep [factor_lanes]'s invariant on every lane,
   which the checks of [solve_factored_lanes] establish: all share [n] and [bw], and
   each right-hand side has [n] entries. *)

(* Forward substitution of rows [1, hi). *)
let general_forward ts bs k ~bw ~w ~hi =
  for i = 1 to hi - 1 do
    let irow = (i * w) + bw - i in
    for l = 0 to k - 1 do
      let data = (Array.unsafe_get ts l).data and b = Array.unsafe_get bs l in
      let acc = ref (Array.unsafe_get b i) in
      for r = Int.max 0 (i - bw) to i - 1 do
        let f = Array.unsafe_get data (irow + r) in
        if f <> 0. then acc := !acc -. (f *. Array.unsafe_get b r)
      done;
      Array.unsafe_set b i !acc
    done
  done

(* Back substitution of rows [lo, n), last row first. *)
let general_back ts bs k ~n ~bw ~w ~lo =
  for i = n - 1 downto lo do
    let irow = (i * w) + bw - i and hi = Int.min (n - 1) (i + bw) in
    for l = 0 to k - 1 do
      let data = (Array.unsafe_get ts l).data and b = Array.unsafe_get bs l in
      let acc = ref (Array.unsafe_get b i) in
      for j = i + 1 to hi do
        acc := !acc -. (Array.unsafe_get data (irow + j) *. Array.unsafe_get b j)
      done;
      Array.unsafe_set b i (!acc /. Array.unsafe_get data (irow + i))
    done
  done

let solve_factored_lanes ts (bs : float array array) k =
  if k < 0 || k > Array.length ts || k > Array.length bs then
    invalid_arg "Banded.solve_factored_lanes: lane count";
  if k > 0 then begin
    let n = ts.(0).n and bw = ts.(0).bw in
    for l = 0 to k - 1 do
      if ts.(l).n <> n || ts.(l).bw <> bw || Array.length bs.(l) <> n then
        invalid_arg "Banded.solve_factored_lanes: size mismatch"
    done;
    let w = (2 * bw) + 1 in
    if bw = 1 && n > 0 then begin
      (* Tridiagonal (every uniform ladder): the general loops with their
         one-entry inner loops unrolled; row i's entries (i, i-1), (i, i)
         and (i, i+1) sit at 3i, 3i + 1 and 3i + 2.  [cold_flow] measured
         it faster than the general loops (EXPERIMENTS.md). *)
      for r = 0 to n - 2 do
        let i3 = 3 * (r + 1) in
        for l = 0 to k - 1 do
          let data = (Array.unsafe_get ts l).data and b = Array.unsafe_get bs l in
          let f = Array.unsafe_get data i3 in
          if f <> 0. then
            Array.unsafe_set b (r + 1) (Array.unsafe_get b (r + 1) -. (f *. Array.unsafe_get b r))
        done
      done;
      general_back ts bs k ~n ~bw ~w ~lo:(n - 1);
      for i = n - 2 downto 0 do
        for l = 0 to k - 1 do
          let data = (Array.unsafe_get ts l).data and b = Array.unsafe_get bs l in
          let acc =
            Array.unsafe_get b i
            -. (Array.unsafe_get data ((3 * i) + 2) *. Array.unsafe_get b (i + 1))
          in
          Array.unsafe_set b i (acc /. Array.unsafe_get data ((3 * i) + 1))
        done
      done
    end
    else if (bw = 2 || bw = 3) && n > bw then begin
      (* Bandwidths 2 and 3 (coupled clusters): the general loops with their
         inner loops unrolled, past the first and last [bw] rows, which have
         fewer terms and keep the general loops.  Row i's entry (i, j) sits
         at [i*w + bw + j - i].  [xtalk_bus] measured it faster than the
         general loops (EXPERIMENTS.md). *)
      let three = bw = 3 in
      general_forward ts bs k ~bw ~w ~hi:bw;
      for i = bw to n - 1 do
        let irow = i * w in
        for l = 0 to k - 1 do
          let data = (Array.unsafe_get ts l).data and b = Array.unsafe_get bs l in
          let acc = Array.unsafe_get b i in
          let acc =
            if three then
              let f = Array.unsafe_get data irow in
              if f <> 0. then acc -. (f *. Array.unsafe_get b (i - 3)) else acc
            else acc
          in
          let f = Array.unsafe_get data (irow + bw - 2) in
          let acc = if f <> 0. then acc -. (f *. Array.unsafe_get b (i - 2)) else acc in
          let f = Array.unsafe_get data (irow + bw - 1) in
          let acc = if f <> 0. then acc -. (f *. Array.unsafe_get b (i - 1)) else acc in
          Array.unsafe_set b i acc
        done
      done;
      general_back ts bs k ~n ~bw ~w ~lo:(n - bw);
      for i = n - bw - 1 downto 0 do
        let d = (i * w) + bw in
        for l = 0 to k - 1 do
          let data = (Array.unsafe_get ts l).data and b = Array.unsafe_get bs l in
          let acc =
            Array.unsafe_get b i
            -. (Array.unsafe_get data (d + 1) *. Array.unsafe_get b (i + 1))
            -. (Array.unsafe_get data (d + 2) *. Array.unsafe_get b (i + 2))
          in
          let acc =
            if three then acc -. (Array.unsafe_get data (d + 3) *. Array.unsafe_get b (i + 3))
            else acc
          in
          Array.unsafe_set b i (acc /. Array.unsafe_get data d)
        done
      done
    end
    else begin
      general_forward ts bs k ~bw ~w ~hi:n;
      general_back ts bs k ~n ~bw ~w ~lo:0
    end
  end

let solve_factored t b = solve_factored_lanes [| t |] [| b |] 1

let solve_in_place t b =
  if Array.length b <> t.n then invalid_arg "Banded.solve: size mismatch";
  factor t;
  solve_factored t b

let solve t b =
  let t = copy t and x = Array.copy b in
  solve_in_place t x;
  x

let to_dense t =
  Array.init t.n (fun i -> Array.init t.n (fun j -> get t i j))
