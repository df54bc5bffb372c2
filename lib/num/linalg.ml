type mat = float array array

type lu = { lu : mat; perm : int array; sign : float }

exception Singular of int

let make rows cols v = Array.init rows (fun _ -> Array.make cols v)
let identity n = Array.init n (fun i -> Array.init n (fun j -> if i = j then 1. else 0.))

let dim m = (Array.length m, if Array.length m = 0 then 0 else Array.length m.(0))

let copy_mat m = Array.map Array.copy m

let mat_vec m v =
  Array.map
    (fun row ->
      let acc = ref 0. in
      Array.iteri (fun j a -> acc := !acc +. (a *. v.(j))) row;
      !acc)
    m

let transpose m =
  let r, c = dim m in
  Array.init c (fun j -> Array.init r (fun i -> m.(i).(j)))

(* The smallest acceptable absolute pivot. *)
let pivot_tol = 1e-13

let lu_factor_in_place m =
  let n, c = dim m in
  if n <> c then invalid_arg "Linalg.lu_factor: non-square matrix";
  let perm = Array.init n Fun.id in
  let sign = ref 1. in
  for k = 0 to n - 1 do
    (* Partial pivoting: pick the largest magnitude entry in column k. *)
    let piv = ref k in
    for i = k + 1 to n - 1 do
      if Float.abs m.(i).(k) > Float.abs m.(!piv).(k) then piv := i
    done;
    if !piv <> k then begin
      let tmp = m.(k) in
      m.(k) <- m.(!piv);
      m.(!piv) <- tmp;
      let tp = perm.(k) in
      perm.(k) <- perm.(!piv);
      perm.(!piv) <- tp;
      sign := -. !sign
    end;
    if Float.abs m.(k).(k) < pivot_tol then raise (Singular k);
    for i = k + 1 to n - 1 do
      let f = m.(i).(k) /. m.(k).(k) in
      m.(i).(k) <- f;
      if f <> 0. then
        for j = k + 1 to n - 1 do
          m.(i).(j) <- m.(i).(j) -. (f *. m.(k).(j))
        done
    done
  done;
  { lu = m; perm; sign = !sign }

let lu_factor a = lu_factor_in_place (copy_mat a)

let lu_solve_into { lu; perm; _ } b x =
  let n = Array.length lu in
  if Array.length b <> n || Array.length x <> n then
    invalid_arg "Linalg.lu_solve: size mismatch";
  if b == x then invalid_arg "Linalg.lu_solve_into: aliased arrays";
  for i = 0 to n - 1 do
    x.(i) <- b.(perm.(i))
  done;
  (* Forward substitution (unit lower triangle). *)
  for i = 1 to n - 1 do
    for j = 0 to i - 1 do
      x.(i) <- x.(i) -. (lu.(i).(j) *. x.(j))
    done
  done;
  (* Back substitution. *)
  for i = n - 1 downto 0 do
    for j = i + 1 to n - 1 do
      x.(i) <- x.(i) -. (lu.(i).(j) *. x.(j))
    done;
    x.(i) <- x.(i) /. lu.(i).(i)
  done

let lu_solve lu b =
  let x = Array.make (Array.length b) 0. in
  lu_solve_into lu b x;
  x

let solve a b = lu_solve (lu_factor a) b

let determinant { lu; sign; _ } =
  let d = ref sign in
  Array.iteri (fun i row -> d := !d *. row.(i)) lu;
  !d

let residual_norm a x b =
  let ax = mat_vec a x in
  let worst = ref 0. in
  Array.iteri (fun i v -> worst := Float.max !worst (Float.abs (v -. b.(i)))) ax;
  !worst
