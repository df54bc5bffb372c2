let simpson_once f a b =
  let m = 0.5 *. (a +. b) in
  ((b -. a) /. 6.) *. (f a +. (4. *. f m) +. f b)

(* The absolute floor on a sub-interval's error, and the deepest bisection. *)
let abs_tol = 1e-300
let max_depth = 30

let simpson_adaptive ?(rel_tol = 1e-10) f ~a ~b =
  if a = b then 0.
  else begin
    (* Oscillatory integrands produce sub-interval sums near zero, which
       would defeat a purely relative stopping rule (infinite refinement).
       Establish a global magnitude scale first and use it as an absolute
       floor for every sub-interval. *)
    let scale =
      let n = 64 in
      let peak = ref 0. in
      for i = 0 to n do
        let x = a +. ((b -. a) *. float_of_int i /. float_of_int n) in
        peak := Float.max !peak (Float.abs (f x))
      done;
      Float.abs (b -. a) *. !peak
    in
    let floor_tol = Float.max abs_tol (rel_tol *. scale) in
    let rec go a b whole depth tol =
      let m = 0.5 *. (a +. b) in
      let left = simpson_once f a m and right = simpson_once f m b in
      let sum = left +. right in
      let err = Float.abs (sum -. whole) in
      if depth <= 0 || err <= 15. *. Float.max tol (rel_tol *. Float.abs sum) then
        sum +. ((sum -. whole) /. 15.)
      else go a m left (depth - 1) (tol /. 2.) +. go m b right (depth - 1) (tol /. 2.)
    in
    go a b (simpson_once f a b) max_depth floor_tol
  end

let trapezoid_sampled ts ys =
  let n = Array.length ts in
  if Array.length ys <> n then invalid_arg "Quadrature.trapezoid_sampled: length mismatch";
  if n < 2 then invalid_arg "Quadrature.trapezoid_sampled: needs >= 2 samples";
  let acc = ref 0. in
  for i = 0 to n - 2 do
    acc := !acc +. (0.5 *. (ts.(i + 1) -. ts.(i)) *. (ys.(i) +. ys.(i + 1)))
  done;
  !acc

let simpson_fixed f ~a ~b ~n =
  let n = if n mod 2 = 0 then n else n + 1 in
  let h = (b -. a) /. float_of_int n in
  let acc = ref (f a +. f b) in
  for i = 1 to n - 1 do
    let w = if i mod 2 = 1 then 4. else 2. in
    acc := !acc +. (w *. f (a +. (h *. float_of_int i)))
  done;
  !acc *. h /. 3.
