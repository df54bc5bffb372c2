(* Unit and property tests for the numerics substrate. *)
open Rlc_num

let check_float ?(eps = 1e-9) msg expected actual =
  Alcotest.(check (float eps)) msg expected actual

(* ------------------------------------------------------------------ Cx *)

let test_cx_basic () =
  let open Cx in
  let z = make 3. 4. in
  check_float "norm" 5. (norm z);
  check_float "re of sum" 4. ((z +: re 1.).re);
  check_float "mul" (-7.) ((z *: z).re);
  check_float "mul im" 24. ((z *: z).im);
  let q = z /: z in
  check_float "div re" 1. q.re;
  check_float "div im" 0. q.im;
  Alcotest.(check bool) "approx_equal" true (approx_equal (re 1.) (make 1. 1e-12))

let test_cx_exp () =
  let open Cx in
  (* e^{i pi} = -1 *)
  let z = exp (make 0. Float.pi) in
  check_float ~eps:1e-12 "euler re" (-1.) z.re;
  check_float ~eps:1e-12 "euler im" 0. z.im

let test_cx_real_part_checked () =
  check_float "real part" 2.5 (Cx.real_part_checked (Cx.make 2.5 1e-12));
  Alcotest.check_raises "imaginary residue rejected"
    (Invalid_argument "Cx.real_part_checked: imaginary residue 1 (|z|=1.41421)") (fun () ->
      ignore (Cx.real_part_checked (Cx.make 1. 1.)))

(* ---------------------------------------------------------------- Poly *)

let test_poly_eval () =
  let p = Poly.of_coeffs [| 1.; -3.; 2. |] in
  (* 2x^2 - 3x + 1 = (2x - 1)(x - 1) *)
  check_float "eval at 0" 1. (Poly.eval p 0.);
  check_float "eval at 1" 0. (Poly.eval p 1.);
  check_float "eval at 2" 3. (Poly.eval p 2.);
  Alcotest.(check int) "degree" 2 (Poly.degree p);
  let d = Poly.derivative p in
  check_float "derivative" (4. *. 2. -. 3.) (Poly.eval d 2.)

let test_poly_trim () =
  let p = Poly.of_coeffs [| 1.; 2.; 0.; 0. |] in
  Alcotest.(check int) "trailing zeros trimmed" 1 (Poly.degree p)

let test_poly_arith () =
  let p = Poly.of_coeffs [| 1.; 1. |] in
  let q = Poly.mul p p in
  Alcotest.(check bool) "square" true
    (Poly.equal ~tol:0. q (Poly.of_coeffs [| 1.; 2.; 1. |]));
  Alcotest.(check bool) "sub to zero" true (Poly.equal (Poly.sub p p) Poly.zero)

let test_quadratic_real_roots () =
  let r1, r2 = Poly.quadratic_roots ~a:1. ~b:(-5.) ~c:6. in
  let lo = Float.min r1.re r2.re and hi = Float.max r1.re r2.re in
  check_float "small root" 2. lo;
  check_float "large root" 3. hi;
  check_float "imag" 0. r1.im

let test_quadratic_complex_roots () =
  let r1, r2 = Poly.quadratic_roots ~a:1. ~b:2. ~c:5. in
  check_float "alpha" (-1.) r1.re;
  check_float "beta" 2. r1.im;
  check_float "conjugate" (-2.) r2.im

let test_quadratic_cancellation () =
  (* b^2 >> 4ac: naive formula loses the small root. *)
  let r1, r2 = Poly.quadratic_roots ~a:1. ~b:(-1e8) ~c:1. in
  let small = Float.min r1.re r2.re in
  check_float ~eps:1e-16 "small root accurate" 1e-8 small

let test_cubic_roots () =
  (* (x-1)(x-2)(x-3) = x^3 - 6x^2 + 11x - 6 *)
  let roots = Poly.roots (Poly.of_coeffs [| -6.; 11.; -6.; 1. |]) in
  let reals = List.sort compare (List.map (fun (z : Cx.t) -> z.re) roots) in
  (match reals with
  | [ a; b; c ] ->
      check_float ~eps:1e-8 "root 1" 1. a;
      check_float ~eps:1e-8 "root 2" 2. b;
      check_float ~eps:1e-8 "root 3" 3. c
  | _ -> Alcotest.fail "expected 3 roots");
  List.iter (fun (z : Cx.t) -> check_float ~eps:1e-8 "real" 0. z.im) roots

let prop_quadratic_roots_satisfy =
  QCheck.Test.make ~name:"quadratic roots satisfy polynomial" ~count:500
    QCheck.(triple (float_range (-100.) 100.) (float_range (-100.) 100.) (float_range (-100.) 100.))
    (fun (a, b, c) ->
      QCheck.assume (Float.abs a > 1e-3);
      let r1, r2 = Poly.quadratic_roots ~a ~b ~c in
      let residual (z : Cx.t) =
        let open Cx in
        norm ((re a *: z *: z) +: (re b *: z) +: re c)
      in
      let scale = Float.abs a +. Float.abs b +. Float.abs c +. 1. in
      residual r1 < 1e-6 *. scale *. (1. +. Cx.norm r1 ** 2.)
      && residual r2 < 1e-6 *. scale *. (1. +. Cx.norm r2 ** 2.))

(* -------------------------------------------------------------- Linalg *)

let test_lu_solve () =
  let a = [| [| 4.; 1.; 0. |]; [| 1.; 3.; 1. |]; [| 0.; 1.; 2. |] |] in
  let b = [| 1.; 2.; 3. |] in
  let x = Linalg.solve a b in
  check_float ~eps:1e-12 "residual" 0. (Linalg.residual_norm a x b)

let test_lu_pivoting () =
  (* Zero on the initial pivot requires row exchange. *)
  let a = [| [| 0.; 1. |]; [| 1.; 0. |] |] in
  let x = Linalg.solve a [| 3.; 7. |] in
  check_float "x0" 7. x.(0);
  check_float "x1" 3. x.(1)

let test_lu_singular () =
  let a = [| [| 1.; 2. |]; [| 2.; 4. |] |] in
  Alcotest.(check bool) "raises Singular" true
    (match Linalg.solve a [| 1.; 1. |] with
    | _ -> false
    | exception Linalg.Singular _ -> true)

let test_determinant () =
  let a = [| [| 2.; 0. |]; [| 0.; 3. |] |] in
  check_float "det" 6. (Linalg.determinant (Linalg.lu_factor a));
  let swapped = [| [| 0.; 3. |]; [| 2.; 0. |] |] in
  check_float "det with swap" (-6.) (Linalg.determinant (Linalg.lu_factor swapped))

let prop_lu_random_spd =
  QCheck.Test.make ~name:"LU solves random diagonally dominant systems" ~count:100
    QCheck.(pair (int_range 2 12) (list_of_size (Gen.return 200) (float_range (-1.) 1.)))
    (fun (n, entries) ->
      QCheck.assume (List.length entries >= (n * n) + n);
      let e = Array.of_list entries in
      let a =
        Array.init n (fun i ->
            Array.init n (fun j -> if i = j then float_of_int n +. 1. else e.((i * n) + j)))
      in
      let b = Array.init n (fun i -> e.((n * n) + i)) in
      let x = Linalg.solve a b in
      Linalg.residual_norm a x b < 1e-8)

(* -------------------------------------------------------------- Banded *)

let test_banded_vs_dense () =
  let n = 10 and bw = 2 in
  let m = Banded.create ~n ~bw in
  for i = 0 to n - 1 do
    Banded.set m i i 6.;
    for j = Int.max 0 (i - bw) to Int.min (n - 1) (i + bw) do
      if j <> i then Banded.set m i j (0.3 *. float_of_int ((i + j) mod 3))
    done
  done;
  let b = Array.init n float_of_int in
  let x = Banded.solve m b in
  let dense = Banded.to_dense m in
  check_float ~eps:1e-10 "banded = dense" 0. (Linalg.residual_norm dense x b)

let test_banded_out_of_band () =
  let m = Banded.create ~n:5 ~bw:1 in
  Alcotest.(check bool) "set outside band rejected" true
    (match Banded.set m 0 3 1. with
    | () -> false
    | exception Invalid_argument _ -> true);
  check_float "get outside band is 0" 0. (Banded.get m 0 3)

(* Lanes of one shape solve their systems, each bit for bit as alone,
   whatever the bandwidth (1 takes the tridiagonal branch), and an empty
   system solves to nothing. *)
let test_banded_lanes () =
  let system n bw seed =
    let m = Banded.create ~n ~bw in
    for i = 0 to n - 1 do
      Banded.set m i i (6. +. float_of_int ((i * seed) mod 5));
      for j = Int.max 0 (i - bw) to Int.min (n - 1) (i + bw) do
        if j <> i then Banded.set m i j ((0.3 *. float_of_int ((i + j + seed) mod 3)) -. 0.2)
      done
    done;
    let dense = Banded.to_dense m in
    Banded.factor m;
    (dense, m)
  in
  let bits = Array.map Int64.bits_of_float in
  List.iter
    (fun (n, bw) ->
      let systems = Array.init 3 (fun l -> system n bw (l + 1)) in
      let rhs l = Array.init n (fun i -> float_of_int ((i * 3) + l) /. 7.) in
      let bs = Array.init 3 rhs in
      Banded.solve_factored_lanes (Array.map snd systems) bs 3;
      Array.iteri
        (fun l (dense, t) ->
          let what = Printf.sprintf "n %d bw %d lane %d" n bw l in
          let b = rhs l in
          Banded.solve_factored t b;
          Alcotest.(check (array int64)) what (bits b) (bits bs.(l));
          if n > 0 then check_float ~eps:1e-10 what 0. (Linalg.residual_norm dense b (rhs l)))
        systems)
    [ (0, 0); (0, 1); (0, 3); (1, 1); (7, 1); (9, 2); (6, 5) ]

(* The substitutions a factored system stands for, in the order of the
   original general loops: forward column by column, skipping a zero
   multiplier, then back substitution row by row. *)
let reference_solve t b =
  let n = Banded.dim t and bw = Banded.bandwidth t in
  for r = 0 to n - 1 do
    for i = r + 1 to Int.min (n - 1) (r + bw) do
      let f = Banded.get t i r in
      if f <> 0. then b.(i) <- b.(i) -. (f *. b.(r))
    done
  done;
  for i = n - 1 downto 0 do
    let acc = ref b.(i) in
    for j = i + 1 to Int.min (n - 1) (i + bw) do
      acc := !acc -. (Banded.get t i j *. b.(j))
    done;
    b.(i) <- !acc /. Banded.get t i i
  done

(* A lane's factors, written as [factor] leaves them (multipliers in the
   strict lower band, U above), and its right-hand side: entries are zero,
   negative zero or random, mostly zeros in half the cases, so that a
   multiplier's skip decides the sign of a zero. *)
let arb_factored_lanes =
  let open QCheck.Gen in
  let entry ~zeros ~mag =
    frequency [ (zeros, return 0.); (zeros, return (-0.)); (4, float_range (-.mag) mag) ]
  in
  let gen =
    let* bw = int_range 0 5 in
    let* n = oneof [ int_range 0 (bw + 1); int_range 0 14 ] in
    let* k = int_range 1 5 in
    let* zeros = oneofl [ 1; 8 ] in
    let lane =
      let* lower = list_repeat (n * bw) (entry ~zeros ~mag:1.) in
      let* upper = list_repeat (n * bw) (entry ~zeros ~mag:1.) in
      let* diag = list_repeat n (pair bool (float_range 0.5 2.)) in
      let* rhs = list_repeat n (entry ~zeros ~mag:10.) in
      return (lower, upper, diag, rhs)
    in
    let* lanes = list_repeat k lane in
    return (n, bw, lanes)
  in
  QCheck.make gen ~print:(fun (n, bw, lanes) ->
      Printf.sprintf "n %d bw %d, %d lane(s): %s" n bw (List.length lanes)
        (String.concat " | "
           (List.map
              (fun (lower, upper, diag, rhs) ->
                let fs l = String.concat "," (List.map (Printf.sprintf "%h") l) in
                Printf.sprintf "L[%s] U[%s] D[%s] b[%s]" (fs lower) (fs upper)
                  (fs (List.map (fun (neg, d) -> if neg then -.d else d) diag))
                  (fs rhs))
              lanes)))

let factored_of n bw (lower, upper, diag, _) =
  let t = Banded.create ~n ~bw in
  let lower = Array.of_list lower and upper = Array.of_list upper in
  List.iteri (fun i (neg, d) -> Banded.set t i i (if neg then -.d else d)) diag;
  for i = 0 to n - 1 do
    for d = 1 to bw do
      if i - d >= 0 then Banded.set t i (i - d) lower.((i * bw) + d - 1);
      if i + d < n then Banded.set t i (i + d) upper.((i * bw) + d - 1)
    done
  done;
  t

(* Every branch of the substitution -- general, tridiagonal and the
   unrolled bandwidths 2 and 3, with systems no larger than their band --
   on random factors with zero and negative-zero multipliers: each lane of
   a batch, and each system alone, is bit for bit the reference loops'. *)
let prop_banded_branches =
  QCheck.Test.make ~name:"banded substitution = reference loops, lanes = alone" ~count:400
    arb_factored_lanes (fun (n, bw, lanes) ->
      let bits = Array.map Int64.bits_of_float in
      let ts = Array.of_list (List.map (factored_of n bw) lanes) in
      let rhs = Array.of_list (List.map (fun (_, _, _, b) -> Array.of_list b) lanes) in
      let batch = Array.map Array.copy rhs in
      Banded.solve_factored_lanes ts batch (Array.length ts);
      Array.iteri
        (fun l t ->
          let alone = Array.copy rhs.(l) and want = Array.copy rhs.(l) in
          Banded.solve_factored t alone;
          reference_solve t want;
          if bits alone <> bits want then QCheck.Test.fail_reportf "lane %d alone differs" l;
          if bits batch.(l) <> bits want then
            QCheck.Test.fail_reportf "lane %d in the batch differs" l)
        ts;
      true)

(* [factor]'s elimination as the general loops write it, through the
   checked accessors, raising at a vanishing pivot. *)
let reference_factor t =
  let n = Banded.dim t and bw = Banded.bandwidth t in
  for k = 0 to n - 1 do
    let pivot = Banded.get t k k in
    if Float.abs pivot < 1e-300 then raise (Banded.Singular k);
    for i = k + 1 to Int.min (n - 1) (k + bw) do
      let f = Banded.get t i k /. pivot in
      Banded.set t i k f;
      if f <> 0. then
        for j = k + 1 to Int.min (n - 1) (k + bw) do
          Banded.set t i j (Banded.get t i j -. (f *. Banded.get t k j))
        done
    done
  done

(* Random matrices of bandwidth 0 to 5, with zero and negative-zero
   entries so that multipliers vanish, in batches of 1 to 5 lanes; in
   about a third of the cases one lane is made singular at a random row
   (its strict lower band cleared, that pivot zeroed).  Each lane of
   [factor_lanes] is bit for bit [factor] alone and the reference loops,
   entry by entry; the singular lane reports its row, stops there with
   the entries [factor] leaves before raising, and the others are
   untouched by it. *)
let prop_factor_lanes =
  QCheck.Test.make ~name:"factor lanes = factor alone" ~count:400
    QCheck.(pair arb_factored_lanes (int_range 0 1_000_000))
    (fun ((n, bw, lanes), seed) ->
      let k = List.length lanes in
      let ts = Array.of_list (List.map (factored_of n bw) lanes) in
      (if n > 0 && seed mod 3 = 0 then
         let l = seed mod k and r = seed / 3 mod n in
         let t = ts.(l) in
         for i = 0 to n - 1 do
           for j = Int.max 0 (i - bw) to i - 1 do
             Banded.set t i j 0.
           done
         done;
         Banded.set t r r (if seed mod 2 = 0 then 0. else -0.));
      let dense t = Array.map (Array.map Int64.bits_of_float) (Banded.to_dense t) in
      let run f t =
        let t = Banded.copy t in
        match f t with () -> (t, -1) | exception Banded.Singular r -> (t, r)
      in
      let batch = Array.map Banded.copy ts and piv = Array.make k 7 in
      Banded.factor_lanes batch k piv;
      Array.iteri
        (fun l t ->
          let alone, ra = run Banded.factor t and reference, rr = run reference_factor t in
          if ra <> rr then QCheck.Test.fail_reportf "lane %d: singular at %d alone, %d in the loops" l ra rr;
          if piv.(l) <> ra then QCheck.Test.fail_reportf "lane %d: piv %d, alone %d" l piv.(l) ra;
          if dense alone <> dense reference then QCheck.Test.fail_reportf "lane %d alone differs" l;
          if dense batch.(l) <> dense alone then QCheck.Test.fail_reportf "lane %d in the batch differs" l)
        ts;
      true)

(* ---------------------------------------------------------- Quadrature *)

let test_simpson_poly () =
  (* Simpson is exact on cubics. *)
  let f x = (2. *. x *. x *. x) -. (x *. x) +. 4. in
  let v = Quadrature.simpson_adaptive f ~a:0. ~b:2. in
  check_float ~eps:1e-12 "cubic integral" (8. -. (8. /. 3.) +. 8.) v

let test_simpson_oscillatory () =
  let v = Quadrature.simpson_adaptive sin ~a:0. ~b:(2. *. Float.pi) in
  check_float ~eps:1e-9 "sin over full period" 0. v;
  let v2 = Quadrature.simpson_adaptive (fun x -> Float.exp (-.x) *. sin (10. *. x)) ~a:0. ~b:5. in
  (* closed form: int e^{-x} sin(10x) = 10/101 (1 - e^{-5}(cos 50 + sin 50 /10)) ... *)
  let exact =
    (10. -. (Float.exp (-5.) *. ((sin 50.) +. (10. *. cos 50.)))) /. 101.
  in
  check_float ~eps:1e-9 "damped oscillation" exact v2

let test_trapezoid_sampled () =
  let ts = [| 0.; 1.; 3. |] and ys = [| 0.; 2.; 2. |] in
  check_float "piecewise" 5. (Quadrature.trapezoid_sampled ts ys)

let test_simpson_fixed () =
  let v = Quadrature.simpson_fixed (fun x -> x *. x) ~a:0. ~b:3. ~n:10 in
  check_float ~eps:1e-9 "x^2" 9. v

(* ------------------------------------------------------------ Rootfind *)

let test_brent_simple () =
  let root = Rootfind.brent (fun x -> (x *. x) -. 2.) ~lo:0. ~hi:2. in
  check_float ~eps:1e-10 "sqrt 2" (Float.sqrt 2.) root

let test_brent_no_bracket () =
  Alcotest.(check bool) "raises No_bracket" true
    (match Rootfind.brent (fun x -> (x *. x) +. 1.) ~lo:(-1.) ~hi:1. with
    | _ -> false
    | exception Rootfind.No_bracket -> true)

let test_bisect () =
  let root = Rootfind.bisect cos ~lo:0. ~hi:3. in
  check_float ~eps:1e-9 "pi/2" (Float.pi /. 2.) root

let test_fixed_point_contractive () =
  (* x = cos x converges to the Dottie number. *)
  let r = Rootfind.fixed_point cos ~init:1. ~max_iter:200 in
  Alcotest.(check bool) "converged" true r.converged;
  check_float ~eps:1e-5 "dottie" 0.7390851332 r.value

let test_fixed_point_bracketed_noncontractive () =
  (* f x = 3.5 - x has fixed point 1.75 but plain iteration oscillates. *)
  let r = Rootfind.fixed_point_bracketed (fun x -> 3.5 -. x) ~lo:0. ~hi:3.5 ~init:3. in
  Alcotest.(check bool) "converged" true r.converged;
  check_float ~eps:1e-6 "fixed point" 1.75 r.value

(* -------------------------------------------------------------- Interp *)

let test_linear_interp () =
  let xs = [| 0.; 1.; 3. |] and ys = [| 0.; 10.; 30. |] in
  check_float "midpoint" 5. (Interp.linear ~xs ~ys 0.5);
  check_float "second segment" 20. (Interp.linear ~xs ~ys 2.);
  check_float "extrapolate low" (-10.) (Interp.linear ~xs ~ys (-1.));
  check_float "extrapolate high" 40. (Interp.linear ~xs ~ys 4.)

let test_bilinear () =
  let g =
    Interp.make_grid2 ~xs:[| 0.; 1. |] ~ys:[| 0.; 2. |]
      ~values:[| [| 0.; 2. |]; [| 1.; 3. |] |]
  in
  (* v = x + y on the corners; bilinear reproduces the plane. *)
  check_float "center" 1.5 (Interp.bilinear g 0.5 1.);
  check_float "corner" 3. (Interp.bilinear g 1. 2.);
  check_float "extrapolated" 4. (Interp.bilinear g 1. 3.)

let test_grid_validation () =
  Alcotest.(check bool) "non-monotone rejected" true
    (match Interp.make_grid2 ~xs:[| 0.; 0. |] ~ys:[| 0.; 1. |] ~values:[| [| 0.; 0. |]; [| 0.; 0. |] |] with
    | _ -> false
    | exception Invalid_argument _ -> true)

let prop_bilinear_within_bounds =
  QCheck.Test.make ~name:"bilinear interpolation stays within cell bounds" ~count:300
    QCheck.(pair (float_range 0. 1.) (float_range 0. 1.))
    (fun (x, y) ->
      let g =
        Interp.make_grid2 ~xs:[| 0.; 1. |] ~ys:[| 0.; 1. |]
          ~values:[| [| 1.; 4. |]; [| 2.; 8. |] |]
      in
      let v = Interp.bilinear g x y in
      v >= 1. -. 1e-12 && v <= 8. +. 1e-12)

(* --------------------------------------------------------------- Units *)

let test_units_roundtrip () =
  check_float "ps" 100e-12 (Units.ps 100.);
  check_float "in_ps" 100. (Units.in_ps (Units.ps 100.));
  check_float "pf" 1.1e-12 (Units.pf 1.1);
  check_float "nh roundtrip" 5.14 (Units.in_nh (Units.nh 5.14));
  check_float "mm" 5e-3 (Units.mm 5.)

let test_units_pp () =
  let s = Format.asprintf "%a" Units.pp_cap 1.1e-12 in
  Alcotest.(check string) "pF formatting" "1.1 pF" s;
  let s2 = Format.asprintf "%a" Units.pp_time 25.3e-12 in
  Alcotest.(check string) "ps formatting" "25.3 ps" s2

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "rlc_num"
    [
      ( "cx",
        [
          Alcotest.test_case "basic ops" `Quick test_cx_basic;
          Alcotest.test_case "exp" `Quick test_cx_exp;
          Alcotest.test_case "real_part_checked" `Quick test_cx_real_part_checked;
        ] );
      ( "poly",
        [
          Alcotest.test_case "eval/derivative" `Quick test_poly_eval;
          Alcotest.test_case "trim" `Quick test_poly_trim;
          Alcotest.test_case "arith" `Quick test_poly_arith;
          Alcotest.test_case "quadratic real" `Quick test_quadratic_real_roots;
          Alcotest.test_case "quadratic complex" `Quick test_quadratic_complex_roots;
          Alcotest.test_case "quadratic cancellation" `Quick test_quadratic_cancellation;
          Alcotest.test_case "cubic" `Quick test_cubic_roots;
          q prop_quadratic_roots_satisfy;
        ] );
      ( "linalg",
        [
          Alcotest.test_case "solve" `Quick test_lu_solve;
          Alcotest.test_case "pivoting" `Quick test_lu_pivoting;
          Alcotest.test_case "singular" `Quick test_lu_singular;
          Alcotest.test_case "determinant" `Quick test_determinant;
          q prop_lu_random_spd;
        ] );
      ( "banded",
        [
          Alcotest.test_case "vs dense" `Quick test_banded_vs_dense;
          Alcotest.test_case "band limits" `Quick test_banded_out_of_band;
          Alcotest.test_case "lanes = each alone" `Quick test_banded_lanes;
          QCheck_alcotest.to_alcotest prop_banded_branches;
          QCheck_alcotest.to_alcotest prop_factor_lanes;
        ] );
      ( "quadrature",
        [
          Alcotest.test_case "cubic exact" `Quick test_simpson_poly;
          Alcotest.test_case "oscillatory" `Quick test_simpson_oscillatory;
          Alcotest.test_case "sampled trapezoid" `Quick test_trapezoid_sampled;
          Alcotest.test_case "fixed simpson" `Quick test_simpson_fixed;
        ] );
      ( "rootfind",
        [
          Alcotest.test_case "brent" `Quick test_brent_simple;
          Alcotest.test_case "brent no bracket" `Quick test_brent_no_bracket;
          Alcotest.test_case "bisect" `Quick test_bisect;
          Alcotest.test_case "fixed point" `Quick test_fixed_point_contractive;
          Alcotest.test_case "bracketed fixed point" `Quick test_fixed_point_bracketed_noncontractive;
        ] );
      ( "interp",
        [
          Alcotest.test_case "linear" `Quick test_linear_interp;
          Alcotest.test_case "bilinear" `Quick test_bilinear;
          Alcotest.test_case "validation" `Quick test_grid_validation;
          q prop_bilinear_within_bounds;
        ] );
      ( "units",
        [
          Alcotest.test_case "roundtrip" `Quick test_units_roundtrip;
          Alcotest.test_case "pretty printing" `Quick test_units_pp;
        ] );
    ]
