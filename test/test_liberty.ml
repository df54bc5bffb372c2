(* Characterization + NLDM table + Liberty round-trip tests. *)
open Rlc_liberty
open Rlc_devices
open Rlc_num

let tech = Tech.c018

let check_float ?(eps = 1e-9) msg expected actual =
  Alcotest.(check (float eps)) msg expected actual

(* Small grid keeps the suite fast; the default grid is exercised by one
   cached characterization reused across tests. *)
let small_grid =
  {
    Characterize.slews = Array.map Units.ps [| 50.; 100.; 200. |];
    caps = Array.map Units.ff [| 50.; 200.; 800. |];
  }

let cell_exn ?grid tech ~size =
  match Characterize.cell_res ?grid tech ~size with
  | Ok c -> c
  | Error e -> failwith (Rlc_errors.Error.message e)

let cell75 = lazy (cell_exn ~grid:small_grid tech ~size:75.)

(* ----------------------------------------------------------------- lut *)

let test_lut_lookup_grid_points () =
  let lut =
    Table.make_lut ~slews:[| 1.; 2. |] ~caps:[| 10.; 20. |]
      ~values:[| [| 1.; 2. |]; [| 3.; 4. |] |]
  in
  check_float "corner" 1. (Table.lut_lookup lut ~slew:1. ~cap:10.);
  check_float "center" 2.5 (Table.lut_lookup lut ~slew:1.5 ~cap:15.)

let test_lut_validation () =
  Alcotest.(check bool) "ragged rows rejected" true
    (match
       Table.make_lut ~slews:[| 1.; 2. |] ~caps:[| 1.; 2. |] ~values:[| [| 1. |]; [| 1.; 2. |] |]
     with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* ------------------------------------------------------ characterization *)

let test_tables_monotone_in_cap () =
  let c = Lazy.force cell75 in
  let d1 = Table.delay c ~edge:Rlc_waveform.Measure.Rising ~slew:(Units.ps 100.) ~cap:(Units.ff 50.) in
  let d2 = Table.delay c ~edge:Rlc_waveform.Measure.Rising ~slew:(Units.ps 100.) ~cap:(Units.ff 800.) in
  Alcotest.(check bool)
    (Printf.sprintf "delay grows with load: %.1f ps -> %.1f ps" (Units.in_ps d1) (Units.in_ps d2))
    true (d2 > d1);
  let s1 = Table.slew_10_90 c ~edge:Rlc_waveform.Measure.Rising ~slew:(Units.ps 100.) ~cap:(Units.ff 50.) in
  let s2 = Table.slew_10_90 c ~edge:Rlc_waveform.Measure.Rising ~slew:(Units.ps 100.) ~cap:(Units.ff 800.) in
  Alcotest.(check bool) "slew grows with load" true (s2 > s1)

let test_table_matches_direct_simulation () =
  (* Bilinear interpolation at a grid point must equal the simulated value. *)
  let c = Lazy.force cell75 in
  let slew = Units.ps 100. and cap = Units.ff 200. in
  let d_direct, s19_direct, _, t59_direct =
    match
      Characterize.characterize_point_res tech ~size:75. ~edge:Testbench.Rise ~input_slew:slew
        ~cap
    with
    | Ok v -> v
    | Error e -> Alcotest.fail (Rlc_errors.Error.to_string e)
  in
  check_float ~eps:1e-15 "delay" d_direct
    (Table.delay c ~edge:Rlc_waveform.Measure.Rising ~slew ~cap);
  check_float ~eps:1e-15 "slew" s19_direct
    (Table.slew_10_90 c ~edge:Rlc_waveform.Measure.Rising ~slew ~cap);
  check_float ~eps:1e-15 "tail" t59_direct
    (Table.tail_50_90 c ~edge:Rlc_waveform.Measure.Rising ~slew ~cap)

let test_fitted_rs_regime () =
  (* The paper's premise: a 75X driver's fitted resistance is comparable to
     global-wire Z0 (tens of Ohms), and scales roughly inversely with size. *)
  let c75 = Lazy.force cell75 in
  let rs75 =
    Table.fitted_rs c75 ~edge:Rlc_waveform.Measure.Rising ~slew:(Units.ps 100.) ~cap:(Units.pf 1.1)
  in
  Alcotest.(check bool)
    (Printf.sprintf "Rs(75X) = %.1f Ohm in driver regime" rs75)
    true
    (rs75 > 15. && rs75 < 120.);
  let c25 = cell_exn ~grid:small_grid tech ~size:25. in
  let rs25 =
    Table.fitted_rs c25 ~edge:Rlc_waveform.Measure.Rising ~slew:(Units.ps 100.) ~cap:(Units.pf 1.1)
  in
  Alcotest.(check bool)
    (Printf.sprintf "Rs(25X) = %.1f Ohm > 2x Rs(75X) = %.1f Ohm" rs25 rs75)
    true (rs25 > 2. *. rs75)

let test_ramp_time_extrapolation () =
  let c = Lazy.force cell75 in
  let s = Table.slew_10_90 c ~edge:Rlc_waveform.Measure.Rising ~slew:(Units.ps 100.) ~cap:(Units.ff 200.) in
  check_float ~eps:1e-15 "ramp = slew / 0.8" (s /. 0.8)
    (Table.ramp_time c ~edge:Rlc_waveform.Measure.Rising ~slew:(Units.ps 100.) ~cap:(Units.ff 200.))

let test_cache_hit () =
  let a = cell_exn ~grid:small_grid tech ~size:75. in
  let b = cell_exn ~grid:small_grid tech ~size:75. in
  Alcotest.(check bool) "same physical table" true (a == b)

let test_store_keys_on_grid_values () =
  (* [Hashtbl.hash] reads only the first ten floats of a (slews, caps) pair,
     so these two grids hash alike; each must still get its own tables. *)
  let grid last =
    {
      Characterize.slews = Array.map Units.ps [| 50.; 100. |];
      caps = Array.map Units.ff [| 50.; 100.; 150.; 200.; 300.; 400.; 600.; 800.; last |];
    }
  in
  let g1 = grid 1000. and g2 = grid 1600. in
  Alcotest.(check bool) "the grids' hashes collide" true
    (Hashtbl.hash (g1.Characterize.slews, g1.Characterize.caps)
    = Hashtbl.hash (g2.Characterize.slews, g2.Characterize.caps));
  let axis grid =
    (cell_exn ~grid tech ~size:40.).Table.rise.Table.delay.Table.caps
  in
  Alcotest.(check (array (float 0.))) "first grid's tables" g1.Characterize.caps (axis g1);
  Alcotest.(check (array (float 0.))) "second grid's tables" g2.Characterize.caps (axis g2)

(* Characterization fans both arcs' grid points out over the pool; every
   point is its own fresh transient, so a one-domain and a two-domain pool
   must give the same bits in every entry of every table. *)
let test_pooled_tables_bit_identical () =
  let on jobs =
    Characterize.clear_cache ();
    Rlc_parallel.Pool.with_pool ~jobs (fun pool ->
        match Characterize.cell_res ~pool tech ~size:60. with
        | Ok c -> c
        | Error e -> Alcotest.fail (Rlc_errors.Error.to_string e))
  in
  let c1 = on 1 and c2 = on 2 in
  let bits (c : Table.cell) =
    List.concat_map
      (fun (arc : Table.timing) ->
        List.concat_map
          (fun (lut : Table.lut) ->
            List.concat_map
              (fun row -> Array.to_list (Array.map Int64.bits_of_float row))
              (Array.to_list lut.Table.values))
          [ arc.Table.delay; arc.Table.slew_10_90; arc.Table.slew_20_80; arc.Table.tail_50_90 ])
      [ c.Table.rise; c.Table.fall ]
  in
  Alcotest.(check int) "2 arcs x 4 tables x 56 entries" 448 (List.length (bits c1));
  Alcotest.(check (list int64)) "jobs 1 = jobs 2, bit for bit" (bits c1) (bits c2);
  (* Each entry sits where its own point belongs: off-diagonal points of
     both arcs equal a direct simulation of that point. *)
  let g = Characterize.default_grid in
  List.iter
    (fun (edge, (arc : Table.timing), i, j) ->
      let direct =
        match
          Characterize.characterize_point_res tech ~size:60. ~edge
            ~input_slew:g.Characterize.slews.(i) ~cap:g.Characterize.caps.(j)
        with
        | Ok (d, s19, s28, t59) -> [ d; s19; s28; t59 ]
        | Error e -> Alcotest.fail (Rlc_errors.Error.to_string e)
      in
      let tabled =
        List.map
          (fun (lut : Table.lut) -> lut.Table.values.(i).(j))
          [ arc.Table.delay; arc.Table.slew_10_90; arc.Table.slew_20_80; arc.Table.tail_50_90 ]
      in
      Alcotest.(check (list int64))
        (Printf.sprintf "point (%d, %d) in place" i j)
        (List.map Int64.bits_of_float direct)
        (List.map Int64.bits_of_float tabled))
    [ (Testbench.Rise, c2.Table.rise, 6, 0); (Testbench.Fall, c2.Table.fall, 2, 5) ]

(* The pool re-raises the lowest-index failure, which is the point a
   serial run reaches first: the rise arc's smallest slew and cap.  A NaN
   threshold makes every point's device current NaN, so every point's
   Newton iteration diverges at the operating point.  (Sizes outside the
   characterized range never reach the points: see "sizes outside the
   range are refused".) *)
let test_pooled_error_is_first_point () =
  let broken =
    { tech with Rlc_devices.Tech.name = "nan-vth"; nmos = { tech.Rlc_devices.Tech.nmos with vth = nan } }
  in
  List.iter
    (fun jobs ->
      Rlc_parallel.Pool.with_pool ~jobs (fun pool ->
          match Characterize.cell_res ~pool broken ~size:75. with
          | Ok _ -> Alcotest.failf "jobs %d: a NaN-threshold cell characterized" jobs
          | Error e ->
              Alcotest.(check string) (Printf.sprintf "jobs %d code" jobs) "internal"
                (Rlc_errors.Error.code e);
              Alcotest.(check string)
                (Printf.sprintf "jobs %d message" jobs)
                "Engine: Newton failed to converge at t=0 s (Characterize: size=75, slew=20 \
                 ps, cap=20 fF)"
                (Rlc_errors.Error.message e)))
    [ 1; 2 ]

(* Sizes outside [min_size, max_size] -- NaN, infinities, zero, negative,
   just outside either end -- are bad requests answered before the store
   is looked up: no characterization, no miss.  Both ends are inside, and
   the lower end is where the default grid stops completing: at 5.1X its
   largest load's output never completes 10-90 %. *)
let test_size_range () =
  (match
     Characterize.characterize_point_res tech ~size:5.1 ~edge:Testbench.Rise
       ~input_slew:(Units.ps 20.) ~cap:(Units.ff 3200.)
   with
  | Ok _ -> Alcotest.fail "5.1X completed the default grid's largest load"
  | Error e ->
      Alcotest.(check string) "5.1X at 3.2 pF" "internal" (Rlc_errors.Error.code e));
  let misses () = (Characterize.stats ()).Rlc_obs.Memo.misses in
  List.iter
    (fun size ->
      let m0 = misses () in
      (match Characterize.cell_res tech ~size with
      | Ok _ -> Alcotest.failf "size %g characterized" size
      | Error e ->
          Alcotest.(check string) (Printf.sprintf "size %g code" size) "bad_request"
            (Rlc_errors.Error.code e));
      Alcotest.(check int) (Printf.sprintf "size %g: no miss" size) m0 (misses ()))
    [
      nan;
      infinity;
      neg_infinity;
      0.;
      -75.;
      Float.pred Characterize.min_size;
      Float.succ Characterize.max_size;
      1e6;
      1e300;
    ];
  List.iter
    (fun size ->
      match Characterize.cell_res tech ~size with
      | Ok c -> Alcotest.(check (float 0.)) "drive size" size c.Table.drive_size
      | Error e -> Alcotest.failf "size %g refused: %s" size (Rlc_errors.Error.message e))
    [ Characterize.min_size; Characterize.max_size ]

let test_fall_arc_differs () =
  let c = Lazy.force cell75 in
  let dr = Table.delay c ~edge:Rlc_waveform.Measure.Rising ~slew:(Units.ps 100.) ~cap:(Units.ff 200.) in
  let df = Table.delay c ~edge:Rlc_waveform.Measure.Falling ~slew:(Units.ps 100.) ~cap:(Units.ff 200.) in
  Alcotest.(check bool) "both arcs positive" true (dr > 0. && df > 0.)

(* -------------------------------------------------------------- liberty *)

let test_ast_parse_basic () =
  let src =
    {|
/* a comment */
library (demo) {
  comment : "hello";
  cell (inv) {
    drive_size : 75; // trailing comment
    index_1 ("1, 2, 3");
  }
}
|}
  in
  match Liberty_ast.parse src with
  | Error e -> Alcotest.fail e
  | Ok g ->
      Alcotest.(check string) "library name"
        (match g.Liberty_ast.gargs with [ Liberty_ast.Ident n ] -> n | _ -> "?")
        "demo";
      let cell = Option.get (Liberty_ast.find_group g "cell") in
      (match Liberty_ast.find_attr cell "drive_size" with
      | Some (Liberty_ast.Num f) -> check_float "attr" 75. f
      | _ -> Alcotest.fail "drive_size missing");
      (match Liberty_ast.find_complex cell "index_1" with
      | Some [ v ] ->
          Alcotest.(check (list (float 1e-9))) "index list" [ 1.; 2.; 3. ]
            (Liberty_ast.float_list_of_value v)
      | _ -> Alcotest.fail "index_1 missing")

let test_ast_parse_errors () =
  let bad = [ "library (x) {"; "library (x) { foo }"; "library (x) { a : \"unterminated; }" ] in
  List.iter
    (fun src ->
      match Liberty_ast.parse src with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail ("parser accepted: " ^ src))
    bad

let test_ast_roundtrip () =
  let g =
    {
      Liberty_ast.gname = "library";
      gargs = [ Liberty_ast.Ident "demo" ];
      body =
        [
          Liberty_ast.Attribute ("x", Liberty_ast.Num 1.5e-12);
          Liberty_ast.Complex ("idx", [ Liberty_ast.Str "1, 2" ]);
          Liberty_ast.Group { gname = "sub"; gargs = []; body = [] };
        ];
    }
  in
  match Liberty_ast.parse (Liberty_ast.to_string g) with
  | Ok g' -> Alcotest.(check bool) "round trip" true (Liberty_ast.equal_group g g')
  | Error e -> Alcotest.fail e

let test_cell_roundtrip () =
  let c = Lazy.force cell75 in
  let lib = Liberty_io.library_of_cells ~name:"rt" [ c ] in
  let text = Liberty_ast.to_string lib in
  match Result.bind (Liberty_ast.parse text) Liberty_io.cells_of_library with
  | Error e -> Alcotest.fail e
  | Ok [ c' ] ->
      Alcotest.(check string) "name" c.Table.name c'.Table.name;
      check_float ~eps:0. "drive size" c.Table.drive_size c'.Table.drive_size;
      check_float ~eps:0. "input cap" c.Table.input_cap c'.Table.input_cap;
      (* Every table value must survive the text round trip bit-exactly. *)
      let check_lut tag (a : Table.lut) (b : Table.lut) =
        Alcotest.(check (array (float 0.))) (tag ^ " slews") a.Table.slews b.Table.slews;
        Alcotest.(check (array (float 0.))) (tag ^ " caps") a.Table.caps b.Table.caps;
        Array.iteri
          (fun i row -> Alcotest.(check (array (float 0.))) (tag ^ " row") row b.Table.values.(i))
          a.Table.values
      in
      check_lut "rise delay" c.Table.rise.Table.delay c'.Table.rise.Table.delay;
      check_lut "fall tail" c.Table.fall.Table.tail_50_90 c'.Table.fall.Table.tail_50_90
  | Ok _ -> Alcotest.fail "expected exactly one cell"

let test_standard_nldm_fallback () =
  (* Strip the extension groups from the printed library; loading must
     synthesize the auxiliary tables from the 10-90 transition with the
     exponential-shape ratios. *)
  let c = Lazy.force cell75 in
  let lib = Liberty_io.library_of_cells ~name:"std" [ c ] in
  let rec strip (g : Liberty_ast.group) =
    {
      g with
      Liberty_ast.body =
        List.filter_map
          (fun stmt ->
            match stmt with
            | Liberty_ast.Group sub ->
                let name = sub.Liberty_ast.gname in
                let is_ext =
                  List.exists
                    (fun suffix ->
                      String.length name >= String.length suffix
                      && String.sub name (String.length name - String.length suffix)
                           (String.length suffix)
                         = suffix)
                    [ "_transition_20_80"; "_tail_50_90" ]
                in
                if is_ext then None else Some (Liberty_ast.Group (strip sub))
            | s -> Some s)
          g.Liberty_ast.body;
    }
  in
  match Liberty_io.cells_of_library (strip lib) with
  | Error e -> Alcotest.fail e
  | Ok [ c' ] ->
      let slew = Units.ps 100. and cap = Units.ff 200. in
      let s19 = Table.slew_10_90 c' ~edge:Rlc_waveform.Measure.Rising ~slew ~cap in
      check_float ~eps:1e-15 "20-80 synthesized"
        (s19 *. Float.log 4. /. Float.log 9.)
        (Table.slew_20_80 c' ~edge:Rlc_waveform.Measure.Rising ~slew ~cap);
      check_float ~eps:1e-15 "tail synthesized"
        (s19 *. Float.log 5. /. Float.log 9.)
        (Table.tail_50_90 c' ~edge:Rlc_waveform.Measure.Rising ~slew ~cap);
      (* Sanity, not accuracy: a velocity-saturated driver charges a cap
         mostly at constant current, so its true tail is shorter than the
         single-pole estimate — expect the approximation to be biased long
         but within a factor of ~2 (it only feeds the Rs fit, where a
         conservative Rs errs toward the safe single-ramp path). *)
      let true_tail = Table.tail_50_90 c ~edge:Rlc_waveform.Measure.Rising ~slew ~cap in
      let approx = s19 *. Float.log 5. /. Float.log 9. in
      Alcotest.(check bool)
        (Printf.sprintf "approximation sane: %.1f ps vs %.1f ps" (Units.in_ps approx)
           (Units.in_ps true_tail))
        true
        (approx > 0.8 *. true_tail && approx < 2.2 *. true_tail)
  | Ok _ -> Alcotest.fail "expected one cell"

let test_save_load_file () =
  let c = Lazy.force cell75 in
  let path = Filename.temp_file "rlc_lib" ".lib" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Liberty_io.save ~path ~name:"diskrt" [ c ];
      match Liberty_io.load ~path with
      | Ok [ c' ] -> Alcotest.(check string) "loaded name" c.Table.name c'.Table.name
      | Ok _ -> Alcotest.fail "wrong cell count"
      | Error e -> Alcotest.fail e)

let prop_lookup_inside_grid_is_bounded =
  QCheck.Test.make ~name:"bilinear lookups stay within table extremes inside the grid" ~count:100
    QCheck.(pair (float_range 50e-12 200e-12) (float_range 50e-15 800e-15))
    (fun (slew, cap) ->
      let c = Lazy.force cell75 in
      let t = c.Table.rise.Table.delay in
      let vmin = Array.fold_left (fun acc r -> Array.fold_left Float.min acc r) Float.infinity t.Table.values in
      let vmax =
        Array.fold_left (fun acc r -> Array.fold_left Float.max acc r) Float.neg_infinity t.Table.values
      in
      let v = Table.lut_lookup t ~slew ~cap in
      v >= vmin -. 1e-15 && v <= vmax +. 1e-15)

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "rlc_liberty"
    [
      ( "lut",
        [
          Alcotest.test_case "lookup" `Quick test_lut_lookup_grid_points;
          Alcotest.test_case "validation" `Quick test_lut_validation;
        ] );
      ( "characterize",
        [
          Alcotest.test_case "monotone in load" `Quick test_tables_monotone_in_cap;
          Alcotest.test_case "matches direct simulation" `Quick test_table_matches_direct_simulation;
          Alcotest.test_case "fitted Rs regime" `Quick test_fitted_rs_regime;
          Alcotest.test_case "ramp extrapolation" `Quick test_ramp_time_extrapolation;
          Alcotest.test_case "cache" `Quick test_cache_hit;
          Alcotest.test_case "store keyed on grid values" `Quick test_store_keys_on_grid_values;
          Alcotest.test_case "fall arc" `Quick test_fall_arc_differs;
          Alcotest.test_case "pooled tables bit-identical" `Quick
            test_pooled_tables_bit_identical;
          Alcotest.test_case "sizes outside the range are refused" `Quick test_size_range;
          Alcotest.test_case "pooled error is the first point" `Quick
            test_pooled_error_is_first_point;
          q prop_lookup_inside_grid_is_bounded;
        ] );
      ( "liberty",
        [
          Alcotest.test_case "parse basics" `Quick test_ast_parse_basic;
          Alcotest.test_case "parse errors" `Quick test_ast_parse_errors;
          Alcotest.test_case "ast roundtrip" `Quick test_ast_roundtrip;
          Alcotest.test_case "cell roundtrip" `Quick test_cell_roundtrip;
          Alcotest.test_case "standard NLDM fallback" `Quick test_standard_nldm_fallback;
          Alcotest.test_case "file save/load" `Quick test_save_load_file;
        ] );
    ]
