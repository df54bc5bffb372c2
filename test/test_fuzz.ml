(* Robustness fuzzing: the Liberty and SPEF parsers must never raise on
   arbitrary input — they either parse or return Error — the numeric
   kernels must stay finite on randomized physical inputs, and the daemon
   answers every mutated request line with exactly one response line
   without letting a rejected delta touch its resident design. *)
open Rlc_num

let printable_gen =
  QCheck.Gen.(string_size ~gen:(map Char.chr (int_range 32 126)) (int_range 0 400))

let mixed_gen =
  (* Bias the fuzz toward inputs that reach deep into the parsers. *)
  QCheck.Gen.(
    oneof
      [
        printable_gen;
        map (fun s -> "library (x) {" ^ s) printable_gen;
        map (fun s -> "*SPEF \"x\"\n*D_NET n 1.0\n" ^ s) printable_gen;
        map (fun s -> "cell (" ^ s ^ ") { }") printable_gen;
        map (fun s -> s ^ "}") printable_gen;
        map (fun s -> "*CAP\n" ^ s) printable_gen;
      ])

let prop_liberty_parser_total =
  QCheck.Test.make ~name:"Liberty parser is total (Ok or Error, never raises)" ~count:500
    (QCheck.make mixed_gen)
    (fun src ->
      match Rlc_liberty.Liberty_ast.parse src with Ok _ -> true | Error _ -> true)

let prop_spef_parser_total =
  QCheck.Test.make ~name:"SPEF parser is total" ~count:500 (QCheck.make mixed_gen)
    (fun src -> match Rlc_spef.Spef.parse_res src with Ok _ -> true | Error _ -> true)

let prop_liberty_roundtrip_fuzzed_numbers =
  (* Any finite float must survive print -> parse exactly. *)
  QCheck.Test.make ~name:"Liberty number round-trip" ~count:300
    QCheck.(float)
    (fun x ->
      QCheck.assume (Float.is_finite x);
      let g =
        {
          Rlc_liberty.Liberty_ast.gname = "library";
          gargs = [ Rlc_liberty.Liberty_ast.Ident "f" ];
          body = [ Rlc_liberty.Liberty_ast.Attribute ("v", Rlc_liberty.Liberty_ast.Num x) ];
        }
      in
      match Rlc_liberty.Liberty_ast.parse (Rlc_liberty.Liberty_ast.to_string g) with
      | Ok g' -> (
          match Rlc_liberty.Liberty_ast.find_attr g' "v" with
          | Some (Rlc_liberty.Liberty_ast.Num y) -> x = y
          | _ -> false)
      | Error _ -> false)

let prop_ceff_finite_on_random_loads =
  (* The Ceff closed forms must stay finite across the whole physical
     parameter space, including near-critically-damped loads where the pole
     pair nearly degenerates.  Note the bound: on strongly underdamped loads
     the delivered charge RINGS, so Ceff can legitimately exceed Ctot (or
     dip toward zero) at some window lengths — the model-flow iteration
     clamps to (0, Ctot], but the raw closed form must only be finite and
     physically bounded by the ringing envelope. *)
  QCheck.Test.make ~name:"Ceff finite and envelope-bounded over random RLC loads" ~count:500
    QCheck.(
      quad (float_range 1. 1000.) (float_range 1e-11 2e-8) (float_range 1e-14 5e-12)
        (pair (float_range 0.05 0.99) (float_range 5e-12 1e-9)))
    (fun (r, l, c, (f, tr)) ->
      let p =
        Rlc_moments.Pade.of_tree
          (Rlc_moments.Tree.make ~cap:0. ~children:[ (r, l, Rlc_moments.Tree.leaf c) ] ())
      in
      match Rlc_ceff.Ceff.first_ramp p ~f ~tr with
      | v -> Float.is_finite v && v > -.c && v < 3. *. c
      | exception Rlc_ceff.Ceff.Unstable_load _ -> true)

let prop_moments_finite_on_random_trees =
  let tree_gen =
    QCheck.Gen.(
      sized_size (int_range 1 12) (fun depth ->
          fix
            (fun self d ->
              if d = 0 then map (fun c -> Rlc_moments.Tree.leaf (1e-16 +. (1e-13 *. c))) (float_range 0. 1.)
              else
                frequency
                  [
                    (2, map (fun c -> Rlc_moments.Tree.leaf (1e-16 +. (1e-13 *. c))) (float_range 0. 1.));
                    ( 3,
                      map3
                        (fun r l child ->
                          Rlc_moments.Tree.make ~cap:1e-16
                            ~children:[ (1. +. (200. *. r), 1e-12 +. (5e-9 *. l), child) ]
                            ())
                        (float_range 0. 1.) (float_range 0. 1.) (self (d - 1)) );
                    ( 2,
                      map2
                        (fun a b ->
                          Rlc_moments.Tree.make ~cap:0.
                            ~children:[ (50., 1e-10, a); (80., 2e-10, b) ]
                            ())
                        (self (d / 2)) (self (d / 2)) );
                  ])
            depth))
  in
  QCheck.Test.make ~name:"moments finite on random RLC trees" ~count:300 (QCheck.make tree_gen)
    (fun t ->
      let m = Rlc_moments.Moments.driving_point ~order:5 t in
      Array.for_all Float.is_finite m
      && Float.abs (m.(1) -. Rlc_moments.Tree.total_cap t) <= 1e-9 *. m.(1))

let prop_aberth_total_on_random_coeffs =
  QCheck.Test.make ~name:"Aberth handles random coefficient polynomials" ~count:200
    QCheck.(list_of_size (Gen.int_range 3 9) (float_range (-10.) 10.))
    (fun coeffs ->
      let arr = Array.of_list coeffs in
      QCheck.assume (Float.abs arr.(Array.length arr - 1) > 1e-3);
      let p = Poly.of_coeffs arr in
      QCheck.assume (Poly.degree p >= 1);
      let roots = Polyroots.roots p in
      List.length roots = Poly.degree p
      && List.for_all (fun (z : Cx.t) -> Cx.is_finite z) roots)

(* ------------------------------------------------------------- server *)

module Json = Rlc_service.Json
module Server = Rlc_service.Server
module Session = Rlc_service.Session

(* dune runtest runs from _build/default/test/ (examples one up, staged by
   the (deps ...) in test/dune); dune exec from the project root. *)
let fixture name =
  if Sys.file_exists (Filename.concat "examples" name) then Filename.concat "examples" name
  else Filename.concat "../examples" name

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let bus8_spef = lazy (read_file (fixture "bus8.spef"))

(* The index of the first [sub] in [s] at or after [from]. *)
let rec find s sub from =
  if from + String.length sub > String.length s then raise Not_found
  else if String.sub s from (String.length sub) = sub then from
  else find s sub (from + 1)

let replace_all ~sub ~by s =
  let b = Buffer.create (String.length s) in
  let rec go from =
    match find s sub from with
    | i ->
        Buffer.add_string b (String.sub s from (i - from));
        Buffer.add_string b by;
        go (i + String.length sub)
    | exception Not_found -> Buffer.add_string b (String.sub s from (String.length s - from))
  in
  go 0;
  Buffer.contents b

(* The [*D_NET name ... *END] block of bus8.spef, with its newline. *)
let bus8_block name =
  let s = Lazy.force bus8_spef in
  let start = find s ("*D_NET " ^ name ^ " ") 0 in
  String.sub s start (find s "*END" start + 5 - start)

let v2 fields = Json.to_string (Json.Obj (("schema", Json.Str "rlc-service/2") :: fields))

(* A rejected delta must leave the handle as it was: a no-op edit (b0's
   slew set to its loaded value; the fuzz never edits b0's slew) then
   answers the report before the rejected one. *)
let probe =
  v2
    [
      ("kind", Json.Str "flow_delta");
      ("handle", Json.Str "d1");
      ("slews_ps", Json.Obj [ ("b0", Json.Int 100) ]);
    ]

(* Request lines around design_load and flow_delta: truncated, renamed or
   node-renamed [*D_NET] blocks, unknown nets, negative, zero, huge,
   infinite (1e999) and non-numeric (NaN, strings, null) sizes and slews,
   unknown handles, and bad JSON (truncated lines, garbage, random text). *)
let gen_request =
  let open QCheck.Gen in
  let block =
    oneofl [ "b1"; "b2"; "o3" ] >>= fun net ->
    let b = bus8_block net in
    oneof
      [
        return (net, b);
        map (fun k -> (net, String.sub b 0 (k mod String.length b))) nat;
        map (fun other -> (net, replace_all ~sub:("*D_NET " ^ net) ~by:("*D_NET " ^ other) b))
          (oneofl [ "b9"; "o7"; "zz"; "" ]);
        return (net, replace_all ~sub:(net ^ "_") ~by:"q_" b);
        map (fun v -> (net, replace_all ~sub:" 150\n" ~by:(" " ^ v ^ "\n") b))
          (oneofl [ "151"; "0"; "-3"; "1e999"; "nan" ]);
        map (fun other -> (other, b)) (oneofl [ "zz"; "o7"; "b2" ]);
      ]
  in
  let token =
    oneofl [ "-1"; "0"; "-0.0"; "1e999"; "1e300"; "NaN"; "50"; "100"; "\"75\""; "null"; "[]" ]
  in
  let edit_map key nets =
    map2 (fun net tok -> Printf.sprintf {|"%s":{"%s":%s}|} key net tok) (oneofl nets) token
  in
  let delta_raw body =
    Printf.sprintf {|{"schema":"rlc-service/2","kind":"flow_delta","handle":"d1",%s}|} body
  in
  let valid =
    frequency
      [
        ( 4,
          map
            (fun (net, b) ->
              v2
                [
                  ("kind", Json.Str "flow_delta");
                  ("handle", Json.Str "d1");
                  ("nets", Json.Obj [ (net, Json.Str b) ]);
                ])
            block );
        (3, map delta_raw (edit_map "drivers" [ "o1"; "b2"; "zz" ]));
        (3, map delta_raw (edit_map "slews_ps" [ "b1"; "b3"; "o1"; "zz" ]));
        ( 1,
          map
            (fun (_, b) ->
              v2
                [
                  ("kind", Json.Str "design_load");
                  ( "spef",
                    Json.Str (replace_all ~sub:(bus8_block "b1") ~by:b (Lazy.force bus8_spef)) );
                  ("spec_file", Json.Str (fixture "bus8.spec"));
                ])
            block );
        ( 1,
          return (delta_raw {|"drivers":{"o1":50}|} |> replace_all ~sub:{|"d1"|} ~by:{|"d99"|}) );
      ]
  in
  frequency
    [
      (6, valid);
      (1, map2 (fun line k -> String.sub line 0 (k mod (String.length line + 1))) valid nat);
      (1, map2 (fun line junk -> line ^ junk) valid printable_gen);
      (1, printable_gen);
    ]

let prop_server_total =
  let server =
    lazy
      (let config = { Session.Config.default with Session.Config.design_capacity = 1024 } in
       let server = Server.create (Session.create ~config ()) in
       let load =
         v2
           [
             ("kind", Json.Str "design_load");
             ("spef_file", Json.Str (fixture "bus8.spef"));
             ("spec_file", Json.Str (fixture "bus8.spec"));
           ]
       in
       let resp, _ = Server.handle_line server load in
       let report = Json.member "report" (Result.get_ok (Json.parse resp)) in
       (server, ref (Option.get (Option.bind report Json.get_string))))
  in
  QCheck.Test.make ~name:"Server.handle_line answers every line once and never raises" ~count:300
    (QCheck.make ~print:Fun.id gen_request)
    (fun line ->
      let server, last = Lazy.force server in
      let answer line =
        let resp, _ = Server.handle_line server line in
        if String.contains resp '\n' then QCheck.Test.fail_reportf "two lines: %S" resp;
        match Json.parse resp with
        | Error (pos, msg) ->
            QCheck.Test.fail_reportf "unparseable response (%d: %s): %S" pos msg resp
        | Ok j -> (
            match Option.bind (Json.member "ok" j) Json.get_bool with
            | None -> QCheck.Test.fail_reportf "no ok flag: %S" resp
            | Some ok -> (ok, Option.bind (Json.member "report" j) Json.get_string))
      in
      let on_d1 =
        match Json.parse line with
        | Ok j ->
            Option.bind (Json.member "kind" j) Json.get_string = Some "flow_delta"
            && Option.bind (Json.member "handle" j) Json.get_string = Some "d1"
        | Error _ -> false
      in
      (match answer line with
      | true, Some report when on_d1 -> last := report
      | false, _ when on_d1 -> (
          match answer probe with
          | true, Some report when String.equal report !last -> ()
          | true, _ -> QCheck.Test.fail_reportf "the rejected delta changed the handle's report"
          | false, _ -> QCheck.Test.fail_reportf "the no-op delta after a rejected one failed")
      | _ -> ());
      true)

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "rlc_fuzz"
    [
      ( "parsers",
        [
          q prop_liberty_parser_total;
          q prop_spef_parser_total;
          q prop_liberty_roundtrip_fuzzed_numbers;
        ] );
      ( "numerics",
        [
          q prop_ceff_finite_on_random_loads;
          q prop_moments_finite_on_random_trees;
          q prop_aberth_total_on_random_coeffs;
        ] );
      ("server", [ q prop_server_total ]);
    ]
