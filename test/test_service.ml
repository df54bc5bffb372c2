(* Rlc_service tests: the JSON codec, the wire protocol, the session API,
   per-request isolation/timeout in the server, cross-request cache warmth,
   and byte-identity of served flow reports with the one-shot CLI path. *)

module Json = Rlc_service.Json
module Protocol = Rlc_service.Protocol
module Session = Rlc_service.Session
module Server = Rlc_service.Server
module Error = Rlc_service.Error
module Memo = Rlc_obs.Memo

let ok_or_fail = function
  | Ok v -> v
  | Error e -> Alcotest.fail (Error.to_string e)

let json_of s =
  match Json.parse s with
  | Ok j -> j
  | Error (pos, msg) -> Alcotest.fail (Printf.sprintf "json error at %d: %s" pos msg)

let member name j =
  match Json.member name j with
  | Some v -> v
  | None -> Alcotest.fail (Printf.sprintf "missing field %S in %s" name (Json.to_string j))

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* dune runtest runs from _build/default/test/ (examples one up, staged by
   the (deps ...) in test/dune); dune exec from the project root. *)
let fixture name =
  if Sys.file_exists (Filename.concat "examples" name) then Filename.concat "examples" name
  else Filename.concat "../examples" name

let bus8_spef = fixture "bus8.spef"
let bus8_spec = fixture "bus8.spec"

(* ---------------------------------------------------------------- json *)

let test_json_roundtrip () =
  let cases =
    [
      "null";
      "true";
      "false";
      "42";
      "-7";
      "3.25";
      "1e+20";
      "\"hi\"";
      "[]";
      "[1,2,3]";
      "{}";
      {|{"a":1,"b":[true,null],"c":{"d":"x"}}|};
    ]
  in
  List.iter
    (fun src ->
      let j = json_of src in
      Alcotest.(check string) ("roundtrip " ^ src) src (Json.to_string j))
    cases

let test_json_escapes () =
  let j = json_of {|"a\"b\\c\nd\te\u0041\u00e9"|} in
  Alcotest.(check string) "decoded" "a\"b\\c\nd\teA\xc3\xa9" (Option.get (Json.get_string j));
  (* Printing re-escapes what must be escaped and survives a reparse. *)
  let printed = Json.to_string j in
  Alcotest.(check string) "reparse" (Option.get (Json.get_string j))
    (Option.get (Json.get_string (json_of printed)));
  (* Surrogate pair -> one astral code point (UTF-8, 4 bytes). *)
  let astral = json_of {|"\ud83d\ude00"|} in
  Alcotest.(check string) "astral" "\xf0\x9f\x98\x80" (Option.get (Json.get_string astral))

(* Strings built from the pieces a decoder can get wrong: quotes,
   backslashes, slashes, every control character, DEL, multi-byte UTF-8
   (two, three and four bytes) and plain ASCII runs, as object keys and
   values: printing and parsing gives back the same object. *)
let prop_json_strings =
  let piece =
    QCheck.Gen.(
      oneof
        [
          oneofl [ "\""; "\\"; "/"; "\\u"; "\x7f"; "\xc3\xa9"; "\xe4\xb8\xad"; "\xf0\x9f\x98\x80" ];
          map (fun c -> String.make 1 (Char.chr c)) (int_range 0 0x1f);
          string_size ~gen:printable (int_range 0 12);
        ])
  in
  let str = QCheck.Gen.(map (String.concat "") (list_size (int_range 0 8) piece)) in
  QCheck.Test.make ~name:"string decoding round-trips" ~count:500
    (QCheck.make ~print:(fun (k, v) -> Printf.sprintf "%S: %S" k v) (QCheck.Gen.pair str str))
    (fun (k, v) ->
      let j = Json.Obj [ (k, Json.Str v) ] in
      Json.parse (Json.to_string j) = Ok j)

let test_json_errors () =
  let bad src =
    match Json.parse src with
    | Ok _ -> Alcotest.fail ("accepted: " ^ src)
    | Error (pos, msg) ->
        Alcotest.(check bool) ("position sane: " ^ src) true
          (pos >= 0 && pos <= String.length src);
        Alcotest.(check bool) ("message non-empty: " ^ src) true (String.length msg > 0)
  in
  List.iter bad
    [
      "";
      "{";
      "[1,";
      "nul";
      "1.";
      "-";
      "\"abc";
      "{\"a\" 1}";
      "[1] trailing";
      "01x";
      "\"\\q\"";
      "\"a\nb\"";
      "\"a\\nb\x01\"";
    ]

let test_json_floats () =
  (* Shortest round-tripping representation, and no NaN/inf in the output. *)
  List.iter
    (fun f ->
      let s = Json.to_string (Json.Float f) in
      Alcotest.(check (float 0.)) ("roundtrip " ^ s) f
        (Option.get (Json.get_float (json_of s))))
    [ 0.1; 1. /. 3.; 1e-300; 6.02e23; -2.5 ];
  Alcotest.(check string) "nan -> null" "null" (Json.to_string (Json.Float Float.nan));
  Alcotest.(check string) "inf -> null" "null" (Json.to_string (Json.Float Float.infinity));
  Alcotest.(check string) "integral floats stay short" "2" (Json.to_string (Json.Float 2.));
  (* Ints parse as Int but read as float too. *)
  Alcotest.(check (float 0.)) "int as float" 5. (Option.get (Json.get_float (json_of "5")))

(* ------------------------------------------------------------ protocol *)

let parse_req line = snd (Protocol.parse_request line)

let test_protocol_kinds () =
  (* Every kind parses; ids and timeouts are carried through. *)
  (match
     Protocol.parse_request {|{"schema":"rlc-service/1","kind":"ping","id":7,"timeout_ms":500}|}
   with
  | ( { Protocol.id = Some (Json.Int 7); schema },
      Ok { Protocol.timeout_ms = Some 500; kind = Protocol.Ping } ) ->
      Alcotest.(check string) "schema recorded" Protocol.schema schema
  | _, Ok _ -> Alcotest.fail "ping fields"
  | _, Error e -> Alcotest.fail (Error.to_string e));
  (match Protocol.parse_request {|{"schema":"rlc-service/1","kind":"stats"}|} with
  | { Protocol.id = None; _ }, Ok { Protocol.kind = Protocol.Stats; timeout_ms = None } -> ()
  | _ -> Alcotest.fail "stats");
  (match parse_req {|{"schema":"rlc-service/1","kind":"shutdown"}|} with
  | Ok { Protocol.kind = Protocol.Shutdown; _ } -> ()
  | _ -> Alcotest.fail "shutdown");
  (match
     parse_req
       {|{"schema":"rlc-service/1","kind":"flow","spef":"x","spec_file":"a.spec","size":60,"slew_ps":80,"required_ps":500,"use_cache":false,"dt_ps":0.25}|}
   with
  | Ok { Protocol.kind = Protocol.Flow f; _ } ->
      Alcotest.(check bool) "inline spef" true (f.Protocol.f_spef = Protocol.Inline "x");
      Alcotest.(check bool) "spec file" true (f.Protocol.f_spec = Some (Protocol.File "a.spec"));
      Alcotest.(check (option (float 0.))) "size" (Some 60.) f.Protocol.f_size;
      Alcotest.(check (option (float 0.))) "slew" (Some 80.) f.Protocol.f_slew_ps;
      Alcotest.(check (option (float 0.))) "required" (Some 500.) f.Protocol.f_required_ps;
      Alcotest.(check (option bool)) "use_cache" (Some false) f.Protocol.f_use_cache;
      Alcotest.(check (option (float 0.))) "dt" (Some 0.25) f.Protocol.f_dt_ps
  | _ -> Alcotest.fail "flow");
  match
    parse_req
      {|{"schema":"rlc-service/1","kind":"sweep_case","length_mm":5,"width_um":1.2,"size":75,"cl_ff":20}|}
  with
  | Ok { Protocol.kind = Protocol.Sweep_case c; _ } ->
      Alcotest.(check (float 0.)) "length" 5. c.Protocol.c_length_mm;
      Alcotest.(check (float 0.)) "width" 1.2 c.Protocol.c_width_um;
      Alcotest.(check (float 0.)) "size" 75. c.Protocol.c_size;
      Alcotest.(check (option (float 0.))) "cl" (Some 20.) c.Protocol.c_cl_ff;
      Alcotest.(check (option (float 0.))) "slew default" None c.Protocol.c_slew_ps
  | _ -> Alcotest.fail "sweep_case"

let test_protocol_v2_kinds () =
  (* v1 kinds parse under the v2 tag, and the tag is recorded. *)
  (match Protocol.parse_request {|{"schema":"rlc-service/2","kind":"ping"}|} with
  | { Protocol.schema; _ }, Ok { Protocol.kind = Protocol.Ping; _ } ->
      Alcotest.(check string) "v2 tag recorded" Protocol.schema_v2 schema
  | _ -> Alcotest.fail "v2 ping");
  (match
     parse_req
       {|{"schema":"rlc-service/2","kind":"design_load","spef":"x","spec_file":"a.spec","required_ps":500}|}
   with
  | Ok { Protocol.kind = Protocol.Design_load (f, xtalk); _ } ->
      Alcotest.(check bool) "inline spef" true (f.Protocol.f_spef = Protocol.Inline "x");
      Alcotest.(check bool) "spec file" true (f.Protocol.f_spec = Some (Protocol.File "a.spec"));
      Alcotest.(check (option (float 0.))) "required" (Some 500.) f.Protocol.f_required_ps;
      Alcotest.(check bool) "no xtalk by default" true (xtalk = None)
  | _ -> Alcotest.fail "design_load");
  (match
     parse_req
       {|{"schema":"rlc-service/2","kind":"flow_delta","handle":"d1","nets":{"b0":"*D_NET b0 1\n*END"},"drivers":{"o0":60},"slews_ps":{"b0":120}}|}
   with
  | Ok { Protocol.kind = Protocol.Flow_delta d; _ } ->
      Alcotest.(check string) "handle" "d1" d.Protocol.d_handle;
      Alcotest.(check bool) "net edit" true
        (d.Protocol.d_nets = [ ("b0", "*D_NET b0 1\n*END") ]);
      Alcotest.(check bool) "driver edit" true (d.Protocol.d_drivers = [ ("o0", 60.) ]);
      Alcotest.(check bool) "slew edit in ps" true (d.Protocol.d_slews_ps = [ ("b0", 120.) ])
  | _ -> Alcotest.fail "flow_delta");
  match parse_req {|{"schema":"rlc-service/2","kind":"design_unload","handle":"d1"}|} with
  | Ok { Protocol.kind = Protocol.Design_unload "d1"; _ } -> ()
  | _ -> Alcotest.fail "design_unload"

let check_code expected = function
  | Ok _ -> Alcotest.fail (expected ^ ": accepted")
  | Error e -> Alcotest.(check string) expected expected (Error.code e)

let test_protocol_rejections () =
  check_code "parse_error" (parse_req "not json at all");
  check_code "unsupported_version" (parse_req {|{"schema":"rlc-service/9","kind":"ping"}|});
  check_code "unsupported_version" (parse_req {|{"kind":"ping"}|});
  check_code "bad_request" (parse_req {|{"schema":"rlc-service/1","kind":"warp"}|});
  check_code "bad_request" (parse_req {|{"schema":"rlc-service/1"}|});
  check_code "bad_request" (parse_req {|{"schema":"rlc-service/1","kind":"flow"}|});
  check_code "bad_request"
    (parse_req {|{"schema":"rlc-service/1","kind":"flow","spef":"a","spef_file":"b"}|});
  check_code "bad_request"
    (parse_req {|{"schema":"rlc-service/1","kind":"sweep_case","length_mm":5,"width_um":1}|});
  check_code "bad_request"
    (parse_req
       {|{"schema":"rlc-service/1","kind":"sweep_case","length_mm":-5,"width_um":1,"size":75}|});
  check_code "bad_request"
    (parse_req {|{"schema":"rlc-service/1","kind":"ping","timeout_ms":-4}|});
  check_code "bad_request" (parse_req "[1,2,3]");
  (* v2 statefulness: new kinds are gated on the v2 tag, deltas must name
     a handle and carry at least one edit, and edit values are checked. *)
  check_code "bad_request" (parse_req {|{"schema":"rlc-service/1","kind":"design_load","spef":"x"}|});
  check_code "bad_request" (parse_req {|{"schema":"rlc-service/1","kind":"flow_delta","handle":"d0"}|});
  check_code "bad_request" (parse_req {|{"schema":"rlc-service/1","kind":"design_unload","handle":"d0"}|});
  check_code "bad_request" (parse_req {|{"schema":"rlc-service/2","kind":"design_load"}|});
  check_code "bad_request"
    (parse_req {|{"schema":"rlc-service/2","kind":"flow_delta","nets":{"b0":"x"}}|});
  check_code "bad_request" (parse_req {|{"schema":"rlc-service/2","kind":"flow_delta","handle":"d0"}|});
  check_code "bad_request"
    (parse_req {|{"schema":"rlc-service/2","kind":"flow_delta","handle":"d0","drivers":{"o0":-3}}|});
  check_code "bad_request"
    (parse_req {|{"schema":"rlc-service/2","kind":"flow_delta","handle":"d0","nets":["b0"]}|});
  check_code "bad_request" (parse_req {|{"schema":"rlc-service/2","kind":"design_unload"}|});
  (* Size limit. *)
  check_code "bad_request"
    (snd (Protocol.parse_request ~max_bytes:16 {|{"schema":"rlc-service/1","kind":"ping"}|}))

(* A time step must be finite: 1e400 parses as infinity, and the engine
   would take its one step at t = infinity.  Every kind that takes [dt_ps]
   refuses it up front, naming the field. *)
let test_protocol_dt_finite () =
  List.iter
    (fun (kind, schema, extra) ->
      List.iter
        (fun dt ->
          let line =
            Printf.sprintf {|{"schema":"%s","kind":"%s",%s"dt_ps":%s}|} schema kind extra dt
          in
          match parse_req line with
          | Ok _ -> Alcotest.failf "%s dt_ps %s accepted" kind dt
          | Error e ->
              Alcotest.(check string) (kind ^ " " ^ dt ^ " code") "bad_request" (Error.code e);
              Alcotest.(check string) (kind ^ " " ^ dt ^ " message")
                {|field "dt_ps" must be a finite positive number|} (Error.message e))
        [ "1e400"; "-1e400"; "0" ])
    [
      ("flow", Protocol.schema, {|"spef":"x",|});
      ("xtalk", Protocol.schema, {|"spef":"x",|});
      ("design_load", Protocol.schema_v2, {|"spef":"x",|});
      ("sweep_case", Protocol.schema, {|"length_mm":5,"width_um":1.2,"size":75,|});
    ]

(* Case geometry beyond what the library accepts is refused at the
   protocol, naming the field, instead of failing deep in the library
   under an internal function's name. *)
let test_protocol_case_finite () =
  List.iter
    (fun (kind, extra, message) ->
      let line =
        Printf.sprintf {|{"schema":"%s","kind":"%s",%s}|} Protocol.schema kind extra
      in
      match parse_req line with
      | Ok _ -> Alcotest.failf "%s %s accepted" kind extra
      | Error e ->
          Alcotest.(check string) (extra ^ " code") "bad_request" (Error.code e);
          Alcotest.(check string) (extra ^ " message") message (Error.message e))
    [
      ( "sweep_case",
        {|"length_mm":1e400,"width_um":1.2,"size":75|},
        {|field "length_mm" must be a finite positive number|} );
      ( "screen",
        {|"length_mm":5,"width_um":1e400,"size":75|},
        {|field "width_um" must be a finite positive number|} );
      ( "sweep_case",
        {|"length_mm":5,"width_um":1.2,"size":75,"slew_ps":1e400|},
        {|field "slew_ps" must be a finite positive number|} );
      ( "screen",
        {|"length_mm":5,"width_um":1.2,"size":75,"cl_ff":1e400|},
        {|field "cl_ff" must be a finite number >= 0|} );
      ( "screen",
        {|"length_mm":5,"width_um":1.2,"size":75,"cl_ff":-5|},
        {|field "cl_ff" must be a finite number >= 0|} );
    ]

(* Driver sizes and slews must be finite: an infinite size would fail
   every characterization point, and an infinite slew would be clamped to
   the table's edge without a word.  Every field that takes one refuses
   it up front, naming the field (and the net, in an edit map). *)
let test_protocol_sizes_finite () =
  List.iter
    (fun (line, message) ->
      match parse_req line with
      | Ok _ -> Alcotest.failf "%s accepted" line
      | Error e ->
          Alcotest.(check string) (line ^ " code") "bad_request" (Error.code e);
          Alcotest.(check string) (line ^ " message") message (Error.message e))
    (List.concat_map
       (fun v ->
         [
           ( Printf.sprintf {|{"schema":"rlc-service/1","kind":"flow","spef":"x","size":%s}|} v,
             {|field "size" must be a finite positive number|} );
           ( Printf.sprintf {|{"schema":"rlc-service/1","kind":"flow","spef":"x","slew_ps":%s}|} v,
             {|field "slew_ps" must be a finite positive number|} );
           ( Printf.sprintf
               {|{"schema":"rlc-service/2","kind":"design_load","spef":"x","size":%s}|} v,
             {|field "size" must be a finite positive number|} );
           ( Printf.sprintf
               {|{"schema":"rlc-service/1","kind":"screen","length_mm":5,"width_um":1.2,"size":%s}|}
               v,
             {|field "size" must be a finite positive number|} );
           ( Printf.sprintf
               {|{"schema":"rlc-service/1","kind":"sweep_case","length_mm":5,"width_um":1.2,"size":%s}|}
               v,
             {|field "size" must be a finite positive number|} );
           ( Printf.sprintf
               {|{"schema":"rlc-service/2","kind":"flow_delta","handle":"d0","drivers":{"b0":%s}}|}
               v,
             {|field "drivers": entry "b0" must be a finite positive number|} );
           ( Printf.sprintf
               {|{"schema":"rlc-service/2","kind":"flow_delta","handle":"d0","slews_ps":{"b0":%s}}|}
               v,
             {|field "slews_ps": entry "b0" must be a finite positive number|} );
         ])
       [ "1e999"; "-1e999"; "0"; "-2" ])

let test_protocol_responses () =
  let ok =
    Protocol.ok_response
      { Protocol.schema = Protocol.schema; id = Some (Json.Int 3) }
      [ ("pong", Json.Bool true) ]
  in
  let j = json_of ok in
  Alcotest.(check string) "schema" Protocol.schema (Option.get (Json.get_string (member "schema" j)));
  Alcotest.(check (option int)) "id echoed" (Some 3) (Json.get_int (member "id" j));
  Alcotest.(check (option bool)) "ok" (Some true) (Json.get_bool (member "ok" j));
  Alcotest.(check bool) "one line" false (String.contains ok '\n');
  let err = Protocol.error_response Protocol.no_envelope (Error.Timeout 1.5) in
  let j = json_of err in
  Alcotest.(check (option bool)) "not ok" (Some false) (Json.get_bool (member "ok" j));
  let e = member "error" j in
  Alcotest.(check (option string)) "code" (Some "timeout") (Json.get_string (member "code" e));
  Alcotest.(check bool) "message mentions budget" true
    (Option.get (Json.get_string (member "message" e)) <> "");
  (* Responses carry whichever schema tag the builder is given. *)
  let v2 =
    Protocol.ok_response
      { Protocol.schema = Protocol.schema_v2; id = None }
      [ ("pong", Json.Bool true) ]
  in
  Alcotest.(check (option string)) "v2 tag echoed" (Some Protocol.schema_v2)
    (Json.get_string (member "schema" (json_of v2)))

(* A success line is its envelope's prefix and its fields' body, so a body
   encoded once answers any envelope: random envelopes (either tag; no
   id, or an id of any JSON shape) and random field lists, strings
   escaped or spliced as [Escaped] pieces. *)
let arb_ok_split =
  let open QCheck.Gen in
  let text = string_size ~gen:(oneofl [ 'a'; '"'; '\\'; '\n'; '\001'; 'z'; ' ' ]) (int_bound 6) in
  let json =
    sized_size (int_bound 3)
    @@ fix (fun self n ->
           let leaf =
             oneof
               [
                 return Json.Null;
                 map (fun b -> Json.Bool b) bool;
                 map (fun i -> Json.Int i) small_signed_int;
                 map (fun f -> Json.Float f) (oneofl [ 0.; -0.; 1.5; -2e-12; 1e300 ]);
                 map (fun s -> Json.Str s) text;
                 map (fun s -> Json.Escaped [ Json.escape s; "" ]) text;
               ]
           in
           if n = 0 then leaf
           else
             frequency
               [
                 (3, leaf);
                 (1, map (fun l -> Json.List l) (list_size (int_bound 3) (self (n - 1))));
                 ( 1,
                   map (fun l -> Json.Obj l) (list_size (int_bound 3) (pair text (self (n - 1)))) );
               ])
  in
  let envelope =
    map2
      (fun schema id -> { Protocol.schema; id })
      (oneofl [ Protocol.schema; Protocol.schema_v2 ])
      (option json)
  in
  QCheck.make
    ~print:(fun (e, fields) ->
      Printf.sprintf "envelope %s, fields %s"
        (Protocol.ok_response e [])
        (Json.to_string (Json.Obj fields)))
    (pair envelope (list_size (int_bound 4) (pair text json)))

let prop_ok_split =
  QCheck.Test.make ~name:"ok_prefix e ^ ok_body f = ok_response e f" ~count:500 arb_ok_split
    (fun (e, fields) ->
      String.equal (Protocol.ok_prefix e ^ Protocol.ok_body fields) (Protocol.ok_response e fields))

(* ------------------------------------------------------- typed errors *)

let test_parse_res_positions () =
  (match Rlc_spef.Spef.parse_res ~file:"bad.spef" "*D_NET n\n" with
  | Ok _ -> Alcotest.fail "accepted bad spef"
  | Error (Error.Parse { file; line; msg } as e) ->
      Alcotest.(check (option string)) "file" (Some "bad.spef") file;
      Alcotest.(check bool) "line known" true (line <> None);
      Alcotest.(check bool) "msg" true (String.length msg > 0);
      (* file:line: message rendering — what the CLI prints at exit 2. *)
      let rendered = Error.message e in
      Alcotest.(check bool) "file:line prefix" true
        (String.length rendered > 9 && String.sub rendered 0 9 = "bad.spef:")
  | Error e -> Alcotest.fail ("wrong error: " ^ Error.to_string e));
  match Rlc_flow.Spec.parse_res ~file:"x.spec" "driver a 75\ndriver a 50\n" with
  | Error (Error.Parse { file = Some "x.spec"; line = Some 2; _ }) -> ()
  | Error e -> Alcotest.fail ("wrong error: " ^ Error.to_string e)
  | Ok _ -> Alcotest.fail "accepted duplicate driver"

let test_deadline () =
  let module D = Rlc_errors.Deadline in
  (* Non-positive and infinite budgets disable the deadline. *)
  Alcotest.(check bool) "zero budget never expires" true (D.is_never (D.start 0.));
  Alcotest.(check bool) "negative budget never expires" true (D.is_never (D.start (-1.)));
  Alcotest.(check bool) "infinite budget never expires" true (D.is_never (D.start Float.infinity));
  Alcotest.(check bool) "never is not expired" false (D.expired D.never);
  D.check D.never;
  let d = D.start 0.001 in
  Alcotest.(check bool) "remaining bounded by budget" true (D.remaining_s d <= 0.001);
  Unix.sleepf 0.005;
  Alcotest.(check bool) "expired after its budget" true (D.expired d);
  Alcotest.(check (float 0.)) "nothing remaining" 0. (D.remaining_s d);
  (match D.check d with
  | () -> Alcotest.fail "check on an expired deadline did not raise"
  | exception D.Expired b -> Alcotest.(check (float 0.)) "Expired carries the budget" 0.001 b);
  (* Ambient installation is scoped: inside [with_ambient] the expired
     deadline trips the check, and the previous ambient comes back after. *)
  (match D.with_ambient d D.check_ambient with
  | () -> Alcotest.fail "ambient check did not raise"
  | exception D.Expired _ -> ());
  D.check_ambient ();
  Alcotest.(check bool) "ambient restored to never" true (D.is_never (D.ambient ()))

(* ------------------------------------------------------------- session *)

let with_default_session f = Session.with_session f

let test_session_flow_and_cache () =
  with_default_session (fun session ->
      let design =
        ok_or_fail
          (Session.ingest session ~spef:(read_file bus8_spef) ~spef_name:bus8_spef
             ~spec:(read_file bus8_spec) ~spec_name:bus8_spec ())
      in
      let first = ok_or_fail (Session.flow session Session.Request.default design) in
      let second = ok_or_fail (Session.flow session Session.Request.default design) in
      let stats r = r.Session.result.Rlc_flow.Flow.stats in
      Alcotest.(check bool) "cold run misses" true
        ((stats first).Rlc_flow.Flow.cache_misses > 0);
      (* The session cache persists across requests: a repeated design is
         answered without a single new Ceff solve. *)
      Alcotest.(check int) "warm run misses" 0 (stats second).Rlc_flow.Flow.cache_misses;
      Alcotest.(check int) "warm spends no iterations" 0
        (stats second).Rlc_flow.Flow.iterations_spent;
      Alcotest.(check string) "identical reports" first.Session.report second.Session.report;
      let s = Session.stats session in
      Alcotest.(check bool) "cache populated" true (s.Session.cache.Memo.entries > 0))

let test_session_ingest_errors () =
  with_default_session (fun session ->
      (match Session.ingest session ~spef:"*D_NET broken\n" ~spef_name:"b.spef" () with
      | Error (Error.Parse { file = Some "b.spef"; _ }) -> ()
      | Error e -> Alcotest.fail ("wrong error: " ^ Error.to_string e)
      | Ok _ -> Alcotest.fail "accepted broken spef");
      match
        Session.ingest session ~spef:(read_file bus8_spef) ~spec:"driver nope 75\ninput nope 100\n" ()
      with
      | Error (Error.Bad_request _) -> ()
      | Error e -> Alcotest.fail ("wrong error: " ^ Error.to_string e)
      | Ok _ -> Alcotest.fail "accepted unknown net")

let test_session_case_ops () =
  with_default_session (fun session ->
      let case =
        ok_or_fail (Session.case session ~length_mm:5. ~width_um:1.0 ~size:75. ())
      in
      let model = ok_or_fail (Session.screen session case) in
      Alcotest.(check bool) "5mm/75X is inductive" true
        model.Rlc_ceff.Driver_model.screen.Rlc_ceff.Screen.significant;
      (* Errors from the numeric layers surface as typed results. *)
      match Session.case session ~length_mm:5. ~width_um:1.0 ~size:(-3.) () with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "accepted negative size")

(* A session characterizes on its own pool: a jobs-1 session's grid-point
   batches run on its one domain, never on the process's resident pool
   beside it.  62.5X is a size no other test here characterizes. *)
let test_session_characterizes_on_own_pool () =
  let obs = Rlc_obs.Obs.create () in
  let config = { Session.Config.default with Session.Config.jobs = 1; obs } in
  Session.with_session ~config (fun session -> ok_or_fail (Session.warm session [ 62.5 ]));
  let batches =
    List.filter
      (fun (sp : Rlc_obs.Obs.span) ->
        sp.Rlc_obs.Obs.sp_name = "pool.batch"
        && List.assoc_opt "n" sp.Rlc_obs.Obs.sp_args = Some "112")
      (Rlc_obs.Obs.snapshot obs).Rlc_obs.Obs.m_spans
  in
  Alcotest.(check int) "one 112-point batch" 1 (List.length batches);
  List.iter
    (fun (sp : Rlc_obs.Obs.span) ->
      Alcotest.(check (option string)) "on the session's one domain" (Some "1")
        (List.assoc_opt "jobs" sp.Rlc_obs.Obs.sp_args))
    batches

let test_session_design_store () =
  (* The bounded LRU design store: handles live across requests, deltas
     touch only the edited cone, and loading beyond capacity evicts the
     least-recently-used handle. *)
  let config = { Session.Config.default with Session.Config.design_capacity = 2 } in
  Session.with_session ~config (fun session ->
      let load () =
        ok_or_fail
          (Session.design_load session ~req:Session.Request.default
             ~spef:(read_file bus8_spef) ~spec:(read_file bus8_spec) ())
      in
      let h1, out1 = load () in
      let oneshot =
        let design =
          ok_or_fail
            (Session.ingest session ~spef:(read_file bus8_spef) ~spec:(read_file bus8_spec) ())
        in
        (ok_or_fail (Session.flow session Session.Request.default design)).Session.report
      in
      Alcotest.(check string) "cold load report = one-shot report" oneshot out1.Session.report;
      let delta =
        { Rlc_flow.Delta.empty with Rlc_flow.Delta.slews = [ ("b0", 120e-12) ] }
      in
      let _, st = ok_or_fail (Session.flow_delta session ~handle:h1 delta) in
      Alcotest.(check int) "only b0's cone retimed" 2 st.Rlc_flow.Flow.retimed;
      Alcotest.(check int) "retimed + reused = nets" 8
        (st.Rlc_flow.Flow.retimed + st.Rlc_flow.Flow.reused);
      let s = Session.design_stats session in
      Alcotest.(check int) "one handle resident" 1 s.Session.ds_store.Memo.entries;
      Alcotest.(check int) "capacity surfaced" 2 s.Session.ds_store.Memo.capacity;
      Alcotest.(check int) "nets held" 8 s.Session.ds_nets;
      (* Fill the store, then overflow it: h1 is the LRU victim. *)
      let _h2, _ = load () in
      let h3, _ = load () in
      let s = Session.design_stats session in
      Alcotest.(check int) "capacity bounds residency" 2 s.Session.ds_store.Memo.entries;
      Alcotest.(check int) "one eviction" 1 s.Session.ds_store.Memo.evictions;
      (match Session.flow_delta session ~handle:h1 delta with
      | Error (Error.Bad_request _) -> ()
      | Error e -> Alcotest.fail ("wrong error: " ^ Error.to_string e)
      | Ok _ -> Alcotest.fail "evicted handle accepted");
      ok_or_fail (Session.design_unload session h3);
      Alcotest.(check int) "unload drops the handle" 1
        (Session.design_stats session).Session.ds_store.Memo.entries;
      match Session.design_unload session h3 with
      | Error (Error.Bad_request _) -> ()
      | Error e -> Alcotest.fail ("wrong error: " ^ Error.to_string e)
      | Ok _ -> Alcotest.fail "double unload accepted")

(* Deltas look the shared Ceff cache up but never insert: any number of
   them leaves it at its post-load size, and an edit that restores a
   loaded value is answered from the entries the load left. *)
let test_session_delta_cache () =
  with_default_session (fun session ->
      let h, loaded =
        ok_or_fail
          (Session.design_load session ~req:Session.Request.default ~spef:(read_file bus8_spef)
             ~spec:(read_file bus8_spec) ())
      in
      let entries = (Session.stats session).Session.cache.Memo.entries in
      Alcotest.(check int) "one entry per load miss"
        loaded.Session.result.Rlc_flow.Flow.stats.Rlc_flow.Flow.cache_misses entries;
      let delta ?(drivers = []) ?(slews = []) () =
        let out, st =
          ok_or_fail
            (Session.flow_delta session ~handle:h
               { Rlc_flow.Delta.empty with Rlc_flow.Delta.drivers; slews })
        in
        Alcotest.(check int) "cache size unchanged" entries
          (Session.stats session).Session.cache.Memo.entries;
        (out, st)
      in
      for k = 1 to 4 do
        ignore (delta ~slews:[ ("b1", (100. +. float_of_int k) *. 1e-12) ] ())
      done;
      ignore (delta ~drivers:[ ("o2", 60.) ] ());
      let out, st = delta ~slews:[ ("b1", 100e-12) ] ~drivers:[ ("o2", 50.) ] () in
      let stats = out.Session.result.Rlc_flow.Flow.stats in
      Alcotest.(check int) "reverting cones retimed" 4 st.Rlc_flow.Flow.retimed;
      Alcotest.(check int) "revert served from the cache" st.Rlc_flow.Flow.retimed
        stats.Rlc_flow.Flow.cache_hits;
      Alcotest.(check int) "revert misses nothing" 0 stats.Rlc_flow.Flow.cache_misses;
      Alcotest.(check string) "reverted report = loaded report" loaded.Session.report
        out.Session.report)

(* ------------------------------------------------- incremental reuse *)

module Flow = Rlc_flow.Flow
module Delta = Rlc_flow.Delta
module Design = Rlc_flow.Design

(* A random bus: bit [i] is a primary-input global [b<i>] (an RLC ladder of
   [segs] segments) driving a local [o<i>] (a 2-segment RC ladder); with
   [tails] every local drives a third-level [t<i>].  [coupled] adds
   coupling caps between adjacent globals, declared in the lower bit's
   block.  [jitter] scales each net's parasitics so no two nets share a
   cache key. *)
type reuse_edit =
  | Block of string * float * bool  (** net, R/L/C scale, couplings on (globals) *)
  | Resize of string * float
  | Slew of string * float  (** global net, ps *)
  | Revert of string  (** the loaded block, size and slew of a net *)
  | Rename of string
      (** a global's block with its interior nodes renamed: the couplings
          the bit below declares against them dangle until reverted *)
  | Odd of string
      (** a local's block that also declares a coupling between two
          globals it does not own and one to a node no net owns *)
  | Clash of string
      (** a global's block whose first interior node is named as its local's:
          ingest error *)
  | Self_couple of string  (** a global's block coupling two of its own nodes: ingest error *)
  | Repeat_pair of string
      (** an upper global's block declaring a coupling to the bit below;
          a duplicate pair (a delta error) while that bit declares its own *)

type reuse_case = {
  bits : int;
  segs : int;
  tails : bool;
  coupled : bool;
  xtalk : bool;
  jobs : int;  (** the session's pool size *)
  jitter : float array;  (** per net, in [net_names] order *)
  deltas : reuse_edit list list;
}

let net_names c =
  List.concat
    (List.init c.bits (fun i ->
         List.map
           (fun p -> Printf.sprintf "%s%d" p i)
           (if c.tails then [ "b"; "o"; "t" ] else [ "b"; "o" ])))

let is_global name = name.[0] = 'b'
let bit_of name = int_of_string (String.sub name 1 (String.length name - 1))
let loaded_size name = if is_global name then 75. else 50.

let node name ~segs k =
  if k = 0 then name ^ "_drv"
  else if k = segs then name ^ "_rcv"
  else Printf.sprintf "%s_%d" name k

let block c ?(scale = 1.) ?(couple = c.coupled) ?(rename = false) ?clash ?(extra = []) name =
  let jit =
    let rec index i = function
      | n :: _ when n = name -> i
      | _ :: rest -> index (i + 1) rest
      | [] -> invalid_arg name
    in
    c.jitter.(index 0 (net_names c))
  in
  let global = is_global name in
  let segs = if global then c.segs else 2 in
  let seg total = scale *. jit *. total /. float_of_int segs in
  let r = seg (if global then 72. else 120.) and l = seg 4500. in
  let cap = seg (if global then 600. else 90.) in
  let own k =
    match clash with
    | Some other when k = 1 -> other
    | _ when rename && k > 0 && k < segs -> Printf.sprintf "%s_r%d" name k
    | _ -> node name ~segs k
  in
  let b = Buffer.create 512 in
  Printf.bprintf b "*D_NET %s %.6g\n*CONN\n*P %s_drv O\n*P %s_rcv I\n*CAP\n" name
    (cap *. float_of_int segs) name name;
  for k = 1 to segs do
    Printf.bprintf b "%d %s %.6g\n" k (own k) cap
  done;
  let i = bit_of name in
  if global && couple && i < c.bits - 1 then
    for k = 1 to segs do
      Printf.bprintf b "%d %s %s %.6g\n" (segs + k) (own k)
        (node (Printf.sprintf "b%d" (i + 1)) ~segs k)
        (scale *. 30.)
    done;
  (* [extra]: further [*CAP] lines, grounded ([None]) or coupling. *)
  List.iteri
    (fun k (n1, n2, ff) ->
      match n2 with
      | None -> Printf.bprintf b "%d %s %.6g\n" (3 * segs) n1 ff
      | Some n2 -> Printf.bprintf b "%d %s %s %.6g\n" ((3 * segs) + k + 1) n1 n2 ff)
    extra;
  let section title v =
    Printf.bprintf b "*%s\n" title;
    for k = 0 to segs - 1 do
      Printf.bprintf b "%d %s %s %.6g\n" (k + 1) (own k) (own (k + 1)) v
    done
  in
  section "RES" r;
  if global then section "INDUC" l;
  Buffer.add_string b "*END\n";
  Buffer.contents b

let sources c =
  let spef = Buffer.create 4096 and spec = Buffer.create 512 in
  Buffer.add_string spef
    "*SPEF \"IEEE 1481-1998\"\n*DESIGN \"reuse\"\n\
     *T_UNIT 1 PS\n*C_UNIT 1 FF\n*R_UNIT 1 OHM\n*L_UNIT 1 PH\n";
  List.iter (fun name -> Buffer.add_string spef (block c name)) (net_names c);
  for i = 0 to c.bits - 1 do
    Printf.bprintf spec "driver b%d 75\ninput b%d 100\ndriver o%d 50\nedge b%d b%d_rcv o%d\n" i i
      i i i i;
    if c.tails then
      Printf.bprintf spec "driver t%d 50\nedge o%d o%d_rcv t%d\nload t%d t%d_rcv 5\n" i i i i i i
    else Printf.bprintf spec "load o%d o%d_rcv 5\n" i i
  done;
  (Buffer.contents spef, Buffer.contents spec)

(* One delta's edit lists; a later edit naming a net already in its list
   is dropped (a delta may not name a net twice). *)
let delta_of c edits =
  let add name v l = if List.mem_assoc name l then l else l @ [ (name, v) ] in
  List.fold_left
    (fun (d : Delta.t) e ->
      match e with
      | Block (name, scale, couple) ->
          { d with Delta.nets = add name (block c ~scale ~couple name) d.Delta.nets }
      | Resize (name, size) -> { d with Delta.drivers = add name size d.Delta.drivers }
      | Slew (name, ps) -> { d with Delta.slews = add name (ps *. 1e-12) d.Delta.slews }
      | Revert name ->
          let d =
            {
              d with
              Delta.nets = add name (block c name) d.Delta.nets;
              drivers = add name (loaded_size name) d.Delta.drivers;
            }
          in
          if is_global name then { d with Delta.slews = add name 100e-12 d.Delta.slews } else d
      | Rename name -> { d with Delta.nets = add name (block c ~rename:true name) d.Delta.nets }
      | Odd name ->
          let i = bit_of name in
          let extra =
            [
              ( Printf.sprintf "b%d_1" i,
                Some (Printf.sprintf "b%d_drv" ((i + 1) mod c.bits)),
                2. );
              (name ^ "_1", Some (Printf.sprintf "x%d" i), 4.);
            ]
          in
          { d with Delta.nets = add name (block c ~extra name) d.Delta.nets }
      | Clash name ->
          let clash = Printf.sprintf "o%d_1" (bit_of name) in
          { d with Delta.nets = add name (block c ~clash name) d.Delta.nets }
      | Self_couple name ->
          let extra = [ (name ^ "_1", Some (name ^ "_rcv"), 1.) ] in
          { d with Delta.nets = add name (block c ~extra name) d.Delta.nets }
      | Repeat_pair name ->
          let below = Printf.sprintf "b%d" (bit_of name - 1) in
          let extra = [ (name ^ "_1", Some (below ^ "_1"), 5.) ] in
          { d with Delta.nets = add name (block c ~extra name) d.Delta.nets })
    Delta.empty edits

let print_edit = function
  | Block (n, s, k) -> Printf.sprintf "block %s x%g%s" n s (if k then " coupled" else "")
  | Resize (n, s) -> Printf.sprintf "resize %s %gX" n s
  | Slew (n, ps) -> Printf.sprintf "slew %s %g ps" n ps
  | Revert n -> "revert " ^ n
  | Rename n -> "rename " ^ n
  | Odd n -> "odd " ^ n
  | Clash n -> "clash " ^ n
  | Self_couple n -> "self-couple " ^ n
  | Repeat_pair n -> "repeat-pair " ^ n

let arb_reuse_case =
  let open QCheck.Gen in
  let gen =
    int_range 2 4 >>= fun bits ->
    int_range 2 4 >>= fun segs ->
    bool >>= fun tails ->
    bool >>= fun coupled ->
    frequencyl [ (2, false); (1, true) ] >>= fun xtalk ->
    oneofl [ 1; 2 ] >>= fun jobs ->
    let shape = { bits; segs; tails; coupled; xtalk; jobs; jitter = [||]; deltas = [] } in
    let names = Array.of_list (net_names shape) in
    let globals = Array.of_list (List.filter is_global (Array.to_list names)) in
    let driven = Array.of_list (List.filter (fun n -> not (is_global n)) (Array.to_list names)) in
    let edit =
      frequency
        [
          ( 3,
            map3
              (fun n s k -> Block (n, s, k))
              (oneofa names) (oneofl [ 0.7; 0.9999; 1.0001; 1.25 ]) bool );
          (2, map2 (fun n s -> Resize (n, s)) (oneofa driven) (oneofl [ 50.; 75.; 100. ]));
          (1, map2 (fun n s -> Resize (n, s)) (oneofa globals) (oneofl [ 50.; 100. ]));
          ( 2,
            map2
              (fun n ps -> Slew (n, ps))
              (oneofa globals)
              (oneofl [ 80.; 99.9; 100.1; 120. ]) );
          (1, map (fun n -> Revert n) (oneofa names));
          (1, map (fun n -> Rename n) (oneofa globals));
          (1, map (fun n -> Odd n) (oneofa driven));
          (1, map (fun n -> Clash n) (oneofa globals));
          (1, map (fun n -> Self_couple n) (oneofa globals));
          (1, map (fun n -> Repeat_pair (Printf.sprintf "b%d" n)) (int_range 1 (bits - 1)));
        ]
    in
    array_size (return (Array.length names)) (float_range 0.9 1.1) >>= fun jitter ->
    list_size (int_range 1 4) (list_size (int_range 1 3) edit) >|= fun deltas ->
    { shape with jitter; deltas }
  in
  QCheck.make gen ~print:(fun c ->
      Printf.sprintf "%d bits x %d segs%s%s%s, jobs %d: %s" c.bits c.segs
        (if c.tails then ", tails" else "")
        (if c.coupled then ", coupled" else "")
        (if c.xtalk then ", xtalk" else "")
        c.jobs
        (String.concat " | "
           (List.map (fun d -> String.concat ", " (List.map print_edit d)) c.deltas)))

(* The first field in which two ingest records differ, if any. *)
let net_diff (a : Design.net) (b : Design.net) =
  let bits x y = Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y) in
  List.find_map
    (fun (field, same) -> if same then None else Some field)
    [
      ("id", a.Design.id = b.Design.id);
      ("name", a.Design.name = b.Design.name);
      ("size", bits a.Design.size b.Design.size);
      ("root_pin", a.Design.root_pin = b.Design.root_pin);
      ("loads", a.Design.loads = b.Design.loads);
      ("tree", a.Design.tree = b.Design.tree);
      ("pade", a.Design.pade = b.Design.pade);
      ("eq_line", a.Design.eq_line = b.Design.eq_line);
      ("cl", bits a.Design.cl b.Design.cl);
      ("fanin", a.Design.fanin = b.Design.fanin);
      ("fanout", a.Design.fanout = b.Design.fanout);
      ("level", a.Design.level = b.Design.level);
      ("prim_slew", Option.equal bits a.Design.prim_slew b.Design.prim_slew);
    ]

let xtalk_knobs = { Session.default_xtalk with Session.alignments = 3 }

(* The oracle: a cold ingest and flow of the edited sources with a fresh
   cache, crosstalk and rendering exactly as a session composes them. *)
let cold_report ~xtalk design =
  let result = Flow.run_cfg Flow.Config.default design in
  let fragment =
    if not xtalk then None
    else
      let x =
        Rlc_xtalk.Xtalk.analyze
          ~config:
            {
              Rlc_xtalk.Xtalk.Config.default with
              Rlc_xtalk.Xtalk.Config.threshold = xtalk_knobs.Session.threshold;
              budget = xtalk_knobs.Session.budget;
              alignments = xtalk_knobs.Session.alignments;
            }
          result
      in
      Some (Rlc_xtalk.Xtalk.json_fragment design x)
  in
  Rlc_flow.Report.json_string ?xtalk:fragment result

(* The first field in which two designs differ, if any: every net record
   (field by field), the levels, the sizes, and the coupling graph with
   bit-equal capacitances. *)
let design_diff (a : Design.t) (b : Design.t) =
  let bits x y = Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y) in
  if a.Design.design_name <> b.Design.design_name then Some "design_name"
  else if Design.n_nets a <> Design.n_nets b then Some "net count"
  else
    match
      List.find_map
        (fun i ->
          Option.map
            (fun f -> Printf.sprintf "net %s: %s" a.Design.nets.(i).Design.name f)
            (net_diff a.Design.nets.(i) b.Design.nets.(i)))
        (List.init (Design.n_nets a) Fun.id)
    with
    | Some _ as d -> d
    | None ->
        List.find_map
          (fun (field, same) -> if same then None else Some field)
          [
            ("levels", a.Design.levels = b.Design.levels);
            ("sizes", List.equal bits a.Design.sizes b.Design.sizes);
            ( "couplings",
              Array.length a.Design.couplings = Array.length b.Design.couplings
              && Array.for_all2
                   (fun (x : Design.coupling) (y : Design.coupling) ->
                     x.Design.net_a = y.Design.net_a && x.Design.net_b = y.Design.net_b
                     && bits x.Design.cc y.Design.cc)
                   a.Design.couplings b.Design.couplings );
          ]

(* Random bus designs under random delta sequences, served through
   [Session.flow_delta] by a session of 1 or 2 domains, against the cold
   path: [Delta.apply] of the sources so far, a cold ingest, a cold flow.
   A delta the cold path rejects (a node claimed by two nets, a coupling
   joining a net to itself, a duplicate coupling pair) must fail with the
   same message and leave the handle as it was, so the next delta is
   checked against the sources before it.  Otherwise: the report is
   byte-identical to the cold run's (so the one flow pass is
   jobs-independent in both of its modes), its escaped pieces splice to
   the escaped report, retimed + reused covers every net, and the
   resident design equals the cold-ingested one in every record, level,
   size and coupling.  Before the load, the initial sources go inline in
   a v1 [flow] (or [xtalk]) request to a server wrapping the same
   session, whose report must be the cold run's too: served = one-shot.
   The request goes three times: the first runs on the session's cold Ceff
   cache, the second runs warm and is stored in the read memo, and the
   third is a read-memo hit. *)
let reuse_matches_cold c =
  let spef_src, spec_src = sources c in
  let served_line =
    let kind, knobs =
      if c.xtalk then
        ( "xtalk",
          [
            ("threshold", Json.Float xtalk_knobs.Session.threshold);
            ("budget", Json.Float xtalk_knobs.Session.budget);
            ("alignments", Json.Int xtalk_knobs.Session.alignments);
          ] )
      else ("flow", [])
    in
    Json.to_string
      (Json.Obj
         ([
            ("schema", Json.Str Protocol.schema);
            ("kind", Json.Str kind);
            ("spef", Json.Str spef_src);
            ("spec", Json.Str spec_src);
          ]
         @ knobs))
  in
  let req =
    {
      Session.Request.default with
      Session.Request.xtalk = (if c.xtalk then Some xtalk_knobs else None);
    }
  in
  let config = { Session.Config.default with Session.Config.jobs = c.jobs } in
  let spliced k (out : Session.flow_outcome) =
    match out.Session.report_escaped with
    | Some pieces when String.equal (String.concat "" pieces) (Json.escape out.Session.report)
      ->
        ()
    | Some _ -> QCheck.Test.fail_reportf "delta %d: escaped pieces differ from the report" k
    | None -> QCheck.Test.fail_reportf "delta %d: no escaped pieces" k
  in
  Session.with_session ~config (fun session ->
      let spef = ref (ok_or_fail (Rlc_spef.Spef.parse_res spef_src)) in
      let spec = ref (ok_or_fail (Rlc_flow.Spec.parse_res spec_src)) in
      (let cold =
         match Design.ingest ~spef:!spef ~spec:!spec () with
         | Ok design -> cold_report ~xtalk:c.xtalk design
         | Error msg -> QCheck.Test.fail_reportf "initial sources: %s" msg
       in
       let server = Server.create session in
       List.iter
         (fun what ->
           let raw, _ = Server.handle_line server served_line in
           match Json.member "report" (json_of raw) with
           | Some (Json.Str report) ->
               if not (String.equal report cold) then
                 QCheck.Test.fail_reportf "%s: report differs from a cold run" what
           | _ -> QCheck.Test.fail_reportf "%s failed: %s" what raw)
         [ "served flow"; "served flow, warm"; "served flow, a third time" ];
       let stats, _ = Server.handle_line server {|{"schema":"rlc-service/1","kind":"stats"}|} in
       match Json.member "reads" (json_of stats) with
       | Some reads when Json.member "hits" reads = Some (Json.Int 1) -> ()
       | _ -> QCheck.Test.fail_reportf "served flow, a third time: not a read-memo hit: %s" stats);
      let handle, loaded =
        ok_or_fail (Session.design_load session ~req ~spef:spef_src ~spec:spec_src ())
      in
      spliced 0 loaded;
      let prev = ref loaded.Session.result.Flow.design in
      List.iteri
        (fun k edits ->
          let k = k + 1 in
          let delta = delta_of c edits in
          let cold =
            match Delta.apply ~spef:!spef ~spec:!spec delta with
            | Error e -> Error (Error.message e)
            | Ok a -> (
                match Design.ingest ~spef:a.Delta.spef ~spec:a.Delta.spec () with
                | Ok d -> Ok (a, d)
                | Error msg -> Error msg)
          in
          match (Session.flow_delta session ~handle delta, cold) with
          | Error e, Error msg ->
              if not (String.equal (Error.message e) msg) then
                QCheck.Test.fail_reportf "delta %d: error %S, cold path %S" k
                  (Error.message e) msg
          | Error e, Ok _ ->
              QCheck.Test.fail_reportf "delta %d: failed (%s), cold path succeeds" k
                (Error.to_string e)
          | Ok _, Error msg ->
              QCheck.Test.fail_reportf "delta %d: succeeded, cold path fails with %S" k msg
          | Ok (out, st), Ok (a, cold) ->
              spef := a.Delta.spef;
              spec := a.Delta.spec;
              if not (String.equal out.Session.report (cold_report ~xtalk:c.xtalk cold)) then
                QCheck.Test.fail_reportf "delta %d: report differs from a cold run" k;
              spliced k out;
              let n = Design.n_nets cold in
              if st.Flow.retimed + st.Flow.reused <> n then
                QCheck.Test.fail_reportf "delta %d: retimed %d + reused %d <> %d nets" k
                  st.Flow.retimed st.Flow.reused n;
              let design = out.Session.result.Flow.design in
              (match design_diff design cold with
              | Some field ->
                  QCheck.Test.fail_reportf "delta %d: design differs from a cold ingest in %s"
                    k field
              | None -> ());
              (* Unedited nets keep their very record. *)
              Array.iteri
                (fun i (net : Design.net) ->
                  if
                    (not (List.mem_assoc net.Design.name delta.Delta.nets))
                    && (not (List.mem_assoc net.Design.name delta.Delta.drivers))
                    && (not (List.mem_assoc net.Design.name delta.Delta.slews))
                    && not
                         (List.exists
                            (fun (d, _) ->
                              net.Design.fanout
                              |> List.exists (fun j ->
                                     String.equal design.Design.nets.(j).Design.name d))
                            delta.Delta.drivers)
                    && net != !prev.Design.nets.(i)
                  then
                    QCheck.Test.fail_reportf "delta %d: unedited net %s got a new record" k
                      net.Design.name)
                design.Design.nets;
              prev := design)
        c.deltas;
      true)

let prop_reuse =
  QCheck.Test.make ~name:"flow_delta reuse = cold run of the edited sources" ~count:40
    arb_reuse_case reuse_matches_cold

(* The case the random property meets least: couplings that a renamed
   block leaves dangling, then re-attach when it is reverted or edited,
   with a third net's couplings and a failing delta in between. *)
let test_reuse_dangling () =
  let c =
    {
      bits = 3;
      segs = 3;
      tails = false;
      coupled = true;
      xtalk = true;
      jobs = 1;
      jitter = [| 1.; 1.02; 0.98; 1.01; 0.99; 1.03 |];
      deltas =
        [
          [ Rename "b1" ];
          [ Odd "o0" ];
          [ Revert "b1" ];
          [ Rename "b2"; Slew ("b0", 120.) ];
          [ Clash "b2" ];
          [ Block ("b2", 1.25, true) ];
          [ Revert "o0"; Rename "b1" ];
          [ Block ("b1", 0.7, true) ];
        ];
    }
  in
  Alcotest.(check bool) "every delta = its cold run" true (reuse_matches_cold c)

(* What a 1-net ECO edit costs against the load it edits, in exact work
   counts from the session's obs sink (jobs 1).  The bus is [sources]'
   16-bit shape at 3 segments, except that b<i>'s node caps are 200 + i fF
   (R and L unscaled), so all 32 nets have distinct cache keys and the load
   solves every one.  The delta raises b0's caps to 510 fF: only b0 and o0
   are re-solved, so it runs at most a tenth of the load's transients and
   Ceff iterations.  Steps are not the measure: the heavier b0 takes more
   steps than an average net.  Ingest and report work are counted too:
   the load claims every node of every block and renders and escapes all
   32 entries; the block edit claims only its new block's nodes and
   renders and escapes at most its 2 re-solved nets' entries; a resize
   and a slew edit claim no node at all. *)
let test_delta_work () =
  let c =
    {
      bits = 16;
      segs = 3;
      tails = false;
      coupled = false;
      xtalk = false;
      jobs = 1;
      jitter = Array.make 32 1.;
      deltas = [];
    }
  in
  let global ~cap i =
    let bit = Printf.sprintf "b%d" i in
    let b = Buffer.create 512 in
    Printf.bprintf b "*D_NET %s %d\n*CONN\n*P %s_drv O\n*P %s_rcv I\n*CAP\n" bit (3 * cap) bit bit;
    for k = 1 to 3 do
      Printf.bprintf b "%d %s %d\n" k (node bit ~segs:3 k) cap
    done;
    List.iter
      (fun (title, v) ->
        Printf.bprintf b "*%s\n" title;
        for k = 1 to 3 do
          Printf.bprintf b "%d %s %s %d\n" k (node bit ~segs:3 (k - 1)) (node bit ~segs:3 k) v
        done)
      [ ("RES", 24); ("INDUC", 1500) ];
    Buffer.add_string b "*END\n";
    Buffer.contents b
  in
  let spef =
    String.concat ""
      ("*SPEF \"IEEE 1481-1998\"\n*DESIGN \"bus\"\n\
        *T_UNIT 1 PS\n*C_UNIT 1 FF\n*R_UNIT 1 OHM\n*L_UNIT 1 PH\n"
      :: List.concat_map
           (fun i -> [ global ~cap:(200 + i) i; block c (Printf.sprintf "o%d" i) ])
           (List.init 16 Fun.id))
  and spec = snd (sources c) in
  let obs = Rlc_obs.Obs.create () in
  let config = { Session.Config.default with Session.Config.obs } in
  Session.with_session ~config (fun session ->
      ok_or_fail (Session.warm session [ 75.; 50. ]);
      let work f =
        let before = Rlc_obs.Obs.snapshot obs in
        let v = f () in
        let after = Rlc_obs.Obs.snapshot obs in
        let d name = Rlc_obs.Obs.counter after name - Rlc_obs.Obs.counter before name in
        ( v,
          (d "engine.transients", d "flow.ceff_iterations"),
          (d "design.nodes_claimed", d "report.entries_rendered", d "report.entries_escaped") )
      in
      (* Claims of a block: conn pins, grounded-cap nodes, branch ends. *)
      let claims (d : Rlc_spef.Spef.dnet) =
        List.length d.Rlc_spef.Spef.conns + List.length d.Rlc_spef.Spef.caps
        + (2 * List.length d.Rlc_spef.Spef.branches)
      in
      let parsed = ok_or_fail (Rlc_spef.Spef.parse_res spef) in
      let (handle, _), (load_tr, load_it), (load_claims, load_rendered, load_escaped) =
        work (fun () ->
            ok_or_fail
              (Session.design_load session ~req:Session.Request.default ~spef ~spec ()))
      in
      Alcotest.(check int) "load claims every node of every block"
        (List.fold_left (fun acc d -> acc + claims d) 0 parsed.Rlc_spef.Spef.nets)
        load_claims;
      Alcotest.(check int) "load renders every entry" 32 load_rendered;
      Alcotest.(check int) "load escapes every entry" 32 load_escaped;
      let b0 = global ~cap:510 0 in
      let edit = { Delta.empty with Delta.nets = [ ("b0", b0) ] } in
      let (_, st), (delta_tr, delta_it), (delta_claims, delta_rendered, delta_escaped) =
        work (fun () -> ok_or_fail (Session.flow_delta session ~handle edit))
      in
      Alcotest.(check int) "b0 and o0 retimed" 2 st.Flow.retimed;
      Alcotest.(check int) "every other net reused" 30 st.Flow.reused;
      let tenth what d l =
        Alcotest.(check bool)
          (Printf.sprintf "%s: delta %d <= load %d / 10" what d l)
          true
          (l > 0 && d * 10 <= l)
      in
      tenth "engine transients" delta_tr load_tr;
      tenth "Ceff iterations" delta_it load_it;
      Alcotest.(check int) "block edit claims only the new block's nodes"
        (claims (ok_or_fail (Rlc_spef.Spef.parse_dnet_res ~units:parsed.Rlc_spef.Spef.units b0)))
        delta_claims;
      let at_most_2 what n =
        Alcotest.(check bool) (Printf.sprintf "%s: %d <= 2" what n) true (n <= 2)
      in
      at_most_2 "entries rendered" delta_rendered;
      at_most_2 "entries escaped" delta_escaped;
      List.iter
        (fun (what, edit) ->
          let _, _, (c, _, _) =
            work (fun () -> ok_or_fail (Session.flow_delta session ~handle edit))
          in
          Alcotest.(check int) (what ^ " claims no node") 0 c)
        [
          ("resize", { Delta.empty with Delta.drivers = [ ("o5", 75.) ] });
          ("slew", { Delta.empty with Delta.slews = [ ("b7", 90e-12) ] });
        ])

(* -------------------------------------------------------------- server *)

let send server line =
  let resp, control = Server.handle_line server line in
  (json_of resp, control)

let with_server ?timeout_s f =
  with_default_session (fun session -> f (Server.create ?timeout_s session))

let bus8_flow_request ?id ?timeout_ms ?(extra = []) () =
  let fields =
    [ ("schema", Json.Str Protocol.schema); ("kind", Json.Str "flow") ]
    @ (match id with Some id -> [ ("id", Json.Int id) ] | None -> [])
    @ (match timeout_ms with Some ms -> [ ("timeout_ms", Json.Int ms) ] | None -> [])
    @ [ ("spef_file", Json.Str bus8_spef); ("spec_file", Json.Str bus8_spec) ]
    @ extra
  in
  Json.to_string (Json.Obj fields)

let test_server_flow_warmth () =
  with_server (fun server ->
      let first, _ = send server (bus8_flow_request ~id:1 ()) in
      let second, _ = send server (bus8_flow_request ~id:2 ()) in
      Alcotest.(check (option bool)) "first ok" (Some true) (Json.get_bool (member "ok" first));
      Alcotest.(check (option int)) "id echoed" (Some 2) (Json.get_int (member "id" second));
      Alcotest.(check bool) "first misses" true
        (Option.get (Json.get_int (member "cache_misses" first)) > 0);
      Alcotest.(check (option int)) "second all hits" (Some 0)
        (Json.get_int (member "cache_misses" second));
      Alcotest.(check (option int)) "8 nets" (Some 8) (Json.get_int (member "nets" second)))

let test_server_report_byte_identical () =
  (* The served report field must be the exact --json payload of the
     one-shot CLI path (both go through Session -> Report.json_string). *)
  let oneshot =
    with_default_session (fun session ->
        let design =
          ok_or_fail
            (Session.ingest session ~spef:(read_file bus8_spef) ~spec:(read_file bus8_spec) ())
        in
        (ok_or_fail (Session.flow session Session.Request.default design)).Session.report)
  in
  with_server (fun server ->
      let resp, _ = send server (bus8_flow_request ()) in
      let served = Option.get (Json.get_string (member "report" resp)) in
      Alcotest.(check string) "byte-identical report" oneshot served)

let test_server_isolation () =
  with_server (fun server ->
      let expect_code code line =
        let resp, control = send server line in
        Alcotest.(check (option bool)) (code ^ ": not ok") (Some false)
          (Json.get_bool (member "ok" resp));
        Alcotest.(check (option string)) (code ^ ": code") (Some code)
          (Json.get_string (member "code" (member "error" resp)));
        Alcotest.(check bool) (code ^ ": continues") true (control = `Continue)
      in
      expect_code "parse_error" "}{ garbage";
      expect_code "unsupported_version" {|{"schema":"rlc-service/9","kind":"ping"}|};
      expect_code "bad_request" {|{"schema":"rlc-service/1","kind":"frobnicate"}|};
      (* Stateful kinds exist only under the v2 schema tag. *)
      expect_code "bad_request" {|{"schema":"rlc-service/1","kind":"design_load","spef":"x"}|};
      expect_code "bad_request" {|{"schema":"rlc-service/2","kind":"flow_delta","handle":"d0"}|};
      expect_code "bad_request"
        {|{"schema":"rlc-service/1","kind":"flow","spef_file":"../examples/no_such.spef"}|};
      expect_code "parse_error"
        {|{"schema":"rlc-service/1","kind":"flow","spef":"*D_NET broken\n"}|};
      (* After every failure the daemon still answers. *)
      let resp, _ = send server {|{"schema":"rlc-service/1","kind":"ping","id":9}|} in
      Alcotest.(check (option bool)) "daemon survives" (Some true)
        (Json.get_bool (member "ok" resp));
      let resp, _ = send server {|{"schema":"rlc-service/1","kind":"stats"}|} in
      Alcotest.(check bool) "failures counted" true
        (Option.get (Json.get_int (member "requests_failed" resp)) >= 5))

let test_server_oversized () =
  with_default_session (fun session ->
      let server = Server.create ~max_request_bytes:64 session in
      let long = bus8_flow_request () in
      Alcotest.(check bool) "fixture really oversized" true (String.length long > 64);
      let resp, _ = Server.handle_line server long in
      let j = json_of resp in
      Alcotest.(check (option string)) "rejected" (Some "bad_request")
        (Json.get_string (member "code" (member "error" j)));
      (* Short requests still fit. *)
      let resp, _ = Server.handle_line server {|{"schema":"rlc-service/1","kind":"ping"}|} in
      Alcotest.(check (option bool)) "ping fits" (Some true)
        (Json.get_bool (member "ok" (json_of resp))))

let test_server_timeout () =
  with_server (fun server ->
      (* A reference-simulation request at a tiny timestep takes far longer
         than 2 ms of wall clock; the alarm must convert it into a typed
         timeout response, after which the daemon keeps serving. *)
      let resp, control =
        send server
          {|{"schema":"rlc-service/1","kind":"sweep_case","timeout_ms":2,"length_mm":7,"width_um":0.8,"size":75,"dt_ps":0.05}|}
      in
      Alcotest.(check (option string)) "timeout code" (Some "timeout")
        (Json.get_string (member "code" (member "error" resp)));
      Alcotest.(check bool) "continues" true (control = `Continue);
      let resp, _ = send server {|{"schema":"rlc-service/1","kind":"ping"}|} in
      Alcotest.(check (option bool)) "alive after timeout" (Some true)
        (Json.get_bool (member "ok" resp)))

(* A flow-kind request stops on its own budget too.  The server installs
   the deadline around dispatch; the session, the flow, the pool and the
   engine read it only ambiently.  A 64-net bus solved without the cache
   on one domain replays for tens of milliseconds, far beyond 1 ms; a
   flow_delta naming a size nothing has characterized (43.7X, used by no
   other test here) runs out in the 112 characterization transients. *)
let test_server_flow_kinds_timeout () =
  let bus =
    {
      bits = 32;
      segs = 3;
      tails = false;
      coupled = false;
      xtalk = false;
      jobs = 1;
      jitter = Array.make 64 1.;
      deltas = [];
    }
  in
  let spef, spec = sources bus in
  let request ?timeout_ms schema kind fields =
    Json.to_string
      (Json.Obj
         ([ ("schema", Json.Str schema); ("kind", Json.Str kind); ("id", Json.Int 21) ]
         @ (match timeout_ms with Some ms -> [ ("timeout_ms", Json.Int ms) ] | None -> [])
         @ fields))
  in
  let flow ?timeout_ms () =
    request ?timeout_ms Protocol.schema "flow"
      [ ("spef", Json.Str spef); ("spec", Json.Str spec); ("use_cache", Json.Bool false) ]
  in
  let expect what code resp =
    Alcotest.(check (option bool)) (what ^ ": ok") (Some (code = None))
      (Json.get_bool (member "ok" resp));
    Option.iter
      (fun code ->
        Alcotest.(check (option string)) (what ^ ": code") (Some code)
          (Json.get_string (member "code" (member "error" resp))))
      code;
    Alcotest.(check (option int)) (what ^ ": id") (Some 21) (Json.get_int (member "id" resp))
  in
  with_server (fun server ->
      (* Untimed first, so the timed run's cells are characterized and its
         budget runs out in the replays. *)
      expect "warm flow" None (fst (send server (flow ())));
      expect "flow, 1 ms" (Some "timeout") (fst (send server (flow ~timeout_ms:1 ())));
      let loaded, _ =
        send server
          (request Protocol.schema_v2 "design_load"
             [ ("spef", Json.Str spef); ("spec", Json.Str spec) ])
      in
      expect "design_load" None loaded;
      let handle = Option.get (Json.get_string (member "handle" loaded)) in
      let delta ?timeout_ms edit =
        request ?timeout_ms Protocol.schema_v2 "flow_delta"
          [ ("handle", Json.Str handle); edit ]
      in
      expect "flow_delta to a new size, 1 ms" (Some "timeout")
        (fst
           (send server
              (delta ~timeout_ms:1 ("drivers", Json.Obj [ ("o0", Json.Float 43.7) ]))));
      (* The daemon, and the handle, keep serving. *)
      expect "next request" None
        (fst (send server (delta ("slews_ps", Json.Obj [ ("b0", Json.Float 120.) ])))))

(* Every failure of a line that parses as a JSON object echoes that line's
   id and schema tag, whichever check refuses it; a line that is malformed
   JSON or over the size limit is answered without an id under
   rlc-service/1.  [serve] sends one line and returns the raw response. *)
let check_failure_envelopes serve =
  let check ?prefix line ~code ~id ~schema =
    let raw = serve line in
    let j = json_of raw in
    Alcotest.(check (option bool)) (line ^ ": not ok") (Some false)
      (Json.get_bool (member "ok" j));
    Alcotest.(check (option string)) (line ^ ": code") (Some code)
      (Json.get_string (member "code" (member "error" j)));
    Alcotest.(check (option string)) (line ^ ": schema") (Some schema)
      (Json.get_string (member "schema" j));
    Alcotest.(check (option string)) (line ^ ": id")
      (Option.map Json.to_string id)
      (Option.map Json.to_string (Json.member "id" j));
    Option.iter
      (fun p ->
        Alcotest.(check string) (line ^ ": bytes") p
          (String.sub raw 0 (Int.min (String.length raw) (String.length p))))
      prefix
  in
  check
    {|{"schema":"rlc-service/2","id":7,"kind":"flow_delta","handle":"d1","drivers":{"b0":-1}}|}
    ~prefix:{|{"schema":"rlc-service/2","id":7,"ok":false,"error":{"code":"bad_request",|}
    ~code:"bad_request" ~id:(Some (Json.Int 7)) ~schema:Protocol.schema_v2;
  check {|{"schema":"rlc-service/1","id":"x","kind":"warp"}|} ~code:"bad_request"
    ~id:(Some (Json.Str "x")) ~schema:Protocol.schema;
  check {|{"schema":"rlc-service/1","id":{"n":[1,2]},"kind":"design_load","spef":"x"}|}
    ~code:"bad_request"
    ~id:(Some (Json.Obj [ ("n", Json.List [ Json.Int 1; Json.Int 2 ]) ]))
    ~schema:Protocol.schema;
  check {|{"schema":"rlc-service/9","id":4,"kind":"ping"}|} ~code:"unsupported_version"
    ~id:(Some (Json.Int 4)) ~schema:Protocol.schema;
  check {|{"schema":"rlc-service/2","id":5,}|} ~code:"parse_error" ~id:None
    ~schema:Protocol.schema;
  check
    ({|{"schema":"rlc-service/2","id":6,"kind":"ping","pad":"|} ^ String.make 300 'x' ^ {|"}|})
    ~code:"bad_request" ~id:None ~schema:Protocol.schema

let test_server_failure_envelopes () =
  with_default_session (fun session ->
      let server = Server.create ~max_request_bytes:256 session in
      check_failure_envelopes (fun line -> fst (Server.handle_line server line)))

let test_server_shutdown_control () =
  with_server (fun server ->
      let resp, control = send server {|{"schema":"rlc-service/1","kind":"shutdown","id":1}|} in
      Alcotest.(check bool) "stop" true (control = `Stop);
      Alcotest.(check (option bool)) "acknowledged" (Some true)
        (Json.get_bool (member "stopping" resp)))

(* ---------------------------------------------- server, read memo *)

let read_request ?(schema = Protocol.schema) ?id ?(kind = "flow") fields =
  Json.to_string
    (Json.Obj
       ([ ("schema", Json.Str schema); ("kind", Json.Str kind) ]
       @ (match id with Some id -> [ ("id", id) ] | None -> [])
       @ fields))

let report_of resp = Option.get (Json.get_string (member "report" resp))

(* The server's read-memo counters: hits, misses, entries. *)
let reads_of server =
  let stats, _ = send server {|{"schema":"rlc-service/1","kind":"stats"}|} in
  let reads = member "reads" stats in
  let get f = Option.get (Json.get_int (member f reads)) in
  (get "hits", get "misses", get "entries")

let check_reads what expected server =
  Alcotest.(check (triple int int int)) (what ^ ": reads hits, misses, entries") expected
    (reads_of server)

let write_file path content =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc content)

(* A copy of bus8.spec that a test may rewrite or delete. *)
let with_spec_copy ?(content = read_file bus8_spec) f =
  let path = Filename.temp_file "rlc_memo" ".spec" in
  write_file path content;
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) (fun () -> f path)

(* A repeated v1 flow or xtalk is answered from the read memo, in the
   repeat's own envelope (no id, an int or a string id, under either
   tag).  Each kind runs on a fresh session: its first read runs on a cold
   Ceff cache and is not stored, its second runs warm and is.  A fresh
   server on the same session has an empty memo and a warm Ceff cache, so
   the answer it computes is the warm run a hit must equal byte for byte:
   the same report, every net a cache hit, no iteration spent. *)
let test_server_read_hits () =
  let reads =
    [
      ("flow", [ ("spef_file", Json.Str bus8_spef); ("spec_file", Json.Str bus8_spec) ]);
      ( "xtalk",
        [
          ("spef_file", Json.Str (fixture "bus8_coupled.spef"));
          ("spec_file", Json.Str bus8_spec);
          ("alignments", Json.Int 3);
        ] );
    ]
  and envelopes =
    [
      (Protocol.schema, None);
      (Protocol.schema, Some (Json.Int 7));
      (Protocol.schema, Some (Json.Str "r7"));
      (Protocol.schema_v2, None);
      (Protocol.schema_v2, Some (Json.Int 8));
      (Protocol.schema_v2, Some (Json.Str "r8"));
    ]
  in
  List.iter
    (fun (kind, fields) ->
      with_default_session (fun session ->
          let server = Server.create session in
          let first, _ = send server (read_request ~kind fields) in
          Alcotest.(check bool) (kind ^ ": the first read runs cold") true
            (Option.get (Json.get_int (member "cache_misses" first)) > 0);
          check_reads (kind ^ ": a cold read is not stored") (0, 1, 0) server;
          ignore (send server (read_request ~kind fields));
          check_reads (kind ^ ": a warm read is stored") (0, 2, 1) server;
          List.iter
            (fun (schema, id) ->
              let what =
                Printf.sprintf "%s %s id %s" kind schema
                  (Option.fold ~none:"-" ~some:Json.to_string id)
              in
              let line = read_request ~schema ?id ~kind fields in
              let raw, _ = Server.handle_line server line in
              let warm, _ = Server.handle_line (Server.create session) line in
              Alcotest.(check string) (what ^ ": hit = a warm run") warm raw;
              let hit = json_of raw in
              Alcotest.(check (option string)) (what ^ ": schema") (Some schema)
                (Json.get_string (member "schema" hit));
              Alcotest.(check (option string)) (what ^ ": id")
                (Option.map Json.to_string id)
                (Option.map Json.to_string (Json.member "id" hit));
              Alcotest.(check string) (what ^ ": report") (report_of first) (report_of hit);
              let count f = Json.get_int (member f hit) in
              Alcotest.(check (option int)) (what ^ ": every net a hit") (count "nets")
                (count "cache_hits");
              Alcotest.(check (option int)) (what ^ ": no miss") (Some 0) (count "cache_misses");
              Alcotest.(check (option int)) (what ^ ": no iteration") (Some 0)
                (count "iterations_spent"))
            envelopes;
          check_reads (kind ^ ": after 2 reads and 6 repeats") (6, 2, 1) server))
    reads

(* A read that does not use the Ceff cache neither looks the memo up nor
   fills it, and reports uncached counters every time, also once the same
   read is stored. *)
let test_server_read_no_cache () =
  with_server (fun server ->
      let uncached = bus8_flow_request ~extra:[ ("use_cache", Json.Bool false) ] () in
      let check_uncached what =
        let resp, _ = send server uncached in
        Alcotest.(check (option int)) (what ^ ": no hit") (Some 0)
          (Json.get_int (member "cache_hits" resp));
        Alcotest.(check (option int)) (what ^ ": no miss") (Some 0)
          (Json.get_int (member "cache_misses" resp))
      in
      check_uncached "first";
      check_uncached "second";
      check_reads "uncached reads" (0, 0, 0) server;
      ignore (send server (bus8_flow_request ()));
      ignore (send server (bus8_flow_request ()));
      check_reads "a cold and a warm cached read" (0, 2, 1) server;
      check_uncached "with the read stored";
      check_reads "the uncached read skipped the memo" (0, 2, 1) server)

(* A spec file rewritten in place between two reads is timed again, and
   the answer is a cold run of the new bytes; once a warm run of them is
   stored, the next read is a hit on them.  The edit keeps the file's
   length. *)
let test_server_read_rewrite () =
  with_spec_copy (fun spec ->
      with_server (fun server ->
          let line =
            read_request [ ("spef_file", Json.Str bus8_spef); ("spec_file", Json.Str spec) ]
          in
          let report () = report_of (fst (send server line)) in
          let before = report () in
          Alcotest.(check string) "warm before the rewrite" before (report ());
          Alcotest.(check string) "hit before the rewrite" before (report ());
          check_reads "before the rewrite" (1, 2, 1) server;
          let edited =
            String.concat "\n"
              (List.map
                 (fun l -> if String.equal l "input b0 100" then "input b0 120" else l)
                 (String.split_on_char '\n' (read_file bus8_spec)))
          in
          Alcotest.(check int) "same length" (String.length (read_file bus8_spec))
            (String.length edited);
          write_file spec edited;
          let after = report () in
          check_reads "after the rewrite" (1, 3, 1) server;
          let cold =
            with_default_session (fun fresh ->
                let design =
                  ok_or_fail (Session.ingest fresh ~spef:(read_file bus8_spef) ~spec:edited ())
                in
                (ok_or_fail (Session.flow fresh Session.Request.default design)).Session.report)
          in
          Alcotest.(check string) "rewritten = a cold run of the new bytes" cold after;
          Alcotest.(check bool) "the edit shows" false (String.equal before after);
          Alcotest.(check string) "warm on the new bytes" after (report ());
          Alcotest.(check string) "hit on the new bytes" after (report ());
          check_reads "hit on the new bytes" (2, 4, 1) server))

(* A stored read whose file is then deleted answers exactly what a server
   that never stored it answers: the same bad_request line. *)
let test_server_read_deleted () =
  with_spec_copy (fun spec ->
      with_default_session (fun session ->
          let server = Server.create session in
          let line =
            read_request ~id:(Json.Int 4)
              [ ("spef_file", Json.Str bus8_spef); ("spec_file", Json.Str spec) ]
          in
          ignore (send server line);
          ignore (send server line);
          check_reads "stored" (0, 2, 1) server;
          Sys.remove spec;
          let raw, _ = Server.handle_line server line in
          let fresh, _ = Server.handle_line (Server.create session) line in
          Alcotest.(check string) "the answer of a server without the entry" fresh raw;
          Alcotest.(check (option string)) "bad_request" (Some "bad_request")
            (Json.get_string (member "code" (member "error" (json_of raw))));
          check_reads "a missing file is a miss" (0, 3, 1) server))

(* An answer heavier than the memo's byte bound (8 MiB) is answered, and
   answered again, but never stored: a spec file with a 9 MB comment. *)
let test_server_read_over_bound () =
  let content = read_file bus8_spec ^ "# " ^ String.make (9 * 1024 * 1024) 'x' ^ "\n" in
  with_spec_copy ~content (fun spec ->
      with_server (fun server ->
          let expected = report_of (fst (send server (bus8_flow_request ()))) in
          ignore (send server (bus8_flow_request ()));
          let line =
            read_request [ ("spef_file", Json.Str bus8_spef); ("spec_file", Json.Str spec) ]
          in
          Alcotest.(check string) "answered" expected (report_of (fst (send server line)));
          Alcotest.(check string) "answered again" expected (report_of (fst (send server line)));
          check_reads "never stored" (0, 4, 1) server;
          let stats, _ = send server {|{"schema":"rlc-service/1","kind":"stats"}|} in
          let reads = member "reads" stats in
          Alcotest.(check (option int)) "no eviction" (Some 0)
            (Json.get_int (member "evictions" reads));
          Alcotest.(check bool) "only bus8's answer held" true
            (Option.get (Json.get_int (member "bytes" reads)) < 64 * 1024)))

(* ------------------------------------------------- server, v2 kinds *)

let design_load_request ?id ?(extra = []) () =
  let fields =
    [ ("schema", Json.Str Protocol.schema_v2); ("kind", Json.Str "design_load") ]
    @ (match id with Some id -> [ ("id", Json.Int id) ] | None -> [])
    @ [ ("spef_file", Json.Str bus8_spef); ("spec_file", Json.Str bus8_spec) ]
    @ extra
  in
  Json.to_string (Json.Obj fields)

let test_server_design_lifecycle () =
  with_server (fun server ->
      (* Ground truths come from the stateless v1 path on the same server. *)
      let oneshot, _ = send server (bus8_flow_request ()) in
      let expected = Option.get (Json.get_string (member "report" oneshot)) in
      (* A handle's responses splice the report's escaped pieces; the bytes
         must be exactly [Json.to_string] of the plain fields. *)
      let send_spliced what line =
        let raw, _ = Server.handle_line server line in
        let j = json_of raw in
        Alcotest.(check string) (what ^ ": spliced = plain rendering") (Json.to_string j) raw;
        j
      in
      let loaded = send_spliced "design_load" (design_load_request ~id:1 ()) in
      Alcotest.(check (option bool)) "load ok" (Some true) (Json.get_bool (member "ok" loaded));
      Alcotest.(check (option string)) "v2 tag echoed" (Some Protocol.schema_v2)
        (Json.get_string (member "schema" loaded));
      let handle = Option.get (Json.get_string (member "handle" loaded)) in
      Alcotest.(check string) "cold-load report = one-shot flow report" expected
        (Option.get (Json.get_string (member "report" loaded)));
      (* A primary-input slew edit dirties b0's cone (b0, o0) only. *)
      let delta_line =
        Json.to_string
          (Json.Obj
             [
               ("schema", Json.Str Protocol.schema_v2);
               ("kind", Json.Str "flow_delta");
               ("id", Json.Int 2);
               ("handle", Json.Str handle);
               ("slews_ps", Json.Obj [ ("b0", Json.Float 120.) ]);
             ])
      in
      let resp = send_spliced "flow_delta" delta_line in
      Alcotest.(check (option bool)) "delta ok" (Some true) (Json.get_bool (member "ok" resp));
      Alcotest.(check (option int)) "cone retimed" (Some 2)
        (Json.get_int (member "retimed_nets" resp));
      Alcotest.(check (option int)) "rest reused" (Some 6)
        (Json.get_int (member "reused_nets" resp));
      (* Byte-identity: the delta's report must equal a cold v1 flow of the
         edited sources, served by the same session. *)
      let edited_spec =
        String.concat "\n"
          (List.map
             (fun l -> if String.equal l "input b0 100" then "input b0 120" else l)
             (String.split_on_char '\n' (read_file bus8_spec)))
      in
      let cold_line =
        Json.to_string
          (Json.Obj
             [
               ("schema", Json.Str Protocol.schema);
               ("kind", Json.Str "flow");
               ("spef_file", Json.Str bus8_spef);
               ("spec", Json.Str edited_spec);
             ])
      in
      let cold, _ = send server cold_line in
      Alcotest.(check (option bool)) "cold edited flow ok" (Some true)
        (Json.get_bool (member "ok" cold));
      Alcotest.(check string) "delta report byte-identical to cold run"
        (Option.get (Json.get_string (member "report" cold)))
        (Option.get (Json.get_string (member "report" resp)));
      (* The stats response surfaces the design store for [top]. *)
      let stats, _ = send server {|{"schema":"rlc-service/2","kind":"stats"}|} in
      let designs = member "designs" stats in
      Alcotest.(check (option int)) "one resident design" (Some 1)
        (Json.get_int (member "handles" designs));
      Alcotest.(check (option int)) "nets held" (Some 8) (Json.get_int (member "nets" designs));
      Alcotest.(check (option int)) "no evictions" (Some 0)
        (Json.get_int (member "evictions" designs));
      (* An infinite driver size (1e999 parses as infinity) is refused
         before it reaches characterization, naming the field and net. *)
      let infinite, _ =
        send server
          ({|{"schema":"rlc-service/2","kind":"flow_delta","handle":"|} ^ handle
         ^ {|","drivers":{"o1":1e999}}|})
      in
      Alcotest.(check (option string)) "infinite size code" (Some "bad_request")
        (Json.get_string (member "code" (member "error" infinite)));
      Alcotest.(check (option string)) "infinite size names the field"
        (Some {|field "drivers": entry "o1" must be a finite positive number|})
        (Json.get_string (member "message" (member "error" infinite)));
      (* Unknown handles are typed rejections; unload frees the handle. *)
      let bad, _ =
        send server
          {|{"schema":"rlc-service/2","kind":"flow_delta","handle":"nope","slews_ps":{"b0":120}}|}
      in
      Alcotest.(check (option string)) "unknown handle" (Some "bad_request")
        (Json.get_string (member "code" (member "error" bad)));
      let unload_line =
        Json.to_string
          (Json.Obj
             [
               ("schema", Json.Str Protocol.schema_v2);
               ("kind", Json.Str "design_unload");
               ("handle", Json.Str handle);
             ])
      in
      let un, _ = send server unload_line in
      Alcotest.(check (option bool)) "unloaded" (Some true)
        (Json.get_bool (member "unloaded" un));
      let gone, _ = send server delta_line in
      Alcotest.(check (option string)) "delta after unload rejected" (Some "bad_request")
        (Json.get_string (member "code" (member "error" gone))))

(* A finite but absurd driver size is a bad request wherever a client
   names one -- a [screen] case, a [flow_delta] [drivers] entry -- and is
   refused before characterization: the characterization store counts no
   miss for it. *)
let test_server_absurd_sizes () =
  with_server (fun server ->
      let char_misses () =
        let m, _ = send server {|{"schema":"rlc-service/1","kind":"metrics"}|} in
        Option.get (Json.get_int (member "misses" (member "characterization" m)))
      in
      let loaded, _ = send server (design_load_request ()) in
      let handle = Option.get (Json.get_string (member "handle" loaded)) in
      let m0 = char_misses () in
      let refused what line =
        let resp, _ = send server line in
        Alcotest.(check (option string)) (what ^ " code") (Some "bad_request")
          (Json.get_string (member "code" (member "error" resp)))
      in
      List.iter
        (fun size ->
          refused ("screen at " ^ size)
            (Printf.sprintf
               {|{"schema":"rlc-service/1","kind":"screen","length_mm":5,"width_um":1.2,"size":%s}|}
               size);
          refused ("flow_delta drivers at " ^ size)
            (Printf.sprintf
               {|{"schema":"rlc-service/2","kind":"flow_delta","handle":"%s","drivers":{"o1":%s}}|}
               handle size))
        [ "1e6"; "1e300" ];
      Alcotest.(check int) "no characterization miss" m0 (char_misses ());
      (* The design is untouched: a valid edit still applies. *)
      let ok, _ =
        send server
          (Printf.sprintf
             {|{"schema":"rlc-service/2","kind":"flow_delta","handle":"%s","drivers":{"o1":75}}|}
             handle)
      in
      Alcotest.(check (option bool)) "a valid edit applies" (Some true)
        (Json.get_bool (member "ok" ok)))

let test_server_schema_echo () =
  (* Every response carries its request's schema tag — a v1 client sees
     exactly the bytes a v1-only daemon produced. *)
  with_server (fun server ->
      let v1, _ = send server {|{"schema":"rlc-service/1","kind":"ping","id":1}|} in
      Alcotest.(check (option string)) "v1 in, v1 out" (Some Protocol.schema)
        (Json.get_string (member "schema" v1));
      let v2, _ = send server {|{"schema":"rlc-service/2","kind":"ping","id":2}|} in
      Alcotest.(check (option string)) "v2 in, v2 out" (Some Protocol.schema_v2)
        (Json.get_string (member "schema" v2));
      (* Execution errors echo the tag too. *)
      let err, _ =
        send server
          {|{"schema":"rlc-service/2","kind":"flow_delta","handle":"d0","slews_ps":{"b0":120}}|}
      in
      Alcotest.(check (option bool)) "error response" (Some false)
        (Json.get_bool (member "ok" err));
      Alcotest.(check (option string)) "v2 tag on the error" (Some Protocol.schema_v2)
        (Json.get_string (member "schema" err)))

(* Full pipe transport: a second domain runs the serve loop on real file
   descriptors while this one plays client. *)
let test_server_pipe_mode () =
  with_default_session (fun session ->
      (* Timeouts disabled: the alarm handler must not fire in whichever
         domain OCaml picks while two are running. *)
      let server = Server.create ~timeout_s:0. session in
      let req_r, req_w = Unix.pipe ~cloexec:false () in
      let resp_r, resp_w = Unix.pipe ~cloexec:false () in
      let domain =
        Domain.spawn (fun () ->
            let ic = Unix.in_channel_of_descr req_r in
            let oc = Unix.out_channel_of_descr resp_w in
            Server.serve_channels server ic oc;
            close_in_noerr ic;
            close_out_noerr oc)
      in
      let oc = Unix.out_channel_of_descr req_w in
      let ic = Unix.in_channel_of_descr resp_r in
      List.iter
        (fun line ->
          output_string oc line;
          output_char oc '\n')
        [
          {|{"schema":"rlc-service/1","kind":"ping","id":1}|};
          "   ";
          "broken json";
          {|{"schema":"rlc-service/1","kind":"stats","id":2}|};
          {|{"schema":"rlc-service/1","kind":"shutdown","id":3}|};
        ];
      flush oc;
      let r1 = json_of (input_line ic) in
      let r2 = json_of (input_line ic) in
      let r3 = json_of (input_line ic) in
      let r4 = json_of (input_line ic) in
      Domain.join domain;
      close_out_noerr oc;
      close_in_noerr ic;
      Alcotest.(check (option int)) "ping id" (Some 1) (Json.get_int (member "id" r1));
      Alcotest.(check (option bool)) "broken line answered" (Some false)
        (Json.get_bool (member "ok" r2));
      Alcotest.(check (option int)) "stats id" (Some 2) (Json.get_int (member "id" r3));
      Alcotest.(check (option bool)) "shutdown acked" (Some true)
        (Json.get_bool (member "stopping" r4));
      Alcotest.(check bool) "loop stopped" true (Server.stopped server))

(* ------------------------------------------- unix socket transport *)

(* The socket tests drive [serve_unix] end to end: the listener runs in
   its own domain, worker domains execute requests, and the clients here
   speak the wire protocol over real AF_UNIX connections. *)

let temp_socket_path () = Filename.temp_file "rlc_service_test" ".sock"

(* The serve loop binds after the listener domain spawns; retry until it
   is there (ENOENT before the unlink+bind, ECONNREFUSED in between). *)
let connect_client path =
  let rec go tries =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    try
      Unix.connect fd (Unix.ADDR_UNIX path);
      fd
    with Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) when tries > 0 ->
      Unix.close fd;
      Unix.sleepf 0.02;
      go (tries - 1)
  in
  go 250

let client_channels path =
  let fd = connect_client path in
  (Unix.in_channel_of_descr fd, Unix.out_channel_of_descr fd)

(* Both channels share one descriptor, so it is closed once, through the
   output channel.  A second close could hit the same number just handed
   to another domain (a served [spef_file] read), failing that request
   with EBADF. *)
let close_client (_, oc) = close_out_noerr oc

let send_line oc line =
  output_string oc line;
  output_char oc '\n';
  flush oc

let roundtrip ic oc line =
  send_line oc line;
  input_line ic

let test_server_unix_concurrent () =
  (* jobs = 2 makes every served flow publish a batch to a shared pool
     that other requests are publishing to at the same time: concurrent
     masters, concurrent cache access, and per-connection ordering all in
     one test.  Each request names its own required time, so none is
     answered from the read memo and every one is timed.  The reports must
     still be byte-identical to the one-shot session path. *)
  let config = { Session.Config.default with Session.Config.jobs = 2 } in
  Session.with_session ~config (fun session ->
      let clients = 3 and per_client = 3 in
      let required id = float_of_int (100 + id) in
      let expected =
        let design =
          ok_or_fail
            (Session.ingest session ~spef:(read_file bus8_spef) ~spec:(read_file bus8_spec) ())
        in
        let report id =
          let req =
            { Session.Request.default with required = Some (Rlc_num.Units.ps (required id)) }
          in
          (id, (ok_or_fail (Session.flow session req design)).Session.report)
        in
        List.concat
          (List.init clients (fun cid -> List.init per_client (fun i -> report ((cid * 100) + i))))
      in
      let server = Server.create ~workers:2 ~queue_capacity:16 session in
      let path = temp_socket_path () in
      let serving = Domain.spawn (fun () -> Server.serve_unix server ~path) in
      (* Client domains only collect their replies: Alcotest's checks are
         not domain-safe, so they run here after the joins. *)
      let run_client cid =
        let ic, oc = client_channels path in
        let replies =
          List.init per_client (fun i ->
              let id = (cid * 100) + i in
              let extra = [ ("required_ps", Json.Float (required id)) ] in
              (cid, i, id, roundtrip ic oc (bus8_flow_request ~id ~extra ())))
        in
        close_client (ic, oc);
        replies
      in
      let domains = List.init clients (fun cid -> Domain.spawn (fun () -> run_client cid)) in
      let all = List.concat_map Domain.join domains in
      Alcotest.(check int) "all requests answered" (clients * per_client) (List.length all);
      List.iteri
        (fun k (cid, i, id, raw) ->
          let resp = json_of raw in
          Alcotest.(check (option bool))
            (Printf.sprintf "client %d request %d ok" cid i)
            (Some true)
            (Json.get_bool (member "ok" resp));
          (* One request in flight per connection: replies come back in
             request order, so the echoed id must match. *)
          Alcotest.(check (option int)) "id echoed in order" (Some id)
            (Json.get_int (member "id" resp));
          Alcotest.(check string)
            (Printf.sprintf "report %d byte-identical" k)
            (List.assoc id expected)
            (Option.get (Json.get_string (member "report" resp))))
        all;
      let ic, oc = client_channels path in
      let reads =
        member "reads" (json_of (roundtrip ic oc {|{"schema":"rlc-service/1","kind":"stats"}|}))
      in
      Alcotest.(check (list (option int))) "no read answered from the memo"
        [ Some 0; Some (clients * per_client) ]
        (List.map (fun f -> Json.get_int (member f reads)) [ "hits"; "misses" ]);
      (* A shutdown request over the socket stops the whole loop. *)
      let resp = json_of (roundtrip ic oc {|{"schema":"rlc-service/1","kind":"shutdown","id":99}|}) in
      Alcotest.(check (option bool)) "shutdown acked" (Some true)
        (Json.get_bool (member "stopping" resp));
      close_client (ic, oc);
      Domain.join serving;
      Alcotest.(check bool) "loop stopped" true (Server.stopped server);
      Alcotest.(check bool) "socket unlinked" false (Sys.file_exists path))

let test_server_unix_overload () =
  (* workers = 1, queue of 1: with one slow request executing and one
     queued, the third admission attempt must be rejected immediately
     with the wire-stable timeout code — and the daemon must survive all
     of it. *)
  with_default_session (fun session ->
      let server = Server.create ~workers:1 ~queue_capacity:1 session in
      let path = temp_socket_path () in
      let serving = Domain.spawn (fun () -> Server.serve_unix server ~path) in
      let slow_req id =
        Json.to_string
          (Json.Obj
             [
               ("schema", Json.Str Protocol.schema);
               ("kind", Json.Str "sweep_case");
               ("id", Json.Int id);
               ("timeout_ms", Json.Int 400);
               ("length_mm", Json.Float 7.);
               ("width_um", Json.Float 0.8);
               ("size", Json.Float 75.);
               ("dt_ps", Json.Float 0.05);
             ])
      in
      let a = client_channels path and b = client_channels path and c = client_channels path in
      send_line (snd a) (slow_req 1);
      Unix.sleepf 0.15 (* the worker picks request 1 up *);
      send_line (snd b) (slow_req 2) (* sits in the admission queue *);
      Unix.sleepf 0.05;
      let t0 = Unix.gettimeofday () in
      let resp_c = json_of (roundtrip (fst c) (snd c) (slow_req 3)) in
      let dt_c = Unix.gettimeofday () -. t0 in
      Alcotest.(check (option string)) "queue-full rejection is a typed timeout" (Some "timeout")
        (Json.get_string (member "code" (member "error" resp_c)));
      Alcotest.(check (option int)) "rejection echoes the id" (Some 3)
        (Json.get_int (member "id" resp_c));
      Alcotest.(check bool) "rejection is immediate, not queued" true (dt_c < 0.3);
      (* The in-flight and queued requests run out of budget (in the
         engine or while waiting) and come back as typed timeouts too. *)
      let resp_a = json_of (input_line (fst a)) in
      Alcotest.(check (option string)) "in-flight request times out" (Some "timeout")
        (Json.get_string (member "code" (member "error" resp_a)));
      let resp_b = json_of (input_line (fst b)) in
      Alcotest.(check (option string)) "queued request times out" (Some "timeout")
        (Json.get_string (member "code" (member "error" resp_b)));
      (* The daemon is still alive and its stats expose the server shape. *)
      let resp = json_of (roundtrip (fst c) (snd c) {|{"schema":"rlc-service/1","kind":"ping","id":4}|}) in
      Alcotest.(check (option bool)) "alive after overload" (Some true)
        (Json.get_bool (member "ok" resp));
      let stats = json_of (roundtrip (fst c) (snd c) {|{"schema":"rlc-service/1","kind":"stats","id":5}|}) in
      let srv = member "server" stats in
      Alcotest.(check (option int)) "stats: workers" (Some 1) (Json.get_int (member "workers" srv));
      Alcotest.(check (option int)) "stats: queue capacity" (Some 1)
        (Json.get_int (member "queue_capacity" srv));
      List.iter close_client [ a; b; c ];
      Server.stop server;
      Domain.join serving)

(* The same envelopes from the listener, which decodes socket lines
   itself. *)
let test_server_unix_failure_envelopes () =
  with_default_session (fun session ->
      let server = Server.create ~max_request_bytes:256 session in
      let path = temp_socket_path () in
      let serving = Domain.spawn (fun () -> Server.serve_unix server ~path) in
      let ic, oc = client_channels path in
      check_failure_envelopes (roundtrip ic oc);
      let resp = json_of (roundtrip ic oc {|{"schema":"rlc-service/1","kind":"ping","id":8}|}) in
      Alcotest.(check (option bool)) "alive after the failures" (Some true)
        (Json.get_bool (member "ok" resp));
      close_client (ic, oc);
      Server.stop server;
      Domain.join serving)

let test_server_unix_isolation () =
  (* Failures on one connection never leak into another: a client feeding
     garbage and bad requests interleaved with a healthy client. *)
  with_default_session (fun session ->
      let server = Server.create ~workers:2 ~queue_capacity:8 session in
      let path = temp_socket_path () in
      let serving = Domain.spawn (fun () -> Server.serve_unix server ~path) in
      let bad = client_channels path and good = client_channels path in
      let expect_code code line =
        let resp = json_of (roundtrip (fst bad) (snd bad) line) in
        Alcotest.(check (option string)) (code ^ " on bad connection") (Some code)
          (Json.get_string (member "code" (member "error" resp)))
      in
      expect_code "parse_error" "}{ garbage";
      let resp = json_of (roundtrip (fst good) (snd good) (bus8_flow_request ~id:1 ())) in
      Alcotest.(check (option bool)) "good client unaffected" (Some true)
        (Json.get_bool (member "ok" resp));
      expect_code "bad_request" {|{"schema":"rlc-service/1","kind":"frobnicate"}|};
      expect_code "bad_request"
        {|{"schema":"rlc-service/1","kind":"flow","spef_file":"../examples/no_such.spef"}|};
      let resp = json_of (roundtrip (fst good) (snd good) (bus8_flow_request ~id:2 ())) in
      Alcotest.(check (option bool)) "good client still served" (Some true)
        (Json.get_bool (member "ok" resp));
      (* An abruptly dropped connection is cleaned up without killing the loop. *)
      close_client bad;
      let resp = json_of (roundtrip (fst good) (snd good) {|{"schema":"rlc-service/1","kind":"ping","id":3}|}) in
      Alcotest.(check (option bool)) "survives dropped peer" (Some true)
        (Json.get_bool (member "ok" resp));
      close_client good;
      Server.stop server;
      Domain.join serving)

(* Robustness of the multi-piece write.  A client that closes right after
   sending a flow costs only its own connection: its answer, a read-memo
   hit written piece by piece, meets a closed peer, and the next client
   is answered. *)
let test_server_unix_close_after_send () =
  with_default_session (fun session ->
      let server = Server.create ~workers:1 session in
      let path = temp_socket_path () in
      let serving = Domain.spawn (fun () -> Server.serve_unix server ~path) in
      let first = client_channels path in
      let expected = report_of (json_of (roundtrip (fst first) (snd first) (bus8_flow_request ()))) in
      (* Cold, then warm and stored. *)
      ignore (roundtrip (fst first) (snd first) (bus8_flow_request ()));
      close_client first;
      for _ = 1 to 3 do
        let gone = client_channels path in
        send_line (snd gone) (bus8_flow_request ());
        close_client gone
      done;
      let next = client_channels path in
      let resp = json_of (roundtrip (fst next) (snd next) (bus8_flow_request ~id:5 ())) in
      Alcotest.(check (option int)) "next client answered" (Some 5)
        (Json.get_int (member "id" resp));
      Alcotest.(check string) "with the report" expected (report_of resp);
      close_client next;
      Server.stop server;
      Domain.join serving)

(* A client that sends a flow and then half-closes its connection
   ([SHUTDOWN_SEND]) reads exactly one complete answer and then end of
   file; the request counts as served, and the next client is answered. *)
let test_server_unix_half_close () =
  with_default_session (fun session ->
      let server = Server.create ~workers:1 session in
      let path = temp_socket_path () in
      let serving = Domain.spawn (fun () -> Server.serve_unix server ~path) in
      let other = client_channels path in
      let served () =
        let stats =
          json_of (roundtrip (fst other) (snd other) {|{"schema":"rlc-service/1","kind":"stats"}|})
        in
        Option.get (Json.get_int (member "requests_served" stats))
      in
      let served0 = served () in
      let fd = connect_client path in
      let line = bus8_flow_request ~id:7 () ^ "\n" in
      ignore (Unix.write_substring fd line 0 (String.length line));
      Unix.shutdown fd Unix.SHUTDOWN_SEND;
      let received = Buffer.create 65536 and chunk = Bytes.create 65536 in
      let rec drain () =
        match Unix.select [ fd ] [] [] 60. with
        | [], _, _ -> Alcotest.fail "no end of file within 60 s"
        | _ ->
            let n = Unix.read fd chunk 0 (Bytes.length chunk) in
            if n > 0 then begin
              Buffer.add_subbytes received chunk 0 n;
              drain ()
            end
      in
      drain ();
      Unix.close fd;
      let text = Buffer.contents received in
      (match String.index_opt text '\n' with
      | Some i when i = String.length text - 1 ->
          let resp = json_of (String.sub text 0 i) in
          Alcotest.(check (option int)) "its answer" (Some 7) (Json.get_int (member "id" resp));
          Alcotest.(check (option bool)) "ok" (Some true) (Json.get_bool (member "ok" resp));
          ignore (report_of resp)
      | _ -> Alcotest.failf "expected one complete line before end of file, got %S" text);
      Alcotest.(check int) "the flow and the first stats counted as served" (served0 + 2)
        (served ());
      let next = client_channels path in
      let resp =
        json_of (roundtrip (fst next) (snd next) {|{"schema":"rlc-service/1","kind":"ping","id":8}|})
      in
      Alcotest.(check (option int)) "next client answered" (Some 8) (Json.get_int (member "id" resp));
      close_client next;
      close_client other;
      Server.stop server;
      Domain.join serving)

(* A client that trickles its request one byte at a time is answered once
   its newline arrives, and not before. *)
let test_server_unix_trickle () =
  with_default_session (fun session ->
      let server = Server.create ~workers:1 session in
      let path = temp_socket_path () in
      let serving = Domain.spawn (fun () -> Server.serve_unix server ~path) in
      let warm = client_channels path in
      let expected = report_of (json_of (roundtrip (fst warm) (snd warm) (bus8_flow_request ()))) in
      close_client warm;
      let fd = connect_client path in
      let line = bus8_flow_request ~id:9 () in
      String.iter
        (fun c ->
          ignore (Unix.write_substring fd (String.make 1 c) 0 1);
          Unix.sleepf 0.001)
        line;
      let answered, _, _ = Unix.select [ fd ] [] [] 0.2 in
      Alcotest.(check int) "no answer before the newline" 0 (List.length answered);
      ignore (Unix.write_substring fd "\n" 0 1);
      let ic = Unix.in_channel_of_descr fd in
      let resp = json_of (input_line ic) in
      Alcotest.(check (option int)) "answered" (Some 9) (Json.get_int (member "id" resp));
      Alcotest.(check string) "with the report" expected (report_of resp);
      close_in_noerr ic;
      Server.stop server;
      Domain.join serving)

(* Bytes allocated in the whole process per read-memo hit on the socket
   path, and the answer's report size: the sources go in two fresh files,
   a client that allocates nothing itself sends batches of 100 hits, and a
   stop-the-world minor collection before and after each batch makes the
   Gc counters cover every domain. *)
let hit_alloc (spef_src, spec_src) =
  let spef = Filename.temp_file "rlc_memo" ".spef" and spec = Filename.temp_file "rlc_memo" ".spec" in
  write_file spef spef_src;
  write_file spec spec_src;
  Fun.protect ~finally:(fun () -> List.iter Sys.remove [ spef; spec ]) @@ fun () ->
  with_default_session (fun session ->
      let server = Server.create ~workers:1 session in
      let path = temp_socket_path () in
      let serving = Domain.spawn (fun () -> Server.serve_unix server ~path) in
      let fd = connect_client path in
      let line =
        Bytes.of_string
          (read_request [ ("spef_file", Json.Str spef); ("spec_file", Json.Str spec) ] ^ "\n")
      in
      let buf = Bytes.create (1 lsl 20) in
      (* One round trip; the answer's length, newline included. *)
      let roundtrip () =
        let sent = ref 0 in
        while !sent < Bytes.length line do
          sent := !sent + Unix.write fd line !sent (Bytes.length line - !sent)
        done;
        let len = ref 0 and complete = ref false in
        while not !complete do
          let n = Unix.read fd buf !len (Bytes.length buf - !len) in
          if n = 0 then failwith "the daemon closed the connection";
          len := !len + n;
          complete := Bytes.get buf (!len - 1) = '\n'
        done;
        !len
      in
      (* The first round trip runs cold; the second runs warm and is
         stored, and every later one is a hit. *)
      let first = roundtrip () in
      let report = String.length (report_of (json_of (Bytes.sub_string buf 0 (first - 1)))) in
      let hit = roundtrip () in
      let words () =
        Gc.minor ();
        let s = Gc.quick_stat () in
        s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words
      in
      (* The fewest words of three batches: the select loop's own
         allocation varies with how each round trip interleaves, and that
         only ever adds. *)
      let hits = 100 and batches = 3 in
      let batch () =
        let before = words () in
        for _ = 1 to hits do
          if roundtrip () <> hit then Alcotest.fail "a hit's answer changed length"
        done;
        (words () -. before) /. float_of_int hits
      in
      let per_hit = List.fold_left Float.min infinity (List.init batches (fun _ -> batch ())) in
      Unix.close fd;
      Server.stop server;
      Domain.join serving;
      check_reads "the hits" (batches * hits, 2, 1) server;
      (per_hit *. float_of_int (Sys.word_size / 8), report))

(* A hit on the socket workers' path allocates nothing that grows with
   its answer: the files stream through the worker's buffer and the
   stored body is written as it is.  A 512-net bus's hits allocate, over
   bus8's, less than 1 % of the 512-net report.  Both request lines have
   the same length, so the transport's own work per request (the
   listener's decode of the line, the queue, the select loop) is the same
   in both and cancels. *)
let test_server_unix_hit_alloc () =
  let bus =
    {
      bits = 256;
      segs = 8;
      tails = false;
      coupled = false;
      xtalk = false;
      jobs = 1;
      jitter = Array.make 512 1.;
      deltas = [];
    }
  in
  let small, small_report = hit_alloc (read_file bus8_spef, read_file bus8_spec) in
  let large, report = hit_alloc (sources bus) in
  Alcotest.(check bool)
    (Printf.sprintf
       "a hit allocates %.0f bytes on the %d-byte report, %.0f on bus8's %d: the difference is under 1 %%"
       large report small small_report)
    true
    (large -. small < 0.01 *. float_of_int report)

(* --------------------------------------------------------- telemetry *)

(* Hand-rolled check of the Prometheus text exposition: every line is
   either # HELP / # TYPE metadata with a known type, or a
   [name{labels} value] sample with a parseable value.  Returns the
   samples in document order, keyed by name-with-labels. *)
let validate_prometheus text =
  let samples = ref [] in
  List.iter
    (fun line ->
      if String.equal line "" then ()
      else if line.[0] = '#' then (
        match String.split_on_char ' ' line with
        | "#" :: kw :: name :: rest when kw = "HELP" || kw = "TYPE" ->
            Alcotest.(check bool) ("metadata payload: " ^ line) true (rest <> []);
            if String.equal kw "TYPE" then
              Alcotest.(check bool)
                ("known type for " ^ name)
                true
                (match rest with
                | [ t ] -> List.mem t [ "counter"; "gauge"; "histogram" ]
                | _ -> false)
        | _ -> Alcotest.fail ("bad metadata line: " ^ line))
      else
        match String.index_opt line ' ' with
        | None -> Alcotest.fail ("bad sample line: " ^ line)
        | Some i -> (
            let name = String.sub line 0 i in
            let value = String.sub line (i + 1) (String.length line - i - 1) in
            match float_of_string_opt value with
            | Some v -> samples := (name, v) :: !samples
            | None -> Alcotest.fail ("unparseable sample value: " ^ line)))
    (String.split_on_char '\n' text);
  List.rev !samples

let prom_sample samples name =
  match List.assoc_opt name samples with
  | Some v -> v
  | None -> Alcotest.fail ("missing prometheus sample " ^ name)

let test_server_metrics_prometheus () =
  (* Transport-free: tick_period_s = 0 records a window sample at the top
     of every handle_line, so the metrics/health bodies are exercised
     without a socket or a ticker race. *)
  let obs = Rlc_obs.Obs.create () in
  let config = { Session.Config.default with Session.Config.obs } in
  Session.with_session ~config (fun session ->
      let server = Server.create ~timeout_s:0. ~tick_period_s:0. session in
      let handle line = fst (Server.handle_line server line) in
      let ok what resp =
        let j = json_of resp in
        Alcotest.(check (option bool)) (what ^ " ok") (Some true)
          (Json.get_bool (member "ok" j));
        j
      in
      ignore (ok "ping" (handle {|{"schema":"rlc-service/1","kind":"ping","id":1}|}));
      ignore (ok "flow" (handle (bus8_flow_request ~id:2 ())));
      ignore (ok "flow" (handle (bus8_flow_request ~id:3 ())));
      let stats = ok "stats" (handle {|{"schema":"rlc-service/1","kind":"stats","id":4}|}) in
      (* Per-shard cache stats must reconcile with the aggregate. *)
      let cache = member "cache" stats in
      let shards =
        match member "shards" cache with
        | Json.List l -> l
        | _ -> Alcotest.fail "cache.shards is not a list"
      in
      Alcotest.(check bool) "shards present" true (shards <> []);
      let shard_sum f =
        List.fold_left (fun acc s -> acc + Option.get (Json.get_int (member f s))) 0 shards
      in
      List.iter
        (fun f ->
          Alcotest.(check (option int))
            ("shard " ^ f ^ " reconcile")
            (Some (shard_sum f))
            (Json.get_int (member f cache)))
        [ "entries"; "hits"; "misses" ];
      (* Metrics: exact totals from the session atomics (the 4 requests
         above; the metrics request itself is not yet finished), per-kind
         counters from the freshest window sample. *)
      let m = ok "metrics" (handle {|{"schema":"rlc-service/1","kind":"metrics","id":5}|}) in
      let totals = member "totals" m in
      Alcotest.(check (option int)) "served reconciles" (Some 4)
        (Json.get_int (member "served" totals));
      Alcotest.(check (option int)) "none failed" (Some 0)
        (Json.get_int (member "failed" totals));
      let kinds = member "kinds" m in
      Alcotest.(check (option int)) "flow kind total" (Some 2)
        (Json.get_int (member "flow" kinds));
      Alcotest.(check (option int)) "ping kind total" (Some 1)
        (Json.get_int (member "ping" kinds));
      Alcotest.(check bool) "window block present" true
        (Json.member "window" m <> None);
      (* The Prometheus exposition parses line by line and reconciles. *)
      let text = Option.get (Json.get_string (member "prometheus" m)) in
      let samples = validate_prometheus text in
      Alcotest.(check (float 0.)) "prom ok requests" 4.
        (prom_sample samples {|service_requests_total{outcome="ok"}|});
      Alcotest.(check (float 0.)) "prom error requests" 0.
        (prom_sample samples {|service_requests_total{outcome="error"}|});
      Alcotest.(check (float 0.)) "prom up" 1. (prom_sample samples "service_up");
      Alcotest.(check (float 0.)) "prom kind flow" 2.
        (prom_sample samples {|service_requests_kind_total{kind="flow"}|});
      (* Every cache block carries the same five fields, and each matches
         its Prometheus series. *)
      let five = [ "entries"; "capacity"; "hits"; "misses"; "evictions" ] in
      List.iter
        (fun (block, prom) ->
          let b = member block m in
          List.iter
            (fun f ->
              let v =
                match Json.get_int (member f b) with
                | Some v -> v
                | None -> Alcotest.failf "%s.%s is not an integer" block f
              in
              let series =
                Printf.sprintf "service_%s_%s%s" prom f
                  (if f = "entries" || f = "capacity" then "" else "_total")
              in
              Alcotest.(check (float 0.)) (series ^ " = " ^ block ^ "." ^ f) (float_of_int v)
                (prom_sample samples series))
            five)
        [ ("cache", "cache"); ("characterization", "char"); ("handles", "handle");
          ("designs", "designs"); ("reads", "reads") ];
      (* The first flow ran on a cold Ceff cache and was not stored in the
         read memo; the second ran warm and was.  The block adds the bytes
         it holds. *)
      let reads = member "reads" m in
      Alcotest.(check (list (option int))) "reads hits, misses, entries"
        [ Some 0; Some 2; Some 1 ]
        (List.map (fun f -> Json.get_int (member f reads)) [ "hits"; "misses"; "entries" ]);
      Alcotest.(check bool) "reads hold bytes" true
        (Option.get (Json.get_int (member "bytes" reads)) > 0);
      Alcotest.(check (float 0.)) "service_reads_bytes = reads.bytes"
        (float_of_int (Option.get (Json.get_int (member "bytes" reads))))
        (prom_sample samples "service_reads_bytes");
      List.iter
        (fun block ->
          List.iter
            (fun f ->
              Alcotest.(check bool) ("stats " ^ block ^ "." ^ f) true
                (Json.get_int (member f (member block stats)) <> None))
            five)
        [ "cache"; "designs"; "reads" ];
      (* Histogram buckets are cumulative and capped by +Inf == _count. *)
      let buckets =
        List.filter
          (fun (n, _) ->
            String.length n >= 31
            && String.equal (String.sub n 0 31) "service_request_seconds_bucket{")
          samples
      in
      Alcotest.(check bool) "request histogram emitted" true (buckets <> []);
      let prev = ref 0. in
      List.iter
        (fun (n, v) ->
          Alcotest.(check bool) ("cumulative: " ^ n) true (v >= !prev);
          prev := v)
        buckets;
      Alcotest.(check (float 0.)) "+Inf equals _count"
        (prom_sample samples "service_request_seconds_count")
        (prom_sample samples {|service_request_seconds_bucket{le="+Inf"}|});
      (* Health on an idle, open daemon: alive and ready. *)
      let h = ok "health" (handle {|{"schema":"rlc-service/1","kind":"health","id":6}|}) in
      Alcotest.(check (option bool)) "alive" (Some true) (Json.get_bool (member "alive" h));
      Alcotest.(check (option bool)) "ready" (Some true) (Json.get_bool (member "ready" h));
      (* Telemetry scrapes stay out of the window's latency histogram: the
         sample behind this second metrics request covers requests 1-6, but
         the metrics (5) and health (6) scrapes must not have fed
         service.request_s — only ping, the two flows, and stats. They do
         count in the per-kind counters and the exact session totals. *)
      let m2 = ok "metrics" (handle {|{"schema":"rlc-service/1","kind":"metrics","id":7}|}) in
      let samples2 =
        validate_prometheus (Option.get (Json.get_string (member "prometheus" m2)))
      in
      Alcotest.(check (float 0.)) "scrapes excluded from latency histogram" 4.
        (prom_sample samples2 "service_request_seconds_count");
      Alcotest.(check (float 0.)) "scrapes still in per-kind counters" 1.
        (prom_sample samples2 {|service_requests_kind_total{kind="metrics"}|});
      Alcotest.(check (option int)) "scrapes still in exact totals" (Some 6)
        (Json.get_int (member "served" (member "totals" m2))))

let test_server_unix_telemetry () =
  (* The full transport with tracing on: jobs = 2 so flow spans are
     recorded on pool worker domains (the trace id must cross domains via
     the batch), slow_ms = 0 so every request writes a slow-log line. *)
  let obs = Rlc_obs.Obs.create () in
  let config = { Session.Config.default with Session.Config.jobs = 2; obs } in
  let slow_path = Filename.temp_file "rlc_service_slow" ".ndjson" in
  let slow_oc = open_out slow_path in
  Session.with_session ~config (fun session ->
      let server =
        Server.create ~workers:2 ~queue_capacity:16 ~slow_ms:0. ~slow_channel:slow_oc
          ~tick_period_s:0.01 session
      in
      let path = temp_socket_path () in
      let serving = Domain.spawn (fun () -> Server.serve_unix server ~path) in
      (* Client domains only collect their replies: Alcotest's checks are
         not domain-safe, so they run here after the joins. *)
      (* Each of the four flows names its own required time, so each is
         timed (and traced) rather than answered from the read memo. *)
      let flow cid i =
        bus8_flow_request ~id:((cid * 10) + i)
          ~extra:[ ("required_ps", Json.Float (float_of_int (100 + (cid * 10) + i))) ]
          ()
      in
      let run_client cid =
        let ((ic, oc) as cl) = client_channels path in
        let replies = List.init 2 (fun i -> (cid, i, roundtrip ic oc (flow cid i))) in
        close_client cl;
        replies
      in
      let domains = List.init 2 (fun cid -> Domain.spawn (fun () -> run_client cid)) in
      List.iter
        (fun (cid, i, raw) ->
          let resp = json_of raw in
          let ok = Json.get_bool (member "ok" resp) in
          (* A failed response carries its id and error: keep them in the
             failure message. *)
          let why =
            if ok = Some true then ""
            else
              let field obj f = Option.bind obj (Json.member f) in
              let text = function Some j -> Json.to_string j | None -> "-" in
              let err = Json.member "error" resp in
              Printf.sprintf " (request id %s, error %s: %s)" (text (Json.member "id" resp))
                (text (field err "code")) (text (field err "message"))
          in
          Alcotest.(check (option bool))
            (Printf.sprintf "client %d flow %d ok%s" cid i why)
            (Some true) ok)
        (List.concat_map Domain.join domains);
      let ((ic, oc) as cl) = client_channels path in
      (* A fifth flow with a required time of its own runs on the warm
         Ceff cache, so the read memo stores it; a sixth repeats it and is
         a read-memo hit. *)
      List.iter
        (fun what ->
          Alcotest.(check (option bool)) (what ^ " ok") (Some true)
            (Json.get_bool (member "ok" (json_of (roundtrip ic oc (flow 2 0))))))
        [ "fifth flow"; "repeated fifth flow" ];
      let h = json_of (roundtrip ic oc {|{"schema":"rlc-service/1","kind":"health","id":50}|}) in
      Alcotest.(check (option bool)) "healthy after traffic" (Some true)
        (Json.get_bool (member "ready" h));
      let m = json_of (roundtrip ic oc {|{"schema":"rlc-service/1","kind":"metrics","id":51}|}) in
      (* 6 flows + the health request have finished; exact reconciliation. *)
      Alcotest.(check (option int)) "served over socket reconciles" (Some 7)
        (Json.get_int (member "served" (member "totals" m)));
      Alcotest.(check (option int)) "no failures" (Some 0)
        (Json.get_int (member "failed" (member "totals" m)));
      close_client cl;
      Server.stop server;
      Domain.join serving);
  close_out_noerr slow_oc;
  (* Every request logged one single-line JSON record with the trace id. *)
  let slow_lines =
    let ic = open_in slow_path in
    let rec go acc =
      match input_line ic with line -> go (line :: acc) | exception End_of_file -> acc
    in
    let lines = List.rev (go []) in
    close_in ic;
    lines
  in
  Sys.remove slow_path;
  Alcotest.(check bool) "slow log covers all requests" true (List.length slow_lines >= 8);
  let slow_traces =
    List.map
      (fun line ->
        let j = json_of line in
        Alcotest.(check (option bool)) "slow_request marker" (Some true)
          (Json.get_bool (member "slow_request" j));
        List.iter
          (fun f -> Alcotest.(check bool) ("slow field " ^ f) true (Json.member f j <> None))
          [
            "trace";
            "kind";
            "queue_wait_ms";
            "wall_ms";
            "ok";
            "worker";
            "ingest_ms";
            "render_ms";
            "encode_ms";
          ];
        (* The split is the daemon's own share of the request's wall time;
           a flow ingests, renders and encodes. *)
        let ms f = Option.get (Json.get_float (member f j)) in
        Alcotest.(check bool) "split within wall time" true
          (ms "ingest_ms" +. ms "render_ms" +. ms "encode_ms" <= ms "wall_ms");
        (* A timed flow ingests, renders and encodes; a read-memo hit does
           none of them. *)
        if Json.get_string (member "kind" j) = Some "flow" then begin
          let memo = Option.get (Json.get_bool (member "memo" j)) in
          List.iter
            (fun f ->
              Alcotest.(check bool)
                (Printf.sprintf "flow %s %s" f (if memo then "= 0 on a hit" else "> 0"))
                true
                (if memo then ms f = 0. else ms f > 0.))
            [ "ingest_ms"; "render_ms"; "encode_ms" ]
        end;
        Option.get (Json.get_string (member "trace" j)))
      slow_lines
  in
  let hit_traces =
    List.filter_map
      (fun line ->
        let j = json_of line in
        if Json.member "memo" j = Some (Json.Bool true) then Json.get_string (member "trace" j)
        else None)
      slow_lines
  in
  Alcotest.(check int) "one read-memo hit" 1 (List.length hit_traces);
  Alcotest.(check int) "slow-log trace ids distinct"
    (List.length slow_traces)
    (List.length (List.sort_uniq compare slow_traces));
  (* Span-level tracing: one distinct trace per executed request, and the
     flow.net spans recorded on pool worker domains carry the trace of the
     request that spawned them. *)
  let spans = (Rlc_obs.Obs.snapshot obs).Rlc_obs.Obs.m_spans in
  let traces_of name =
    List.filter_map
      (fun sp ->
        if String.equal sp.Rlc_obs.Obs.sp_name name then
          List.assoc_opt "trace" sp.Rlc_obs.Obs.sp_args
        else None)
      spans
  in
  let request_traces = traces_of "service.request" in
  Alcotest.(check bool) "request spans recorded" true (List.length request_traces >= 8);
  Alcotest.(check int) "request traces distinct"
    (List.length request_traces)
    (List.length (List.sort_uniq compare request_traces));
  let net_traces = List.sort_uniq compare (traces_of "flow.net") in
  Alcotest.(check int) "one trace per timed flow request" 5 (List.length net_traces);
  List.iter
    (fun tr ->
      Alcotest.(check bool) ("the hit is a request: " ^ tr) true (List.mem tr request_traces);
      Alcotest.(check bool) ("the hit times no net: " ^ tr) false (List.mem tr net_traces))
    hit_traces;
  (* Each flow request's own layers run as spans under its trace. *)
  List.iter
    (fun layer ->
      List.iter
        (fun tr ->
          Alcotest.(check bool) (Printf.sprintf "%s span in %s" layer tr) true
            (List.mem tr (traces_of layer)))
        net_traces)
    [ "design.ingest"; "report.render"; "service.encode" ];
  List.iter
    (fun tr ->
      Alcotest.(check bool) ("flow trace is a request trace: " ^ tr) true
        (List.mem tr request_traces))
    net_traces

let test_server_unix_health_saturation () =
  (* Readiness must flip under queue saturation while metrics stays
     responsive (both are answered inline by the listener, never queued).
     Obs stays disabled: the queue-depth gauge drives the check. *)
  with_default_session (fun session ->
      let server = Server.create ~workers:1 ~queue_capacity:1 session in
      let path = temp_socket_path () in
      let serving = Domain.spawn (fun () -> Server.serve_unix server ~path) in
      let slow_req id =
        Json.to_string
          (Json.Obj
             [
               ("schema", Json.Str Protocol.schema);
               ("kind", Json.Str "sweep_case");
               ("id", Json.Int id);
               ("timeout_ms", Json.Int 400);
               ("length_mm", Json.Float 7.);
               ("width_um", Json.Float 0.8);
               ("size", Json.Float 75.);
               ("dt_ps", Json.Float 0.05);
             ])
      in
      let a = client_channels path and b = client_channels path and c = client_channels path in
      send_line (snd a) (slow_req 1);
      Unix.sleepf 0.15 (* the worker picks request 1 up *);
      send_line (snd b) (slow_req 2) (* fills the queue: depth = high water = 1 *);
      Unix.sleepf 0.05;
      let h = json_of (roundtrip (fst c) (snd c) {|{"schema":"rlc-service/1","kind":"health","id":3}|}) in
      Alcotest.(check (option bool)) "alive while saturated" (Some true)
        (Json.get_bool (member "alive" h));
      Alcotest.(check (option bool)) "not ready while saturated" (Some false)
        (Json.get_bool (member "ready" h));
      Alcotest.(check (option bool)) "queue check failed" (Some false)
        (Json.get_bool (member "queue_ok" (member "checks" h)));
      (* Metrics is served inline too — the saturated queue can't block it. *)
      let m = json_of (roundtrip (fst c) (snd c) {|{"schema":"rlc-service/1","kind":"metrics","id":4}|}) in
      Alcotest.(check (option int)) "metrics sees the queued request" (Some 1)
        (Json.get_int (member "queue_depth" (member "server" m)));
      (* Both slow requests exhaust their budgets; readiness recovers. *)
      ignore (input_line (fst a));
      ignore (input_line (fst b));
      let h2 = json_of (roundtrip (fst c) (snd c) {|{"schema":"rlc-service/1","kind":"health","id":5}|}) in
      Alcotest.(check (option bool)) "ready after drain" (Some true)
        (Json.get_bool (member "ready" h2));
      List.iter close_client [ a; b; c ];
      Server.stop server;
      Domain.join serving)

let () =
  Alcotest.run "rlc_service"
    [
      ( "json",
        [
          Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "escapes" `Quick test_json_escapes;
          Alcotest.test_case "errors" `Quick test_json_errors;
          Alcotest.test_case "floats" `Quick test_json_floats;
          QCheck_alcotest.to_alcotest prop_json_strings;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "kinds" `Quick test_protocol_kinds;
          Alcotest.test_case "v2 kinds" `Quick test_protocol_v2_kinds;
          Alcotest.test_case "rejections" `Quick test_protocol_rejections;
          Alcotest.test_case "dt_ps must be finite" `Quick test_protocol_dt_finite;
          Alcotest.test_case "case geometry must be finite" `Quick test_protocol_case_finite;
          Alcotest.test_case "sizes and slews must be finite" `Quick test_protocol_sizes_finite;
          Alcotest.test_case "responses" `Quick test_protocol_responses;
          QCheck_alcotest.to_alcotest prop_ok_split;
        ] );
      ( "errors",
        [
          Alcotest.test_case "parse_res positions" `Quick test_parse_res_positions;
          Alcotest.test_case "deadline" `Quick test_deadline;
        ] );
      ( "session",
        [
          Alcotest.test_case "flow and cache" `Quick test_session_flow_and_cache;
          Alcotest.test_case "ingest errors" `Quick test_session_ingest_errors;
          Alcotest.test_case "case ops" `Quick test_session_case_ops;
          Alcotest.test_case "characterizes on its own pool" `Quick
            test_session_characterizes_on_own_pool;
          Alcotest.test_case "design store" `Quick test_session_design_store;
          Alcotest.test_case "deltas keep the cache size" `Quick test_session_delta_cache;
        ] );
      ( "incremental reuse",
        [
          QCheck_alcotest.to_alcotest prop_reuse;
          Alcotest.test_case "dangling couplings re-attach" `Quick test_reuse_dangling;
          Alcotest.test_case "1-net delta re-solves a tenth of the load" `Quick test_delta_work;
        ] );
      ( "server",
        [
          Alcotest.test_case "flow warmth" `Quick test_server_flow_warmth;
          Alcotest.test_case "report byte-identical" `Quick test_server_report_byte_identical;
          Alcotest.test_case "isolation" `Quick test_server_isolation;
          Alcotest.test_case "oversized" `Quick test_server_oversized;
          Alcotest.test_case "timeout" `Quick test_server_timeout;
          Alcotest.test_case "flow kinds stop on their budget" `Quick
            test_server_flow_kinds_timeout;
          Alcotest.test_case "failures echo the envelope" `Quick test_server_failure_envelopes;
          Alcotest.test_case "shutdown control" `Quick test_server_shutdown_control;
          Alcotest.test_case "repeated reads are hits" `Quick test_server_read_hits;
          Alcotest.test_case "use_cache false bypasses the read memo" `Quick
            test_server_read_no_cache;
          Alcotest.test_case "a rewritten file is read again" `Quick test_server_read_rewrite;
          Alcotest.test_case "a deleted file answers as before" `Quick test_server_read_deleted;
          Alcotest.test_case "an answer over the byte bound is not stored" `Quick
            test_server_read_over_bound;
          Alcotest.test_case "design lifecycle" `Quick test_server_design_lifecycle;
          Alcotest.test_case "absurd driver sizes are refused" `Quick test_server_absurd_sizes;
          Alcotest.test_case "schema echo" `Quick test_server_schema_echo;
          Alcotest.test_case "pipe mode" `Quick test_server_pipe_mode;
        ] );
      ( "server unix",
        [
          Alcotest.test_case "concurrent clients" `Quick test_server_unix_concurrent;
          Alcotest.test_case "overload rejection" `Quick test_server_unix_overload;
          Alcotest.test_case "cross-connection isolation" `Quick test_server_unix_isolation;
          Alcotest.test_case "a client gone after sending" `Quick
            test_server_unix_close_after_send;
          Alcotest.test_case "a trickled request" `Quick test_server_unix_trickle;
          Alcotest.test_case "a hit allocates under 1 % of its report" `Quick
            test_server_unix_hit_alloc;
          Alcotest.test_case "failures echo the envelope" `Quick
            test_server_unix_failure_envelopes;
          Alcotest.test_case "a half-closed client" `Quick test_server_unix_half_close;
        ] );
      ( "telemetry",
        [
          Alcotest.test_case "metrics and prometheus" `Quick test_server_metrics_prometheus;
          Alcotest.test_case "tracing and slow log" `Quick test_server_unix_telemetry;
          Alcotest.test_case "health under saturation" `Quick test_server_unix_health_saturation;
        ] );
    ]
