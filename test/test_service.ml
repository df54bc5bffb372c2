(* Rlc_service tests: the JSON codec, the wire protocol, the session API,
   per-request isolation/timeout in the server, cross-request cache warmth,
   and byte-identity of served flow reports with the one-shot CLI path. *)

module Json = Rlc_service.Json
module Protocol = Rlc_service.Protocol
module Session = Rlc_service.Session
module Server = Rlc_service.Server
module Error = Rlc_service.Error

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
    [ ""; "{"; "[1,"; "nul"; "1."; "-"; "\"abc"; "{\"a\" 1}"; "[1] trailing"; "01x"; "\"\\q\"" ]

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

let parse_req line = Protocol.parse_request line

let test_protocol_kinds () =
  (* Every kind parses; ids and timeouts are carried through. *)
  (match parse_req {|{"schema":"rlc-service/1","kind":"ping","id":7,"timeout_ms":500}|} with
  | Ok { Protocol.id = Some (Json.Int 7); timeout_ms = Some 500; kind = Protocol.Ping; schema }
    ->
      Alcotest.(check string) "schema recorded" Protocol.schema schema
  | Ok _ -> Alcotest.fail "ping fields"
  | Error e -> Alcotest.fail (Error.to_string e));
  (match parse_req {|{"schema":"rlc-service/1","kind":"stats"}|} with
  | Ok { Protocol.kind = Protocol.Stats; id = None; timeout_ms = None; _ } -> ()
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
  (match parse_req {|{"schema":"rlc-service/2","kind":"ping"}|} with
  | Ok { Protocol.kind = Protocol.Ping; schema; _ } ->
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
    (Protocol.parse_request ~max_bytes:16 {|{"schema":"rlc-service/1","kind":"ping"}|})

let test_protocol_responses () =
  let ok = Protocol.ok_response ~id:(Json.Int 3) [ ("pong", Json.Bool true) ] in
  let j = json_of ok in
  Alcotest.(check string) "schema" Protocol.schema (Option.get (Json.get_string (member "schema" j)));
  Alcotest.(check (option int)) "id echoed" (Some 3) (Json.get_int (member "id" j));
  Alcotest.(check (option bool)) "ok" (Some true) (Json.get_bool (member "ok" j));
  Alcotest.(check bool) "one line" false (String.contains ok '\n');
  let err = Protocol.error_response (Error.Timeout 1.5) in
  let j = json_of err in
  Alcotest.(check (option bool)) "not ok" (Some false) (Json.get_bool (member "ok" j));
  let e = member "error" j in
  Alcotest.(check (option string)) "code" (Some "timeout") (Json.get_string (member "code" e));
  Alcotest.(check bool) "message mentions budget" true
    (Option.get (Json.get_string (member "message" e)) <> "");
  (* Responses carry whichever schema tag the builder is given. *)
  let v2 = Protocol.ok_response ~schema:Protocol.schema_v2 [ ("pong", Json.Bool true) ] in
  Alcotest.(check (option string)) "v2 tag echoed" (Some Protocol.schema_v2)
    (Json.get_string (member "schema" (json_of v2)))

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
      Alcotest.(check bool) "cache populated" true (s.Session.cache_entries > 0))

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
      Alcotest.(check int) "one handle resident" 1 s.Session.ds_handles;
      Alcotest.(check int) "capacity surfaced" 2 s.Session.ds_capacity;
      Alcotest.(check int) "nets held" 8 s.Session.ds_nets;
      (* Fill the store, then overflow it: h1 is the LRU victim. *)
      let _h2, _ = load () in
      let h3, _ = load () in
      let s = Session.design_stats session in
      Alcotest.(check int) "capacity bounds residency" 2 s.Session.ds_handles;
      Alcotest.(check int) "one eviction" 1 s.Session.ds_evictions;
      (match Session.flow_delta session ~handle:h1 delta with
      | Error (Error.Bad_request _) -> ()
      | Error e -> Alcotest.fail ("wrong error: " ^ Error.to_string e)
      | Ok _ -> Alcotest.fail "evicted handle accepted");
      ok_or_fail (Session.design_unload session h3);
      Alcotest.(check int) "unload drops the handle" 1
        (Session.design_stats session).Session.ds_handles;
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
      let entries = (Session.stats session).Session.cache_entries in
      Alcotest.(check int) "one entry per load miss"
        loaded.Session.result.Rlc_flow.Flow.stats.Rlc_flow.Flow.cache_misses entries;
      let delta ?(drivers = []) ?(slews = []) () =
        let out, st =
          ok_or_fail
            (Session.flow_delta session ~handle:h
               { Rlc_flow.Delta.empty with Rlc_flow.Delta.drivers; slews })
        in
        Alcotest.(check int) "cache size unchanged" entries
          (Session.stats session).Session.cache_entries;
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

let block c ?(scale = 1.) ?(couple = c.coupled) name =
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
  let b = Buffer.create 512 in
  Printf.bprintf b "*D_NET %s %.6g\n*CONN\n*P %s_drv O\n*P %s_rcv I\n*CAP\n" name
    (cap *. float_of_int segs) name name;
  for k = 1 to segs do
    Printf.bprintf b "%d %s %.6g\n" k (node name ~segs k) cap
  done;
  let i = bit_of name in
  if global && couple && i < c.bits - 1 then
    for k = 1 to segs do
      Printf.bprintf b "%d %s %s %.6g\n" (segs + k) (node name ~segs k)
        (node (Printf.sprintf "b%d" (i + 1)) ~segs k)
        (scale *. 30.)
    done;
  let section title v =
    Printf.bprintf b "*%s\n" title;
    for k = 0 to segs - 1 do
      Printf.bprintf b "%d %s %s %.6g\n" (k + 1) (node name ~segs k) (node name ~segs (k + 1)) v
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
          if is_global name then { d with Delta.slews = add name 100e-12 d.Delta.slews } else d)
    Delta.empty edits

let print_edit = function
  | Block (n, s, k) -> Printf.sprintf "block %s x%g%s" n s (if k then " coupled" else "")
  | Resize (n, s) -> Printf.sprintf "resize %s %gX" n s
  | Slew (n, ps) -> Printf.sprintf "slew %s %g ps" n ps
  | Revert n -> "revert " ^ n

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

(* Random bus designs under random delta sequences, served through
   [Session.flow_delta] by a session of 1 or 2 domains: every report is
   byte-identical to a cold run of the [Delta.apply]'d sources (so the one
   flow pass is jobs-independent in both of its modes), retimed + reused
   covers every net, and every ingest record a delta kept (physically the
   previous one) equals the cold-ingested record field by field. *)
let prop_reuse =
  QCheck.Test.make ~name:"flow_delta reuse = cold run of the edited sources" ~count:40
    arb_reuse_case (fun c ->
      let spef_src, spec_src = sources c in
      let req =
        {
          Session.Request.default with
          Session.Request.xtalk = (if c.xtalk then Some xtalk_knobs else None);
        }
      in
      let config = { Session.Config.default with Session.Config.jobs = c.jobs } in
      Session.with_session ~config (fun session ->
          let handle, loaded =
            ok_or_fail (Session.design_load session ~req ~spef:spef_src ~spec:spec_src ())
          in
          let spef = ref (ok_or_fail (Rlc_spef.Spef.parse_res spef_src)) in
          let spec = ref (ok_or_fail (Rlc_flow.Spec.parse_res spec_src)) in
          let prev = ref loaded.Session.result.Flow.design in
          List.iteri
            (fun k edits ->
              let delta = delta_of c edits in
              let a = ok_or_fail (Delta.apply ~spef:!spef ~spec:!spec delta) in
              spef := a.Delta.spef;
              spec := a.Delta.spec;
              let out, st = ok_or_fail (Session.flow_delta session ~handle delta) in
              let cold =
                match Design.ingest ~spef:a.Delta.spef ~spec:a.Delta.spec () with
                | Ok d -> d
                | Error e -> QCheck.Test.fail_reportf "delta %d: cold ingest: %s" k e
              in
              if not (String.equal out.Session.report (cold_report ~xtalk:c.xtalk cold)) then
                QCheck.Test.fail_reportf "delta %d: report differs from a cold run" k;
              let n = Design.n_nets cold in
              if st.Flow.retimed + st.Flow.reused <> n then
                QCheck.Test.fail_reportf "delta %d: retimed %d + reused %d <> %d nets" k
                  st.Flow.retimed st.Flow.reused n;
              let design = out.Session.result.Flow.design in
              Array.iteri
                (fun i (net : Design.net) ->
                  if net == !prev.Design.nets.(i) then
                    match net_diff net cold.Design.nets.(i) with
                    | Some field ->
                        QCheck.Test.fail_reportf "delta %d: kept record of %s differs in %s" k
                          net.Design.name field
                    | None -> ())
                design.Design.nets;
              prev := design)
            c.deltas;
          true))

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

let test_server_shutdown_control () =
  with_server (fun server ->
      let resp, control = send server {|{"schema":"rlc-service/1","kind":"shutdown","id":1}|} in
      Alcotest.(check bool) "stop" true (control = `Stop);
      Alcotest.(check (option bool)) "acknowledged" (Some true)
        (Json.get_bool (member "stopping" resp)))

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
      let loaded, _ = send server (design_load_request ~id:1 ()) in
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
      let resp, _ = send server delta_line in
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

let close_client (ic, oc) =
  (* Both channels share the fd; the second close is a harmless EBADF. *)
  close_out_noerr oc;
  close_in_noerr ic

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
     one test.  The reports must still be byte-identical to the one-shot
     session path. *)
  let config = { Session.Config.default with Session.Config.jobs = 2 } in
  Session.with_session ~config (fun session ->
      let expected =
        let design =
          ok_or_fail
            (Session.ingest session ~spef:(read_file bus8_spef) ~spec:(read_file bus8_spec) ())
        in
        (ok_or_fail (Session.flow session Session.Request.default design)).Session.report
      in
      let server = Server.create ~workers:2 ~queue_capacity:16 session in
      let path = temp_socket_path () in
      let serving = Domain.spawn (fun () -> Server.serve_unix server ~path) in
      let clients = 3 and per_client = 3 in
      let run_client cid =
        let ic, oc = client_channels path in
        let reports =
          List.init per_client (fun i ->
              let id = (cid * 100) + i in
              let resp = json_of (roundtrip ic oc (bus8_flow_request ~id ())) in
              Alcotest.(check (option bool))
                (Printf.sprintf "client %d request %d ok" cid i)
                (Some true)
                (Json.get_bool (member "ok" resp));
              (* One request in flight per connection: replies come back
                 in request order, so the echoed id must match. *)
              Alcotest.(check (option int)) "id echoed in order" (Some id)
                (Json.get_int (member "id" resp));
              Option.get (Json.get_string (member "report" resp)))
        in
        close_client (ic, oc);
        reports
      in
      let domains = List.init clients (fun cid -> Domain.spawn (fun () -> run_client cid)) in
      let all = List.concat_map Domain.join domains in
      Alcotest.(check int) "all requests answered" (clients * per_client) (List.length all);
      List.iteri
        (fun i r ->
          Alcotest.(check string) (Printf.sprintf "report %d byte-identical" i) expected r)
        all;
      (* A shutdown request over the socket stops the whole loop. *)
      let ic, oc = client_channels path in
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
      let run_client cid =
        let ((ic, oc) as cl) = client_channels path in
        for i = 0 to 1 do
          let resp = json_of (roundtrip ic oc (bus8_flow_request ~id:((cid * 10) + i) ())) in
          Alcotest.(check (option bool))
            (Printf.sprintf "client %d flow %d ok" cid i)
            (Some true)
            (Json.get_bool (member "ok" resp))
        done;
        close_client cl
      in
      let domains = List.init 2 (fun cid -> Domain.spawn (fun () -> run_client cid)) in
      List.iter Domain.join domains;
      let ((ic, oc) as cl) = client_channels path in
      let h = json_of (roundtrip ic oc {|{"schema":"rlc-service/1","kind":"health","id":50}|}) in
      Alcotest.(check (option bool)) "healthy after traffic" (Some true)
        (Json.get_bool (member "ready" h));
      let m = json_of (roundtrip ic oc {|{"schema":"rlc-service/1","kind":"metrics","id":51}|}) in
      (* 4 flows + the health request have finished; exact reconciliation. *)
      Alcotest.(check (option int)) "served over socket reconciles" (Some 5)
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
  Alcotest.(check bool) "slow log covers all requests" true (List.length slow_lines >= 6);
  let slow_traces =
    List.map
      (fun line ->
        let j = json_of line in
        Alcotest.(check (option bool)) "slow_request marker" (Some true)
          (Json.get_bool (member "slow_request" j));
        List.iter
          (fun f -> Alcotest.(check bool) ("slow field " ^ f) true (Json.member f j <> None))
          [ "trace"; "kind"; "queue_wait_ms"; "wall_ms"; "ok"; "worker" ];
        Option.get (Json.get_string (member "trace" j)))
      slow_lines
  in
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
  Alcotest.(check bool) "request spans recorded" true (List.length request_traces >= 6);
  Alcotest.(check int) "request traces distinct"
    (List.length request_traces)
    (List.length (List.sort_uniq compare request_traces));
  let net_traces = List.sort_uniq compare (traces_of "flow.net") in
  Alcotest.(check int) "one trace per flow request" 4 (List.length net_traces);
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
        ] );
      ( "protocol",
        [
          Alcotest.test_case "kinds" `Quick test_protocol_kinds;
          Alcotest.test_case "v2 kinds" `Quick test_protocol_v2_kinds;
          Alcotest.test_case "rejections" `Quick test_protocol_rejections;
          Alcotest.test_case "responses" `Quick test_protocol_responses;
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
          Alcotest.test_case "design store" `Quick test_session_design_store;
          Alcotest.test_case "deltas keep the cache size" `Quick test_session_delta_cache;
        ] );
      ("incremental reuse", [ QCheck_alcotest.to_alcotest prop_reuse ]);
      ( "server",
        [
          Alcotest.test_case "flow warmth" `Quick test_server_flow_warmth;
          Alcotest.test_case "report byte-identical" `Quick test_server_report_byte_identical;
          Alcotest.test_case "isolation" `Quick test_server_isolation;
          Alcotest.test_case "oversized" `Quick test_server_oversized;
          Alcotest.test_case "timeout" `Quick test_server_timeout;
          Alcotest.test_case "shutdown control" `Quick test_server_shutdown_control;
          Alcotest.test_case "design lifecycle" `Quick test_server_design_lifecycle;
          Alcotest.test_case "schema echo" `Quick test_server_schema_echo;
          Alcotest.test_case "pipe mode" `Quick test_server_pipe_mode;
        ] );
      ( "server unix",
        [
          Alcotest.test_case "concurrent clients" `Quick test_server_unix_concurrent;
          Alcotest.test_case "overload rejection" `Quick test_server_unix_overload;
          Alcotest.test_case "cross-connection isolation" `Quick test_server_unix_isolation;
        ] );
      ( "telemetry",
        [
          Alcotest.test_case "metrics and prometheus" `Quick test_server_metrics_prometheus;
          Alcotest.test_case "tracing and slow log" `Quick test_server_unix_telemetry;
          Alcotest.test_case "health under saturation" `Quick test_server_unix_health_saturation;
        ] );
    ]
