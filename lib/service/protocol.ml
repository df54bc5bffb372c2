(* Wire protocol: versioned newline-delimited JSON requests/responses.
   Parsing is strict about types and required fields but lenient about
   unknown fields (forward compatibility within a schema version). *)

let schema = "rlc-service/1"
let schema_v2 = "rlc-service/2"
let default_max_bytes = 8 * 1024 * 1024

type source = Inline of string | File of string

type flow_req = {
  f_spef : source;
  f_spec : source option;
  f_size : float option;
  f_slew_ps : float option;
  f_required_ps : float option;
  f_use_cache : bool option;
  f_dt_ps : float option;
}

type case_req = {
  c_length_mm : float;
  c_width_um : float;
  c_size : float;
  c_slew_ps : float option;
  c_cl_ff : float option;
  c_dt_ps : float option;
}

type xtalk_req = {
  x_threshold : float option;  (* screen level, fraction of VDD *)
  x_budget : float option;  (* violation level, fraction of VDD *)
  x_alignments : int option;  (* aggressor-alignment grid points *)
}

type delta_req = {
  d_handle : string;
  d_nets : (string * string) list;  (* net name -> replacement *D_NET block *)
  d_drivers : (string * float) list;  (* net name -> new driver size *)
  d_slews_ps : (string * float) list;  (* net name -> new primary slew, ps *)
}

type kind =
  | Flow of flow_req
  | Xtalk of flow_req * xtalk_req
  | Sweep_case of case_req
  | Screen of case_req
  | Design_load of flow_req * xtalk_req option
  | Flow_delta of delta_req
  | Design_unload of string
  | Ping
  | Stats
  | Metrics
  | Health
  | Shutdown

type request = { timeout_ms : int option; kind : kind }

(* What every response to a line echoes: the request's schema tag and id. *)
type envelope = { schema : string; id : Json.t option }

let no_envelope = { schema; id = None }

(* -------------------------------------------------------- field access *)

let ( let* ) = Result.bind
let bad fmt = Printf.ksprintf (fun msg -> Error (Error.Bad_request msg)) fmt

let opt_field name conv what fields =
  match List.assoc_opt name fields with
  | None -> Ok None
  | Some v -> (
      match conv v with
      | Some x -> Ok (Some x)
      | None -> bad "field %S must be %s" name what)

let req_field name conv what fields =
  match List.assoc_opt name fields with
  | None -> bad "missing required field %S" name
  | Some v -> (
      match conv v with
      | Some x -> Ok x
      | None -> bad "field %S must be %s" name what)

let str_opt name = opt_field name Json.get_string "a string"
let num_opt name = opt_field name Json.get_float "a number"
let bool_opt name = opt_field name Json.get_bool "a boolean"
let num_req name = req_field name Json.get_float "a number"

(* JSON has no NaN, but 1e400 parses as infinity: a time step of it would
   step the engine once at t = infinity, a case geometry of it fails deep
   in the library under an internal function's name, an infinite driver
   size fails every characterization point, and an infinite slew is
   silently clamped to the table's edge. *)
let finite_pos name = function
  | Some x when not (x > 0. && Float.is_finite x) ->
      bad "field %S must be a finite positive number" name
  | v -> Ok v

let num_req_finite_pos name fields =
  let* v = num_req name fields in
  let* _ = finite_pos name (Some v) in
  Ok v

(* ------------------------------------------------------------ requests *)

let parse_source ~inline_key ~file_key fields =
  let* inline = str_opt inline_key fields in
  let* file = str_opt file_key fields in
  match (inline, file) with
  | Some _, Some _ -> bad "give %S or %S, not both" inline_key file_key
  | Some s, None -> Ok (Some (Inline s))
  | None, Some f -> Ok (Some (File f))
  | None, None -> Ok None

let parse_flow fields =
  let* spef = parse_source ~inline_key:"spef" ~file_key:"spef_file" fields in
  let* f_spef =
    match spef with
    | Some s -> Ok s
    | None -> bad "a flow request needs %S or %S" "spef" "spef_file"
  in
  let* f_spec = parse_source ~inline_key:"spec" ~file_key:"spec_file" fields in
  let* f_size = Result.bind (num_opt "size" fields) (finite_pos "size") in
  let* f_slew_ps = Result.bind (num_opt "slew_ps" fields) (finite_pos "slew_ps") in
  let* f_required_ps = num_opt "required_ps" fields in
  let* f_use_cache = bool_opt "use_cache" fields in
  let* f_dt_ps = Result.bind (num_opt "dt_ps" fields) (finite_pos "dt_ps") in
  Ok (Flow { f_spef; f_spec; f_size; f_slew_ps; f_required_ps; f_use_cache; f_dt_ps })

let parse_flow_req fields =
  match parse_flow fields with
  | Ok (Flow f) -> Ok f
  | Ok _ -> assert false
  | Error e -> Error e

(* Exactly the levels Xtalk.analyze accepts: finite and >= 0 (a zero
   threshold simulates every pair).  JSON has no NaN, but 1e400 parses as
   infinity. *)
let level name = function
  | Some x when not (Float.is_finite x && x >= 0.) ->
      bad "field %S must be a finite number >= 0" name
  | v -> Ok v

let parse_xtalk_knobs fields =
  let* x_threshold = Result.bind (num_opt "threshold" fields) (level "threshold") in
  let* x_budget = Result.bind (num_opt "budget" fields) (level "budget") in
  let* x_alignments =
    match List.assoc_opt "alignments" fields with
    | None -> Ok None
    | Some (Json.Int n) when n >= 1 && n <= Rlc_xtalk.Xtalk.max_alignments -> Ok (Some n)
    | Some _ ->
        bad "field %S must be an integer in 1..%d" "alignments" Rlc_xtalk.Xtalk.max_alignments
  in
  Ok { x_threshold; x_budget; x_alignments }

let parse_xtalk fields =
  let* f = parse_flow_req fields in
  let* x = parse_xtalk_knobs fields in
  Ok (Xtalk (f, x))

let parse_design_load fields =
  let* f = parse_flow_req fields in
  let* xtalk_on = bool_opt "xtalk" fields in
  let* x =
    match xtalk_on with
    | Some true -> Result.map Option.some (parse_xtalk_knobs fields)
    | Some false | None -> Ok None
  in
  Ok (Design_load (f, x))

(* An edit map: a JSON object whose members are [net name -> conv-checked
   value].  Preserves member order (harmless — Delta sorts names anyway). *)
let edit_map name conv what fields =
  match List.assoc_opt name fields with
  | None -> Ok []
  | Some (Json.Obj members) ->
      List.fold_left
        (fun acc (net, v) ->
          let* acc = acc in
          match conv v with
          | Some x -> Ok ((net, x) :: acc)
          | None -> bad "field %S: entry %S must be %s" name net what)
        (Ok []) members
      |> Result.map List.rev
  | Some _ -> bad "field %S must be an object" name

let get_finite_pos v =
  match Json.get_float v with
  | Some x when x > 0. && Float.is_finite x -> Some x
  | Some _ | None -> None

let parse_flow_delta fields =
  let* d_handle = req_field "handle" Json.get_string "a string" fields in
  let* d_nets = edit_map "nets" Json.get_string "a string (*D_NET block)" fields in
  let* d_drivers = edit_map "drivers" get_finite_pos "a finite positive number" fields in
  let* d_slews_ps = edit_map "slews_ps" get_finite_pos "a finite positive number" fields in
  if d_nets = [] && d_drivers = [] && d_slews_ps = [] then
    bad "a flow_delta needs at least one edit (%S, %S or %S)" "nets" "drivers" "slews_ps"
  else Ok (Flow_delta { d_handle; d_nets; d_drivers; d_slews_ps })

let parse_design_unload fields =
  let* handle = req_field "handle" Json.get_string "a string" fields in
  Ok (Design_unload handle)

let parse_case fields =
  let* c_length_mm = num_req_finite_pos "length_mm" fields in
  let* c_width_um = num_req_finite_pos "width_um" fields in
  let* c_size = num_req_finite_pos "size" fields in
  let* c_slew_ps = Result.bind (num_opt "slew_ps" fields) (finite_pos "slew_ps") in
  let* c_cl_ff = Result.bind (num_opt "cl_ff" fields) (level "cl_ff") in
  let* c_dt_ps = Result.bind (num_opt "dt_ps" fields) (finite_pos "dt_ps") in
  Ok { c_length_mm; c_width_um; c_size; c_slew_ps; c_cl_ff; c_dt_ps }

(* The request behind an envelope: a tag this server speaks (the envelope
   reads any other as v1), then the budget, the kind and its fields. *)
let parse_fields envelope fields =
  let* () =
    match List.assoc_opt "schema" fields with
    | Some (Json.Str v) when v = schema || v = schema_v2 -> Ok ()
    | Some (Json.Str v) -> Error (Error.Unsupported_version v)
    | Some _ -> bad "field %S must be a string" "schema"
    | None -> Error (Error.Unsupported_version "(missing schema field)")
  in
  let* timeout_ms =
    match List.assoc_opt "timeout_ms" fields with
    | None -> Ok None
    | Some (Json.Int ms) when ms > 0 -> Ok (Some ms)
    | Some _ -> bad "field %S must be a positive integer" "timeout_ms"
  in
  let* kind_name = req_field "kind" Json.get_string "a string" fields in
  let* kind =
    match kind_name with
    | "flow" -> parse_flow fields
    | "xtalk" -> parse_xtalk fields
    | "sweep_case" -> Result.map (fun c -> Sweep_case c) (parse_case fields)
    | "screen" -> Result.map (fun c -> Screen c) (parse_case fields)
    | ("design_load" | "flow_delta" | "design_unload") when envelope.schema <> schema_v2 ->
        bad "kind %S requires schema %S" kind_name schema_v2
    | "design_load" -> parse_design_load fields
    | "flow_delta" -> parse_flow_delta fields
    | "design_unload" -> parse_design_unload fields
    | "ping" -> Ok Ping
    | "stats" -> Ok Stats
    | "metrics" -> Ok Metrics
    | "health" -> Ok Health
    | "shutdown" -> Ok Shutdown
    | other -> bad "unknown request kind %S" other
  in
  Ok { timeout_ms; kind }

let parse_request ?(max_bytes = default_max_bytes) line =
  if String.length line > max_bytes then
    (no_envelope, bad "request is %d bytes; the limit is %d" (String.length line) max_bytes)
  else
    match Json.parse line with
    | Error (pos, msg) ->
        (no_envelope, Error (Error.parse (Printf.sprintf "at byte %d: %s" pos msg)))
    | Ok json -> (
        match Json.get_obj json with
        | None -> (no_envelope, bad "a request must be a JSON object")
        | Some fields ->
            let envelope =
              {
                schema =
                  (match List.assoc_opt "schema" fields with
                  | Some (Json.Str v) when v = schema_v2 -> schema_v2
                  | _ -> schema);
                id = List.assoc_opt "id" fields;
              }
            in
            (envelope, parse_fields envelope fields))

(* ----------------------------------------------------------- responses *)

let response envelope ~ok fields =
  let base =
    ("schema", Json.Str envelope.schema)
    :: (match envelope.id with Some id -> [ ("id", id) ] | None -> [])
  in
  Json.to_string (Json.Obj (base @ (("ok", Json.Bool ok) :: fields)))

let ok_response envelope fields = response envelope ~ok:true fields

(* [ok_response envelope []] without its closing brace. *)
let prefix_of envelope =
  let line = ok_response envelope [] in
  String.sub line 0 (String.length line - 1)

(* The id-less prefixes, built once: most clients send no id. *)
let prefix_v1 = prefix_of no_envelope
let prefix_v2 = prefix_of { schema = schema_v2; id = None }

let ok_prefix envelope =
  match envelope.id with
  | None when String.equal envelope.schema schema -> prefix_v1
  | None when String.equal envelope.schema schema_v2 -> prefix_v2
  | _ -> prefix_of envelope

let ok_body fields = Json.to_string_tail fields

let error_response envelope err =
  response envelope ~ok:false
    [
      ( "error",
        Json.Obj
          [ ("code", Json.Str (Error.code err)); ("message", Json.Str (Error.message err)) ] );
    ]
