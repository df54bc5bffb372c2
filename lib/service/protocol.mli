(** The daemon's wire protocol: newline-delimited JSON, schemas
    ["rlc-service/1"] and ["rlc-service/2"].

    Every request is one line — a JSON object carrying a ["schema"] tag, a
    ["kind"], an optional ["id"] (echoed verbatim in the response, any JSON
    value), an optional ["timeout_ms"] overriding the server's per-request
    budget, and kind-specific parameters.  Every response is one line:
    [{"schema":...,"id":...,"ok":true,...}] on success and
    [{"schema":...,"id":...,"ok":false,"error":{"code":...,"message":...}}]
    on failure, where [code] is the stable machine identifier from
    {!Error.code}.  Responses carry the schema of the request they answer,
    so a v1 client never sees ["rlc-service/2"] on the wire.

    Every response to a line that parses as a JSON object, failures
    included, echoes that line's {!envelope}: its ["id"] when it has one,
    and ["rlc-service/2"] when it is tagged so, else ["rlc-service/1"].  A
    request that fails validation (an unknown kind, a v2-only kind under
    the v1 tag, an unsupported tag, a bad field) is therefore answered
    with its own id.  Only a line that is malformed JSON, not an object,
    or over the size limit is answered with {!no_envelope}: no id, and
    ["rlc-service/1"].

    v2 is a strict superset of v1: every v1 kind parses identically under
    either tag, and v1 responses are byte-for-byte what a v1-only server
    produced.  The three v2-only kinds drive the incremental (ECO) store:

    - ["design_load"]: the ["flow"] fields, plus optional ["xtalk"]
      (boolean — run crosstalk analysis on this design, with the usual
      optional ["threshold"] / ["budget"] / ["alignments"] knobs).  Times
      the design cold, keeps it resident, and answers with a ["handle"]
      plus the full flow response fields.
    - ["flow_delta"]: required ["handle"]; edit maps ["nets"] (net name ->
      replacement [*D_NET ... *END] block text), ["drivers"] (net name ->
      new driver size) and ["slews_ps"] (primary-input net name -> new
      slew in ps), sizes and slews finite and [> 0] — at least one edit
      across the three.  Re-times
      incrementally and answers with the flow fields plus ["retimed_nets"]
      / ["reused_nets"].
    - ["design_unload"]: required ["handle"]; drops the resident design.

    Request kinds (v1, unchanged):
    - ["flow"]: time a full design.  Exactly one of ["spef"] (inline text)
      or ["spef_file"] (path the {e server} reads); at most one of ["spec"]
      / ["spec_file"]; optional ["size"], ["slew_ps"] (spec defaults,
      finite and [> 0]), ["required_ps"], ["use_cache"], ["dt_ps"] (the
      replay step, finite and [> 0]).
    - ["xtalk"]: a ["flow"] request that also runs the coupled-net
      crosstalk analysis; same fields plus optional ["threshold"] and
      ["budget"] (fractions of VDD, finite and [>= 0]) and ["alignments"]
      (grid size, an integer in [1 .. Rlc_xtalk.Xtalk.max_alignments]).
    - ["sweep_case"] / ["screen"]: one geometric case; required
      ["length_mm"], ["width_um"] and ["size"] (finite and [> 0]);
      optional ["slew_ps"] (finite and [> 0]), ["cl_ff"] (finite
      and [>= 0]) and ["dt_ps"] (sweep only; finite and [> 0]).
    - ["ping"], ["stats"], ["metrics"], ["health"], ["shutdown"]: no
      parameters. *)

val schema : string
(** ["rlc-service/1"]. *)

val schema_v2 : string
(** ["rlc-service/2"].  Requests carrying a tag that is neither {!schema}
    nor {!schema_v2} are rejected with an [unsupported_version] error
    before their parameters are looked at. *)

val default_max_bytes : int
(** Default request-size limit, 8 MiB. *)

type source =
  | Inline of string  (** content shipped in the request *)
  | File of string  (** path to be read by the server *)

type flow_req = {
  f_spef : source;
  f_spec : source option;
  f_size : float option;  (** default driver size when no spec is given *)
  f_slew_ps : float option;  (** default primary-input slew, ps *)
  f_required_ps : float option;  (** required arrival for slack, ps *)
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
  x_threshold : float option;  (** screen level, fraction of VDD *)
  x_budget : float option;  (** violation level, fraction of VDD *)
  x_alignments : int option;  (** aggressor-alignment grid points *)
}

type delta_req = {
  d_handle : string;
  d_nets : (string * string) list;
      (** net name -> replacement [*D_NET] block text *)
  d_drivers : (string * float) list;  (** net name -> new driver size (X) *)
  d_slews_ps : (string * float) list;
      (** primary-input net name -> new slew, picoseconds (converted to
          seconds at the {!Session} boundary) *)
}

type kind =
  | Flow of flow_req
  | Xtalk of flow_req * xtalk_req
  | Sweep_case of case_req
  | Screen of case_req
  | Design_load of flow_req * xtalk_req option
      (** v2 only; [Some knobs] when the request set ["xtalk": true] *)
  | Flow_delta of delta_req  (** v2 only *)
  | Design_unload of string  (** v2 only; the handle *)
  | Ping
  | Stats
  | Metrics
      (** live telemetry: rolling-window rates and latency quantiles, cache
          shard breakdown, design-store pressure, plus a Prometheus text
          exposition of the same numbers under a ["prometheus"] string
          field.  The server answers this inline from the listener — it
          never queues, so scrapes keep working while the admission queue
          is saturated. *)
  | Health
      (** liveness + readiness: [alive] is always [true] (the daemon
          answered); [ready] requires the pool up, the queue below its
          high-water mark, and no deadline storm in the current window.
          Served inline like [Metrics]. *)
  | Shutdown

type request = { timeout_ms : int option; kind : kind }

type envelope = {
  schema : string;
      (** {!schema_v2} when the line is tagged so, else {!schema} (also for
          a missing or unsupported tag) *)
  id : Json.t option;  (** the line's ["id"], echoed verbatim *)
}
(** What every response to a line echoes. *)

val no_envelope : envelope
(** [{schema = "rlc-service/1"; id = None}]: the envelope of a line that
    is not a JSON object. *)

val parse_request : ?max_bytes:int -> string -> envelope * (request, Error.t) result
(** Validate one request line, reading its envelope once, as soon as the
    line parses as a JSON object.  Errors, in checking order: over
    [max_bytes] (default {!default_max_bytes}) → [Bad_request]; malformed
    JSON → [Parse] with the byte position; not an object → [Bad_request]
    (these three with {!no_envelope}); wrong/missing schema →
    [Unsupported_version]; a v2-only kind under the v1 tag, an unknown
    kind, a missing required field, or a type/positivity violation →
    [Bad_request]. *)

val ok_response : envelope -> (string * Json.t) list -> string
(** Success line (no trailing newline): the envelope with the given
    extra fields appended after ["ok"]. *)

val ok_prefix : envelope -> string
(** The start of a success line, through ["ok":true]: what the envelope
    contributes.  The two id-less prefixes are built once. *)

val ok_body : (string * Json.t) list -> string
(** The rest of a success line: the fields, then the closing brace.
    [ok_prefix e ^ ok_body fields = ok_response e fields], so a body
    encoded once answers any envelope: the server's read memo stores
    bodies and writes each hit as the two pieces. *)

val error_response : envelope -> Error.t -> string
(** Failure line carrying [{"code";"message"}] from {!Error.code} /
    {!Error.message}. *)
