(* The accept/dispatch loop around a Session.

   One request line in, one response line out, in order per connection.
   Requests are isolated: any failure — malformed JSON, a bad design, an
   exception out of the numeric layers, a blown time budget — produces a
   typed error response and the daemon keeps serving.

   The Unix-socket transport is concurrent: the listener multiplexes all
   connections through one [select] loop, decodes request lines, and
   admits them into a bounded queue; worker domains drain the queue, run
   the session work, and write each response back on its originating
   connection.  A connection has at most one request in flight at a time
   (its reads are paused until the response is written), which preserves
   the per-connection request/response ordering the protocol promises.
   When the queue is full, admission fails fast with the wire-stable
   [Timeout] error instead of queueing unbounded latency.

   Request budgets are per-request [Rlc_errors.Deadline] values — checked
   on queue exit (entries that expired while waiting are answered without
   burning a worker), installed ambiently around dispatch with the
   request's trace id, carried across domains by the pool, and polled by
   the engine's step loops; nothing below takes them as an argument.  The
   old ITIMER_REAL+SIGALRM mechanism was process-global (one timer, one
   signal) and could not have coexisted with concurrent requests.

   Every failure line, whichever stage refuses the request, is built by
   [failure] and echoes the request's envelope.

   A served [flow] or [xtalk] is a pure function of its source bytes, its
   fields and the session's config, so each server keeps a read memo: the
   bytes a computation used and the response body it encoded.  A repeated
   read compares each named file with the stored bytes through a reusable
   per-domain buffer and writes the stored body after the request's own
   envelope, without parsing, timing, rendering or copying anything. *)

module Evaluate = Rlc_ceff.Evaluate
module Units = Rlc_num.Units
module Deadline = Rlc_errors.Deadline
module Obs = Rlc_obs.Obs
module Memo = Rlc_obs.Memo

let src = Logs.Src.create "rlc.service" ~doc:"timing daemon"

module Log = (val Logs.src_log src : Logs.LOG)

(* ---------------------------------------------------------- read memo *)

(* Everything a served read's answer depends on besides the session's
   config: each source (its text, or the path the server reads) and every
   number the request names, by its bits, so that 0 and -0 (which print
   differently) are different keys.  The envelope and [timeout_ms] are
   not part of it, and neither is [use_cache]: a read that does not use
   the Ceff cache skips the memo. *)
type read_key = {
  k_spef : Protocol.source;
  k_spec : Protocol.source option;
  k_size : int64 option;
  k_slew_ps : int64 option;
  k_required_ps : int64 option;
  k_dt_ps : int64 option;
  k_xtalk : (int64 * int64 * int) option;  (* threshold, budget, alignments *)
}

(* A read's answer with the bytes it was computed from: a hit needs each
   named file to hold exactly these bytes (inline text is compared as part
   of the key).  [body] is a warm run's answer: every one of its [nets]
   a Ceff-cache hit. *)
type read = { spef_bytes : string; spec_bytes : string option; body : string; nets : int }

(* The bounds, stated in DESIGN.md §3: one entry on the benchmark's
   512-net design weighs about 0.4 MB. *)
let read_capacity = 64
let read_max_bytes = 8 * 1024 * 1024

let read_weight _ r =
  String.length r.spef_bytes
  + Option.fold ~none:0 ~some:String.length r.spec_bytes
  + String.length r.body

type t = {
  session : Session.t;
  reads : (read_key, read) Memo.t;
  timeout_s : float;
  max_request_bytes : int;
  workers : int;
  queue_capacity : int;
  backlog : int;
  slow_ms : float option;
      (** requests whose execution wall time reaches this threshold are
          logged as single-line JSON on [slow_channel] *)
  slow_channel : out_channel;
  tick_period_s : float;
  stop : bool Atomic.t;
  wake : Unix.file_descr option Atomic.t;
      (** write end of the listener's self-pipe while [serve_unix] runs;
          [stop] and the worker domains poke it to interrupt [select] *)
  queue_depth : int Atomic.t;  (** admission-queue population, for stats *)
  window : Rlc_obs.Window.t;
      (** rolling telemetry window, fed by the serve loop's ticker *)
  trace_seq : int Atomic.t;
  trace_base : string;  (** per-process prefix of minted trace ids *)
  log_mutex : Mutex.t;  (** serializes slow-log lines across domains *)
  mutable next_tick : float;
      (* earliest wall time for the next window sample; only the serving
         loop (listener or pipe pump) advances it *)
}

let default_timeout_s = 60.
let default_workers = 1
let default_queue_capacity = 64
let default_tick_period_s = 1.

let create ?(timeout_s = default_timeout_s) ?(max_request_bytes = Protocol.default_max_bytes)
    ?(workers = default_workers) ?(queue_capacity = default_queue_capacity) ?backlog ?slow_ms
    ?(slow_channel = stderr) ?(tick_period_s = default_tick_period_s) session =
  let queue_capacity = Int.max 1 queue_capacity in
  {
    session;
    reads = Memo.create ~capacity:read_capacity ~weight:read_weight ~max_weight:read_max_bytes ();
    timeout_s;
    max_request_bytes;
    workers = Int.max 1 workers;
    queue_capacity;
    backlog = Int.max 1 (Option.value backlog ~default:queue_capacity);
    slow_ms;
    slow_channel;
    tick_period_s = Float.max 0. tick_period_s;
    stop = Atomic.make false;
    wake = Atomic.make None;
    queue_depth = Atomic.make 0;
    window = Rlc_obs.Window.create ();
    trace_seq = Atomic.make 0;
    (* Best-effort distinctness across daemon runs: the pid verbatim plus
       30 bits of a start-time hash, so merged logs from different runs
       collide only when both match.  Uniqueness within a run is exact,
       from the atomic counter. *)
    trace_base =
      (let pid = Unix.getpid () in
       Printf.sprintf "%x-%08x" pid (Hashtbl.hash (pid, Unix.gettimeofday ())));
    log_mutex = Mutex.create ();
    next_tick = 0.;
  }

let obs t = (Session.config t.session).Session.Config.obs

let window t = t.window

let mint_trace t =
  Printf.sprintf "%s-%06d" t.trace_base (Atomic.fetch_and_add t.trace_seq 1)

(* Record a cumulative window sample if the tick period has elapsed.  Only
   the serving loop calls this (listener in unix mode, the line pump in
   pipe mode), so [next_tick] needs no lock; the window itself is
   mutex-guarded against concurrent readers. *)
let tick t =
  let o = obs t in
  if Obs.enabled o then begin
    let now = Unix.gettimeofday () in
    if now >= t.next_tick then begin
      Rlc_obs.Window.record t.window ~at:now (Obs.snapshot_light o);
      t.next_tick <- now +. t.tick_period_s
    end
  end
let wake_byte = Bytes.make 1 '!'

let wake_listener t =
  match Atomic.get t.wake with
  | None -> ()
  | Some fd -> ( try ignore (Unix.write fd wake_byte 0 1) with Unix.Unix_error _ -> ())

let stop t =
  Atomic.set t.stop true;
  wake_listener t

let stopped t = Atomic.get t.stop

let install_signals t =
  (* Graceful drain: finish in-flight requests, then exit the loop; the
     wake byte kicks the listener out of its select. *)
  (try Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> stop t))
   with Invalid_argument _ -> ());
  (* A client vanishing mid-response must be an EPIPE we can catch, not a
     process kill. *)
  try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ()

(* ----------------------------------------------------------- dispatch *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let resolve what = function
  | Protocol.Inline s -> Ok (s, None)
  | Protocol.File path -> (
      match read_file path with
      | content -> Ok (content, Some path)
      | exception Sys_error msg -> Error (Error.Bad_request (what ^ ": " ^ msg)))

let metrics_fields (m : Evaluate.metrics) =
  Json.Obj
    [
      ("delay_ps", Json.Float (Units.in_ps m.Evaluate.delay));
      ("slew_ps", Json.Float (Units.in_ps m.Evaluate.slew));
    ]

let screen_fields (v : Rlc_ceff.Screen.verdict) =
  [
    ("significant", Json.Bool v.Rlc_ceff.Screen.significant);
    ("cl_ok", Json.Bool v.Rlc_ceff.Screen.cl_ok);
    ("rl_ok", Json.Bool v.Rlc_ceff.Screen.rl_ok);
    ("rs_ok", Json.Bool v.Rlc_ceff.Screen.rs_ok);
    ("tr_ok", Json.Bool v.Rlc_ceff.Screen.tr_ok);
    ("cl_ratio", Json.Float v.Rlc_ceff.Screen.cl_ratio);
    ("rl_over_z0", Json.Float v.Rlc_ceff.Screen.rl_over_z0);
    ("rs_over_z0", Json.Float v.Rlc_ceff.Screen.rs_over_z0);
    ("tr1_over_tf", Json.Float v.Rlc_ceff.Screen.tr1_over_tf);
  ]

let shape_name (m : Rlc_ceff.Driver_model.t) =
  match m.Rlc_ceff.Driver_model.shape with
  | Rlc_ceff.Driver_model.One_ramp _ -> "one_ramp"
  | Rlc_ceff.Driver_model.Two_ramp _ -> "two_ramp"

let flow_fields (o : Session.flow_outcome) =
  let s = o.Session.result.Rlc_flow.Flow.stats in
  [
    ( "report",
      match o.Session.report_escaped with
      | Some pieces -> Json.Escaped pieces
      | None -> Json.Str o.Session.report );
    ("nets", Json.Int s.Rlc_flow.Flow.n_nets);
    ("levels", Json.Int s.Rlc_flow.Flow.n_levels);
    ("inductive", Json.Int s.Rlc_flow.Flow.n_inductive);
    ("two_ramp", Json.Int s.Rlc_flow.Flow.n_two_ramp);
    ("cache_hits", Json.Int s.Rlc_flow.Flow.cache_hits);
    ("cache_misses", Json.Int s.Rlc_flow.Flow.cache_misses);
    ("iterations_total", Json.Int s.Rlc_flow.Flow.iterations_total);
    ("iterations_spent", Json.Int s.Rlc_flow.Flow.iterations_spent);
  ]
  @
  match o.Session.xtalk with
  | None -> []
  | Some x ->
      let st = x.Rlc_xtalk.Xtalk.stats in
      [
        ( "xtalk",
          Json.Obj
            [
              ("pairs", Json.Int st.Rlc_xtalk.Xtalk.n_pairs);
              ("screened", Json.Int st.Rlc_xtalk.Xtalk.n_screened);
              ("simulated", Json.Int st.Rlc_xtalk.Xtalk.n_simulated);
              ("alignment_sims", Json.Int st.Rlc_xtalk.Xtalk.n_alignment_sims);
              ("violations", Json.Int st.Rlc_xtalk.Xtalk.n_violations);
            ] );
      ]

let case_of t (c : Protocol.case_req) =
  Session.case t.session ?slew_ps:c.Protocol.c_slew_ps ?cl_ff:c.Protocol.c_cl_ff
    ~length_mm:c.Protocol.c_length_mm ~width_um:c.Protocol.c_width_um ~size:c.Protocol.c_size ()

(* A Session request from the wire fields. *)
let request_of ?xtalk (f : Protocol.flow_req) =
  {
    Session.Request.default with
    Session.Request.required = Option.map Units.ps f.Protocol.f_required_ps;
    use_cache = f.Protocol.f_use_cache;
    dt = Option.map Units.ps f.Protocol.f_dt_ps;
    xtalk;
  }

let xtalk_of (x : Protocol.xtalk_req) =
  {
    Session.threshold =
      Option.value x.Protocol.x_threshold ~default:Session.default_xtalk.Session.threshold;
    budget = Option.value x.Protocol.x_budget ~default:Session.default_xtalk.Session.budget;
    alignments =
      Option.value x.Protocol.x_alignments ~default:Session.default_xtalk.Session.alignments;
  }

let resolve_sources (f : Protocol.flow_req) =
  let ( let* ) = Result.bind in
  let* spef, spef_name = resolve "spef_file" f.Protocol.f_spef in
  let* spec, spec_name =
    match f.Protocol.f_spec with
    | None -> Ok (None, None)
    | Some src ->
        let* content, name = resolve "spec_file" src in
        Ok (Some content, name)
  in
  Ok (spef, spef_name, spec, spec_name)

(* A successful request's answer: the response body after the envelope,
   encoded once ({!Protocol.ok_body}), and what the slow log reports of
   it. *)
type reply = {
  body : string;
  cache_hits : int option;  (* the Ceff cache hits the body reports *)
  memo : bool option;  (* flow and xtalk: whether the read memo answered *)
}

let encode t f = Obs.layer (obs t) "service.encode" f

let reply_of t fields =
  {
    body = encode t (fun () -> Protocol.ok_body fields);
    cache_hits =
      (match List.assoc_opt "cache_hits" fields with Some (Json.Int n) -> Some n | _ -> None);
    memo = None;
  }

(* Shared by the "flow" and "xtalk" kinds — one code path, so an xtalk
   request's report embeds the fragment and everything else stays
   byte-identical to a plain flow.  Returns the source bytes it timed. *)
let run_flow t req (f : Protocol.flow_req) =
  let ( let* ) = Result.bind in
  let* spef, spef_name, spec, spec_name = resolve_sources f in
  let* design =
    Session.ingest t.session ?spef_name ?spec ?spec_name ?size:f.Protocol.f_size
      ?slew:(Option.map Units.ps f.Protocol.f_slew_ps)
      ~spef ()
  in
  let* outcome = Session.flow t.session req design in
  Ok (spef, spec, outcome)

let read_key ?xtalk (f : Protocol.flow_req) =
  let bits = Option.map Int64.bits_of_float in
  {
    k_spef = f.Protocol.f_spef;
    k_spec = f.Protocol.f_spec;
    k_size = bits f.Protocol.f_size;
    k_slew_ps = bits f.Protocol.f_slew_ps;
    k_required_ps = bits f.Protocol.f_required_ps;
    k_dt_ps = bits f.Protocol.f_dt_ps;
    k_xtalk =
      Option.map
        (fun (x : Session.xtalk_request) ->
          ( Int64.bits_of_float x.Session.threshold,
            Int64.bits_of_float x.Session.budget,
            x.Session.alignments ))
        xtalk;
  }

(* One read buffer per domain, reused by every hit that domain serves. *)
let read_buffer = Domain.DLS.new_key (fun () -> Bytes.create 65536)

(* Whether the file at [path] holds exactly [bytes], streamed through the
   domain's buffer.  A file that cannot be opened or read does not. *)
let file_holds path bytes =
  match Unix.openfile path [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 with
  | exception Unix.Unix_error _ -> false
  | fd ->
      let buf = Domain.DLS.get read_buffer and n = String.length bytes in
      let same_run off k =
        let i = ref 0 in
        while !i < k && Bytes.unsafe_get buf !i = String.unsafe_get bytes (off + !i) do
          incr i
        done;
        !i = k
      in
      let rec go off =
        match Unix.read fd buf 0 (Bytes.length buf) with
        | 0 -> off = n
        | k -> off + k <= n && same_run off k && go (off + k)
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
        | exception Unix.Unix_error _ -> false
      in
      let same = go 0 in
      (try Unix.close fd with Unix.Unix_error _ -> ());
      same

let holds src bytes =
  match src with Protocol.Inline _ -> true | Protocol.File path -> file_holds path bytes

let holds_sources key r =
  holds key.k_spef r.spef_bytes
  && match (key.k_spec, r.spec_bytes) with Some src, Some bytes -> holds src bytes | _ -> true

(* A served read.  When it uses the Ceff cache, a stored answer whose
   files still hold the bytes it was computed from is written as it is; a
   miss reads each file once and times exactly those bytes.  Only a warm
   run's answer is stored, every net a Ceff-cache hit, so a hit answers
   what a run on the warm cache would.  Errors are never stored. *)
let read t ?xtalk (f : Protocol.flow_req) =
  let ( let* ) = Result.bind in
  let req = request_of ?xtalk f in
  let use_cache = Session.uses_cache t.session req in
  let key = read_key ?xtalk f in
  match if use_cache then Memo.find ~valid:(holds_sources key) t.reads key else None with
  | Some r -> Ok { body = r.body; cache_hits = Some r.nets; memo = Some true }
  | None ->
      let* spef_bytes, spec_bytes, outcome = run_flow t req f in
      let s = outcome.Session.result.Rlc_flow.Flow.stats in
      let nets = s.Rlc_flow.Flow.n_nets in
      let body = encode t (fun () -> Protocol.ok_body (flow_fields outcome)) in
      if use_cache && s.Rlc_flow.Flow.cache_hits = nets then
        Memo.replace t.reads key { spef_bytes; spec_bytes; body; nets };
      Ok { body; cache_hits = Some s.Rlc_flow.Flow.cache_hits; memo = Some false }

(* "design_load": same resolution and knobs as "flow", but the timed design
   stays resident under the returned handle. *)
let run_design_load t (f : Protocol.flow_req) xtalk =
  let ( let* ) = Result.bind in
  let* spef, spef_name, spec, spec_name = resolve_sources f in
  let req = request_of ?xtalk:(Option.map xtalk_of xtalk) f in
  let* handle, outcome =
    Session.design_load t.session ?spef_name ?spec ?spec_name ?size:f.Protocol.f_size
      ?slew:(Option.map Units.ps f.Protocol.f_slew_ps)
      ~req ~spef ()
  in
  Ok (("handle", Json.Str handle) :: flow_fields outcome)

let run_flow_delta t (d : Protocol.delta_req) =
  let ( let* ) = Result.bind in
  let delta =
    {
      Rlc_flow.Delta.nets = d.Protocol.d_nets;
      drivers = d.Protocol.d_drivers;
      slews = List.map (fun (net, ps) -> (net, Units.ps ps)) d.Protocol.d_slews_ps;
    }
  in
  let* outcome, stats = Session.flow_delta t.session ~handle:d.Protocol.d_handle delta in
  Ok
    (flow_fields outcome
    @ [
        ("retimed_nets", Json.Int stats.Rlc_flow.Flow.retimed);
        ("reused_nets", Json.Int stats.Rlc_flow.Flow.reused);
      ])

let server_info t =
  {
    Telemetry.workers = t.workers;
    queue_capacity = t.queue_capacity;
    queue_depth = Atomic.get t.queue_depth;
    reads = Memo.stats t.reads;
  }

(* Every kind but the reads answers fields, encoded here. *)
let dispatch t (kind : Protocol.kind) : (reply, Error.t) result * [ `Continue | `Stop ] =
  let ( let* ) = Result.bind in
  let fields ?(control = `Continue) outcome = (Result.map (reply_of t) outcome, control) in
  match kind with
  | Protocol.Flow f -> (read t f, `Continue)
  | Protocol.Xtalk (f, x) -> (read t ~xtalk:(xtalk_of x) f, `Continue)
  | Protocol.Ping -> fields (Ok [ ("pong", Json.Bool true) ])
  | Protocol.Stats ->
      let s = Session.stats t.session in
      fields
        (Ok
          [
            ("uptime_s", Json.Float s.Session.uptime_s);
            ("requests_served", Json.Int s.Session.requests_served);
            ("requests_failed", Json.Int s.Session.requests_failed);
            ("cache", Telemetry.cache_json s (Session.shard_stats t.session));
            ("designs", Telemetry.designs_json (Session.design_stats t.session));
            ("reads", Telemetry.reads_json (Memo.stats t.reads));
            ( "server",
              Json.Obj
                [
                  ("workers", Json.Int t.workers);
                  ("queue_capacity", Json.Int t.queue_capacity);
                  ("queue_depth", Json.Int (Atomic.get t.queue_depth));
                ] );
          ])
  | Protocol.Metrics ->
      fields
        (Ok
           (Telemetry.metrics_fields ~session:t.session ~server:(server_info t)
              ~window:t.window ()))
  | Protocol.Health ->
      fields
        (Ok
           (Telemetry.health_fields ~session:t.session ~server:(server_info t)
              ~window:t.window ()))
  | Protocol.Shutdown -> fields ~control:`Stop (Ok [ ("stopping", Json.Bool true) ])
  | Protocol.Design_load (f, x) -> fields (run_design_load t f x)
  | Protocol.Flow_delta d -> fields (run_flow_delta t d)
  | Protocol.Design_unload handle ->
      fields
        (let* () = Session.design_unload t.session handle in
         Ok [ ("unloaded", Json.Bool true) ])
  | Protocol.Sweep_case c ->
      fields
        (let* case = case_of t c in
         let* cmp = Session.sweep_case t.session ?dt:(Option.map Units.ps c.Protocol.c_dt_ps) case in
         Ok
           [
             ("reference", metrics_fields cmp.Evaluate.reference);
             ("auto", metrics_fields cmp.Evaluate.auto);
             ("two_ramp", metrics_fields cmp.Evaluate.two_ramp);
             ("one_ramp", metrics_fields cmp.Evaluate.one_ramp);
             ("auto_shape", Json.Str (shape_name cmp.Evaluate.auto_model));
             ("delay_err_pct", Json.Float (Evaluate.delay_err_pct cmp cmp.Evaluate.auto));
             ("slew_err_pct", Json.Float (Evaluate.slew_err_pct cmp cmp.Evaluate.auto));
           ])
  | Protocol.Screen c ->
      fields
        (let* case = case_of t c in
         let* model = Session.screen t.session case in
         Ok
           (screen_fields model.Rlc_ceff.Driver_model.screen
           @ [ ("shape", Json.Str (shape_name model)) ]))

let budget_of t (req : Protocol.request) =
  match req.Protocol.timeout_ms with
  | Some ms -> float_of_int ms /. 1000.
  | None -> t.timeout_s

let kind_name = function
  | Protocol.Flow _ -> "flow"
  | Protocol.Xtalk _ -> "xtalk"
  | Protocol.Sweep_case _ -> "sweep_case"
  | Protocol.Screen _ -> "screen"
  | Protocol.Design_load _ -> "design_load"
  | Protocol.Flow_delta _ -> "flow_delta"
  | Protocol.Design_unload _ -> "design_unload"
  | Protocol.Ping -> "ping"
  | Protocol.Stats -> "stats"
  | Protocol.Metrics -> "metrics"
  | Protocol.Health -> "health"
  | Protocol.Shutdown -> "shutdown"

(* Every failure line the daemon writes, from whichever stage refused the
   request: counted in the session totals, logged, and answered in the
   request's own envelope. *)
let failure t envelope e =
  Session.note t.session ~ok:false;
  Log.info (fun m -> m "request failed: %s" (Error.to_string e));
  Protocol.error_response envelope e

(* Serve one decoded request.  Its trace id is installed around dispatch
   and encoding, its deadline around dispatch (which encodes a success):
   this is the one place either is installed for a request, and every
   span recorded below, on any pool domain, carries the trace.
   Per-request isolation: whatever escapes — an expired deadline from any
   depth of the stack, an unexpected exception — becomes a typed error
   response and the caller keeps serving.  Never raises.  The response is
   its pieces in order, without the newline: a success is the envelope's
   prefix and the reply's body, never joined. *)
let respond t ~deadline ~trace envelope (req : Protocol.request) =
  Obs.with_trace (Some trace) (fun () ->
      let outcome, control =
        match Deadline.with_ambient deadline (fun () -> dispatch t req.Protocol.kind) with
        | v -> v
        | exception Deadline.Expired budget -> (Error (Error.Timeout budget), `Continue)
        | exception Fun.Finally_raised (Deadline.Expired budget) ->
            (Error (Error.Timeout budget), `Continue)
        | exception e -> (Error (Error.of_exn e), `Continue)
      in
      match outcome with
      | Ok reply ->
          Session.note t.session ~ok:true;
          ([ Protocol.ok_prefix envelope; reply.body ], control, Ok reply)
      | Error e ->
          (match e with Error.Timeout _ -> Obs.incr (obs t) "service.timeouts" | _ -> ());
          ([ encode t (fun () -> failure t envelope e) ], `Continue, Error e))

(* The slow-log keys of a request's split: the daemon's own layers. *)
let split_keys =
  [
    ("ingest_ms", "design.ingest");
    ("render_ms", "report.render");
    ("encode_ms", "service.encode");
  ]

let slow_log t ~trace ~kind ~queue_wait_s ~wall_s ~worker ~split outcome =
  match t.slow_ms with
  | Some threshold when wall_s *. 1e3 >= threshold ->
      let ok, cache_hits, memo =
        match outcome with
        | Error _ -> (false, None, None)
        | Ok r -> (true, r.cache_hits, r.memo)
      in
      let line =
        Json.to_string
          (Json.Obj
             ([
                ("slow_request", Json.Bool true);
                ("trace", Json.Str trace);
                ("kind", Json.Str kind);
                ("queue_wait_ms", Json.Float (queue_wait_s *. 1e3));
                ("wall_ms", Json.Float (wall_s *. 1e3));
                ("ok", Json.Bool ok);
                ("worker", Json.Int worker);
              ]
             @ (match cache_hits with Some n -> [ ("cache_hits", Json.Int n) ] | None -> [])
             @ (match memo with Some b -> [ ("memo", Json.Bool b) ] | None -> [])
             @ List.map
                 (fun (key, layer) ->
                   ( key,
                     Json.Float (1e3 *. Option.value (List.assoc_opt layer split) ~default:0.) ))
                 split_keys))
      in
      Mutex.lock t.log_mutex;
      output_string t.slow_channel line;
      output_char t.slow_channel '\n';
      flush t.slow_channel;
      Mutex.unlock t.log_mutex
  | _ -> ()

(* Full per-request bookkeeping around [respond]: wall-time measurement,
   the request counters and latency histogram the telemetry window is
   built from, the ["service.request"] span, and the slow-request log.
   [worker] is the executor domain index, or [-1] for requests served on
   the serving loop itself (pipe mode and inline [metrics]/[health]). *)
let serve_request t ~deadline ~trace ~queue_wait_s ~worker envelope (req : Protocol.request) =
  let o = obs t in
  let kind = kind_name req.Protocol.kind in
  let t0 = Unix.gettimeofday () in
  let (response, control, outcome), split =
    Obs.with_split (fun () -> respond t ~deadline ~trace envelope req)
  in
  let wall_s = Unix.gettimeofday () -. t0 in
  if Obs.enabled o then begin
    (* Telemetry scrapes stay out of the window's rate counter and latency
       histogram: with a 1 Hz scraper and sparse real traffic, the ~µs
       metrics/health replies would otherwise dominate req/s and p50/p95.
       They still count in the per-kind counters and in the exact session
       totals ([Session.note] in [respond]) that CI reconciles. *)
    (match req.Protocol.kind with
    | Protocol.Metrics | Protocol.Health -> ()
    | _ ->
        Obs.incr o "service.requests";
        Obs.observe o "service.request_s" wall_s);
    Obs.incr o ("service.requests." ^ kind);
    Obs.finish o
      ~args:[ ("worker", string_of_int worker); ("kind", kind); ("trace", trace) ]
      "service.request" t0
  end;
  slow_log t ~trace ~kind ~queue_wait_s ~wall_s ~worker ~split outcome;
  (response, control)

(* One line served on the serving loop: the response's pieces. *)
let handle_pieces t line =
  tick t;
  match Protocol.parse_request ~max_bytes:t.max_request_bytes line with
  | envelope, Error e -> ([ failure t envelope e ], `Continue)
  | envelope, Ok req ->
      serve_request t
        ~deadline:(Deadline.start (budget_of t req))
        ~trace:(mint_trace t) ~queue_wait_s:0. ~worker:(-1) envelope req

let handle_line t line =
  let pieces, control = handle_pieces t line in
  (String.concat "" pieces, control)

(* ---------------------------------------------------------- pipe mode *)

let serve_channels t ic oc =
  install_signals t;
  let rec loop () =
    if stopped t then ()
    else
      match input_line ic with
      | exception End_of_file -> ()
      | line when String.trim line = "" -> loop ()
      | line -> (
          let pieces, control = handle_pieces t line in
          List.iter (output_string oc) pieces;
          output_char oc '\n';
          flush oc;
          match control with
          | `Stop -> Atomic.set t.stop true
          | `Continue -> loop ())
  in
  loop ()

(* ------------------------------------------- bounded admission queue *)

module Bqueue = struct
  type 'a t = {
    items : 'a Queue.t;
    capacity : int;
    mutex : Mutex.t;
    nonempty : Condition.t;
    mutable closed : bool;
  }

  let create capacity =
    {
      items = Queue.create ();
      capacity;
      mutex = Mutex.create ();
      nonempty = Condition.create ();
      closed = false;
    }

  let locked q f =
    Mutex.lock q.mutex;
    Fun.protect ~finally:(fun () -> Mutex.unlock q.mutex) f

  let try_push q x =
    locked q (fun () ->
        if q.closed then `Closed
        else if Queue.length q.items >= q.capacity then `Full
        else begin
          Queue.push x q.items;
          Condition.signal q.nonempty;
          `Ok
        end)

  (* Blocks until an item is available; after [close], drains whatever is
     still queued and then returns [None] forever. *)
  let pop q =
    locked q (fun () ->
        let rec go () =
          if not (Queue.is_empty q.items) then Some (Queue.pop q.items)
          else if q.closed then None
          else begin
            Condition.wait q.nonempty q.mutex;
            go ()
          end
        in
        go ())

  let close q =
    locked q (fun () ->
        q.closed <- true;
        Condition.broadcast q.nonempty)
end

(* --------------------------------------------- concurrent unix mode *)

type conn = {
  fd : Unix.file_descr;
  buf : Buffer.t;  (* received bytes not yet consumed as lines *)
  mutable in_flight : bool;  (* one outstanding request per connection *)
  mutable alive : bool;
  mutable discarding : bool;  (* skipping an oversized unterminated line *)
}

type job = {
  j_conn : conn;
  j_envelope : Protocol.envelope;
  j_req : Protocol.request;
  j_deadline : Deadline.t;
  j_budget : float;
  j_enqueued : float;
  j_trace : string;  (* minted at admission, before any queueing *)
}

type runtime = {
  queue : job Bqueue.t;
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
  done_mutex : Mutex.t;
  mutable done_conns : conn list;
      (* responded by a worker; the listener re-arms their reads *)
}

(* Blocking write of one response line — each piece, then the newline,
   straight from its string — restarted on EINTR; a vanished client
   (EPIPE with SIGPIPE ignored) just marks the connection dead. *)
let write_response conn pieces =
  let write_all s =
    let n = String.length s in
    let rec go off =
      if off < n && conn.alive then
        match Unix.write_substring conn.fd s off (n - off) with
        | w -> go (off + w)
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
        | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET | Unix.EBADF), _, _) ->
            conn.alive <- false
    in
    go 0
  in
  List.iter write_all pieces;
  write_all "\n"

let take_line conn =
  let s = Buffer.contents conn.buf in
  match String.index_opt s '\n' with
  | None -> None
  | Some i ->
      Buffer.clear conn.buf;
      Buffer.add_substring conn.buf s (i + 1) (String.length s - i - 1);
      Some (String.sub s 0 i)

(* Listener-side line pump for one connection.  Runs only while the
   connection has no request in flight, so worker writes never interleave
   with the inline replies issued here (parse errors and queue-full
   rejections are answered by the listener without a queue slot). *)
let rec advance t rt conn =
  if conn.alive && not conn.in_flight then
    if conn.discarding then begin
      let s = Buffer.contents conn.buf in
      match String.index_opt s '\n' with
      | None -> Buffer.clear conn.buf
      | Some i ->
          conn.discarding <- false;
          Buffer.clear conn.buf;
          Buffer.add_substring conn.buf s (i + 1) (String.length s - i - 1);
          advance t rt conn
    end
    else if
      Buffer.length conn.buf > t.max_request_bytes
      && not (String.contains (Buffer.contents conn.buf) '\n')
    then begin
      (* An unterminated line already over the limit: reject it now, then
         skip the rest of it as it streams in — the connection stays
         usable and the server never buffers an unbounded line. *)
      write_response conn
        [
          failure t Protocol.no_envelope
            (Error.Bad_request
               (Printf.sprintf "request is over %d bytes; the limit is %d" (Buffer.length conn.buf)
                  t.max_request_bytes));
        ];
      conn.discarding <- true;
      Buffer.clear conn.buf
    end
    else
      match take_line conn with
      | None -> ()
      | Some line when String.trim line = "" -> advance t rt conn
      | Some line -> (
          match Protocol.parse_request ~max_bytes:t.max_request_bytes line with
          | envelope, Error e ->
              write_response conn [ failure t envelope e ];
              advance t rt conn
          | envelope, Ok ({ Protocol.kind = Protocol.Metrics | Protocol.Health; _ } as req) ->
              (* Telemetry must answer even when the admission queue is
                 saturated: the listener serves these two kinds inline —
                 they read atomics and the window, never the engine — so a
                 scraper or load balancer keeps getting answers exactly
                 when the queue-full signal matters most. *)
              tick t;
              let response, _ =
                serve_request t ~deadline:Deadline.never ~trace:(mint_trace t)
                  ~queue_wait_s:0. ~worker:(-1) envelope req
              in
              write_response conn response;
              advance t rt conn
          | envelope, Ok req -> (
              let budget = budget_of t req in
              let job =
                {
                  j_conn = conn;
                  j_envelope = envelope;
                  j_req = req;
                  j_deadline = Deadline.start budget;
                  j_budget = budget;
                  j_enqueued = Unix.gettimeofday ();
                  j_trace = mint_trace t;
                }
              in
              match Bqueue.try_push rt.queue job with
              | `Ok ->
                  Atomic.incr t.queue_depth;
                  conn.in_flight <- true;
                  let o = obs t in
                  if Obs.enabled o then begin
                    Obs.incr o "service.admitted";
                    Obs.observe o "service.queue_depth" (float_of_int (Atomic.get t.queue_depth))
                  end
              | `Full | `Closed ->
                  (* Admission control: overload is a fast, typed rejection
                     on the existing wire code, not unbounded latency. *)
                  Obs.incr (obs t) "service.rejected_queue_full";
                  write_response conn [ failure t envelope (Error.Timeout budget) ];
                  advance t rt conn))

let worker_loop t rt wid =
  let o = obs t in
  let rec loop () =
    match Bqueue.pop rt.queue with
    | None -> ()
    | Some job ->
        Atomic.decr t.queue_depth;
        let queue_wait_s = Float.max 0. (Unix.gettimeofday () -. job.j_enqueued) in
        if Obs.enabled o then Obs.observe o "service.queue_wait_s" queue_wait_s;
        let response, control =
          if Deadline.expired job.j_deadline then begin
            (* Expired while queued: answer without burning a worker. *)
            Obs.incr o "service.rejected_expired";
            ([ failure t job.j_envelope (Error.Timeout job.j_budget) ], `Continue)
          end
          else if stopped t then
            (* Shutdown drain: queued-but-unstarted requests get a typed
               timeout instead of a silently closed connection. *)
            ([ failure t job.j_envelope (Error.Timeout job.j_budget) ], `Continue)
          else
            serve_request t ~deadline:job.j_deadline ~trace:job.j_trace ~queue_wait_s
              ~worker:wid job.j_envelope job.j_req
        in
        write_response job.j_conn response;
        (match control with `Stop -> stop t | `Continue -> ());
        Mutex.lock rt.done_mutex;
        rt.done_conns <- job.j_conn :: rt.done_conns;
        Mutex.unlock rt.done_mutex;
        wake_listener t;
        loop ()
  in
  loop ()

let serve_unix t ~path =
  install_signals t;
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let wake_r, wake_w = Unix.pipe () in
  (* The SIGTERM handler writes the wake byte; it must never block. *)
  Unix.set_nonblock wake_w;
  Atomic.set t.wake (Some wake_w);
  let rt =
    {
      queue = Bqueue.create t.queue_capacity;
      wake_r;
      wake_w;
      done_mutex = Mutex.create ();
      done_conns = [];
    }
  in
  let conns : conn list ref = ref [] in
  let workers = List.init t.workers (fun wid -> Domain.spawn (fun () -> worker_loop t rt wid)) in
  let chunk = Bytes.create 65536 in
  let close_quiet fd = try Unix.close fd with Unix.Unix_error _ -> () in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set t.stop true;
      (* Workers drain the queue (typed-timeout replies for anything still
         waiting) and exit; only then are the descriptors torn down, so
         every admitted request gets its response written first. *)
      Bqueue.close rt.queue;
      List.iter Domain.join workers;
      Atomic.set t.wake None;
      List.iter (fun c -> close_quiet c.fd) !conns;
      close_quiet wake_r;
      close_quiet wake_w;
      close_quiet sock;
      try Unix.unlink path with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.bind sock (Unix.ADDR_UNIX path);
      Unix.listen sock t.backlog;
      Log.info (fun m ->
          m "listening on %s (workers %d, queue %d, backlog %d)" path t.workers t.queue_capacity
            t.backlog);
      (* Baseline window sample at serve start, so the first real tick
         already yields a delta. *)
      tick t;
      while not (stopped t) do
        tick t;
        (* Connections whose response was just written resume reading; any
           buffered next request is admitted right away. *)
        Mutex.lock rt.done_mutex;
        let finished = rt.done_conns in
        rt.done_conns <- [];
        Mutex.unlock rt.done_mutex;
        List.iter
          (fun c ->
            c.in_flight <- false;
            advance t rt c)
          finished;
        (* A connection that died while in flight is still owned by its
           worker; it is swept here on the turn after its done handoff. *)
        let dead, live = List.partition (fun c -> (not c.alive) && not c.in_flight) !conns in
        List.iter (fun c -> close_quiet c.fd) dead;
        conns := live;
        let readable = List.filter (fun c -> c.alive && not c.in_flight) live in
        let fds = sock :: rt.wake_r :: List.map (fun c -> c.fd) readable in
        (* With telemetry on, wake for the next window sample even when no
           traffic arrives; an idle daemon still advances its window. *)
        let timeout =
          if Obs.enabled (obs t) then
            Float.max 0.01 (t.next_tick -. Unix.gettimeofday ())
          else -1.
        in
        match Unix.select fds [] [] timeout with
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
        | ready, _, _ ->
            if List.memq rt.wake_r ready then begin
              try ignore (Unix.read rt.wake_r chunk 0 (Bytes.length chunk))
              with Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
            end;
            if List.memq sock ready then begin
              match Unix.accept sock with
              | exception
                  Unix.Unix_error
                    ((Unix.EINTR | Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.ECONNABORTED), _, _) ->
                  ()
              | fd, _ ->
                  Obs.incr (obs t) "service.connections";
                  conns :=
                    { fd; buf = Buffer.create 1024; in_flight = false; alive = true; discarding = false }
                    :: !conns
            end;
            List.iter
              (fun c ->
                if List.memq c.fd ready then
                  match Unix.read c.fd chunk 0 (Bytes.length chunk) with
                  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
                  | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
                      c.alive <- false
                  | 0 -> c.alive <- false
                  | n ->
                      Buffer.add_subbytes c.buf chunk 0 n;
                      advance t rt c)
              readable
      done)
