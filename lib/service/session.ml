(* A resident timing session: the warm state (characterization memo tables,
   the shared Ceff result cache, the domain pool, resident incrementally
   timed designs) plus the typed operations the server and the CLI both
   call.  Keeping one code path here is what makes the daemon's flow
   reports byte-identical to `rlc_timing flow`. *)

module Flow = Rlc_flow.Flow
module Report = Rlc_flow.Report
module Evaluate = Rlc_ceff.Evaluate
module Units = Rlc_num.Units
module Pool = Rlc_parallel.Pool
module Memo = Rlc_obs.Memo

module Config = struct
  type t = {
    tech : Rlc_devices.Tech.t;
    jobs : int;
    dt : float;
    use_cache : bool;
    default_size : float;
    default_slew : float;
    design_capacity : int;
    obs : Rlc_obs.Obs.t;
  }

  let default =
    {
      tech = Rlc_devices.Tech.c018;
      jobs = 1;
      dt = 0.5e-12;
      use_cache = true;
      default_size = 75.;
      default_slew = 100e-12;
      design_capacity = 8;
      obs = Rlc_obs.Obs.null;
    }
end

type xtalk_request = { threshold : float; budget : float; alignments : int }

let default_xtalk =
  {
    threshold = Rlc_xtalk.Xtalk.Config.default.Rlc_xtalk.Xtalk.Config.threshold;
    budget = Rlc_xtalk.Xtalk.Config.default.Rlc_xtalk.Xtalk.Config.budget;
    alignments = Rlc_xtalk.Xtalk.Config.default.Rlc_xtalk.Xtalk.Config.alignments;
  }

(* The whole per-request knob surface as one typed value, shared by the
   CLI one-shot path and both protocol schemas — v1 [flow] and v2
   [design_load] decode into the same record, so report byte-identity
   across entry points is structural, not incidental. *)
module Request = struct
  type t = {
    required : float option;
    use_cache : bool option;
    dt : float option;
    adaptive : Rlc_circuit.Engine.adaptive option;
    progress : Rlc_obs.Progress.t option;
    xtalk : xtalk_request option;
  }

  let default =
    {
      required = None;
      use_cache = None;
      dt = None;
      adaptive = None;
      progress = None;
      xtalk = None;
    }
end

(* A resident incrementally timed design.  [timed] is replaced wholesale on
   each applied delta under [lock].  [req] is the load-time request without
   its [progress] sink.  [entries] holds the last report's per-net entries,
   which the next delta's report copies where their inputs are unchanged
   (also only under [lock]). *)
type design_entry = {
  req : Request.t;
  mutable timed : Flow.Timed.t;
  entries : Report.entries;
  lock : Mutex.t;
}

type t = {
  config : Config.t;
  pool : Pool.t;
  cache : Flow.cache;
  started_at : float;
  (* counted from concurrent server worker domains *)
  served : int Atomic.t;
  failed : int Atomic.t;
  designs : (string, design_entry) Memo.t;  (* one shard: LRU over every handle *)
  design_seq : int Atomic.t;
  mutable closed : bool;
}

type stats = {
  uptime_s : float;
  requests_served : int;
  requests_failed : int;
  cache : Memo.stats;
}

type design_store_stats = { ds_store : Memo.stats; ds_nets : int }

let create ?(config = Config.default) () =
  {
    config;
    pool = Pool.create ~jobs:(Int.max 1 config.Config.jobs) ();
    cache = Flow.create_cache ();
    started_at = Unix.gettimeofday ();
    served = Atomic.make 0;
    failed = Atomic.make 0;
    designs = Memo.create ~capacity:(Int.max 1 config.Config.design_capacity) ();
    design_seq = Atomic.make 0;
    closed = false;
  }

let config t = t.config

let close t =
  if not t.closed then begin
    t.closed <- true;
    Pool.shutdown t.pool
  end

let with_session ?config f =
  let t = create ?config () in
  Fun.protect ~finally:(fun () -> close t) (fun () -> f t)

let note t ~ok = Atomic.incr (if ok then t.served else t.failed)

let is_closed t = t.closed

let shard_stats (t : t) = Memo.shard_stats t.cache

let stats (t : t) =
  {
    uptime_s = Unix.gettimeofday () -. t.started_at;
    requests_served = Atomic.get t.served;
    requests_failed = Atomic.get t.failed;
    cache = Memo.stats t.cache;
  }

(* Map the raising conventions of the numeric layers to typed errors.
   Deliberately NOT a catch-all: unknown exceptions (including
   [Rlc_errors.Deadline.Expired]) must keep propagating to the caller's
   own handler. *)
let guard f =
  match f () with
  | v -> Ok v
  | exception Invalid_argument msg -> Error (Error.Bad_request msg)
  | exception Failure msg -> Error (Error.Internal msg)
  | exception (Rlc_circuit.Engine.Newton_diverged _ as e) ->
      Error (Error.Internal (Printexc.to_string e))

(* --------------------------------------------------------------- flow *)

let parse_sources t ?spef_name ?spec ?spec_name ?size ?slew ~spef () =
  let ( let* ) = Result.bind in
  let* spef = Rlc_spef.Spef.parse_res ?file:spef_name spef in
  let* spec =
    match spec with
    | Some src -> Rlc_flow.Spec.parse_res ?file:spec_name src
    | None ->
        let size = Option.value size ~default:t.config.Config.default_size in
        let slew = Option.value slew ~default:t.config.Config.default_slew in
        guard (fun () -> Rlc_flow.Spec.default_of_spef ~size ~slew spef)
  in
  Ok (spef, spec)

let ingest t ?spef_name ?spec ?spec_name ?size ?slew ~spef () =
  let ( let* ) = Result.bind in
  let* spef, spec = parse_sources t ?spef_name ?spec ?spec_name ?size ?slew ~spef () in
  match
    Rlc_flow.Design.ingest ~tech:t.config.Config.tech ~obs:t.config.Config.obs ~pool:t.pool ~spef
      ~spec ()
  with
  | Ok d -> Ok d
  | Error msg -> Error (Error.Bad_request msg)

type flow_outcome = {
  result : Flow.result;
  xtalk : Rlc_xtalk.Xtalk.result option;
  report : string;
  report_escaped : string list option;
}

let uses_cache t (req : Request.t) =
  Option.value req.Request.use_cache ~default:t.config.Config.use_cache

let flow_cfg t (req : Request.t) =
  {
    Flow.Config.dt = Option.value req.Request.dt ~default:t.config.Config.dt;
    adaptive = req.Request.adaptive;
    jobs = None;
    use_cache = uses_cache t req;
    cache = Some t.cache;
    obs = t.config.Config.obs;
    progress = req.Request.progress;
    pool = Some t.pool;
  }

(* Crosstalk analysis + report rendering over a finished flow result —
   identical for a cold [flow], a [design_load], and every [flow_delta]
   (Xtalk.analyze is a pure function of the result, the coupling graph and
   the config, so re-running it wholesale preserves byte-identity). *)
let outcome_of ?entries t (req : Request.t) (result : Flow.result) =
  let xtalk =
    Option.map
      (fun x ->
        Rlc_xtalk.Xtalk.analyze
          ~config:
            {
              Rlc_xtalk.Xtalk.Config.default with
              Rlc_xtalk.Xtalk.Config.threshold = x.threshold;
              budget = x.budget;
              alignments = x.alignments;
              dt = Option.value req.Request.dt ~default:t.config.Config.dt;
              pool = Some t.pool;
              obs = t.config.Config.obs;
            }
          result)
      req.Request.xtalk
  in
  let fragment = Option.map (Rlc_xtalk.Xtalk.json_fragment result.Flow.design) xtalk in
  let obs = t.config.Config.obs and required = req.Request.required in
  let report, report_escaped =
    match entries with
    | Some entries ->
        let report, escaped =
          Report.json_escaped ~obs ~pool:t.pool ?required ?xtalk:fragment ~entries result
        in
        (report, Some escaped)
    | None -> (Report.json_string ~obs ~pool:t.pool ?required ?xtalk:fragment result, None)
  in
  { result; xtalk; report; report_escaped }

let flow t (req : Request.t) design =
  let cfg = flow_cfg t req in
  guard (fun () -> outcome_of t req (Flow.run_cfg cfg design))

(* ------------------------------------------------------- design store *)

let unknown_handle handle =
  Error.Bad_request (Printf.sprintf "unknown design handle %S" handle)

(* Inserting beyond the store's capacity evicts the least recently used
   handle.  An in-flight delta on it finishes on its own reference; only
   the store entry goes away. *)
let register t ~req ~entries timed =
  let handle = "d" ^ string_of_int (1 + Atomic.fetch_and_add t.design_seq 1) in
  Memo.replace t.designs handle { req; timed; entries; lock = Mutex.create () };
  handle

let design_load t ?spef_name ?spec ?spec_name ?size ?slew ~req ~spef () =
  let ( let* ) = Result.bind in
  let* spef, spec = parse_sources t ?spef_name ?spec ?spec_name ?size ?slew ~spef () in
  let cfg = flow_cfg t req in
  let* timed =
    Result.join
      (guard (fun () -> Flow.time ~tech:t.config.Config.tech cfg ~spef ~spec ()))
  in
  let entries = Report.entries ~escape:Json.escape () in
  let* outcome = guard (fun () -> outcome_of ~entries t req (Flow.Timed.result timed)) in
  let stored = { req with Request.progress = None } in
  let handle = register t ~req:stored ~entries timed in
  Ok (handle, outcome)

let flow_delta t ~handle delta =
  match Memo.find t.designs handle with
  | None -> Error (unknown_handle handle)
  | Some entry ->
      (* The entry lock serializes deltas per handle: each one re-times
         against the state its predecessor left. *)
      Mutex.protect entry.lock (fun () ->
          let ( let* ) = Result.bind in
          let req = entry.req in
          let* timed, delta_stats =
            Result.join
              (guard (fun () ->
                   Flow.retime ~xtalk_victims:(req.Request.xtalk <> None) entry.timed delta))
          in
          let* outcome =
            guard (fun () ->
                outcome_of ~entries:entry.entries t req (Flow.Timed.result timed))
          in
          entry.timed <- timed;
          Ok (outcome, delta_stats))

let design_unload t handle =
  if Memo.remove t.designs handle then Ok () else Error (unknown_handle handle)

let design_stats t =
  {
    ds_store = Memo.stats t.designs;
    ds_nets =
      Memo.fold
        (fun _ e acc -> acc + Rlc_flow.Design.n_nets (Flow.Timed.design e.timed))
        t.designs 0;
  }

(* --------------------------------------------------------------- case *)

let case t ?slew_ps ?cl_ff ~length_mm ~width_um ~size () =
  let input_slew_ps =
    Option.value slew_ps ~default:(Units.in_ps t.config.Config.default_slew)
  in
  if length_mm <= 0. || width_um <= 0. || size <= 0. || input_slew_ps <= 0. then
    Error
      (Error.Bad_request
         (Printf.sprintf "case wants positive length/width/size/slew, got %g mm / %g um / %gX / %g ps"
            length_mm width_um size input_slew_ps))
  else
  guard (fun () ->
      Evaluate.case ~tech:t.config.Config.tech
        ?cl:(Option.map Units.ff cl_ff)
        ~label:"service" ~length_mm ~width_um ~size ~input_slew_ps ())

(* Characterization runs on the session's pool, so a [--jobs 1] daemon
   keeps it on the domain serving the request. *)
let cell t tech size =
  Rlc_liberty.Characterize.cell_res ~obs:t.config.Config.obs ~pool:t.pool tech ~size

(* The case's cell first, so [Evaluate.run] finds it in the store. *)
let sweep_case t ?dt (case : Evaluate.case) =
  let ( let* ) = Result.bind in
  let* _ = cell t case.Evaluate.tech case.Evaluate.size in
  guard (fun () ->
      Evaluate.run ~obs:t.config.Config.obs ~dt:(Option.value dt ~default:t.config.Config.dt) case)

let screen t (case : Evaluate.case) =
  let ( let* ) = Result.bind in
  let* cell = cell t t.config.Config.tech case.Evaluate.size in
  guard (fun () ->
      Rlc_ceff.Driver_model.model ~obs:t.config.Config.obs ~cell ~edge:Rlc_waveform.Measure.Rising
        ~input_slew:case.Evaluate.input_slew ~line:case.Evaluate.line ~cl:case.Evaluate.cl ())

let rec warm t = function
  | [] -> Ok ()
  | size :: rest -> Result.bind (cell t t.config.Config.tech size) (fun _ -> warm t rest)
