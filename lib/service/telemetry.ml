(* Live serving telemetry: the [metrics] and [health] response bodies.

   Everything here is assembled from three sources that already exist —
   the session's exact atomic request/cache accounting, the server's queue
   gauges, and the rolling [Rlc_obs.Window] the listener's ticker feeds —
   so producing a telemetry response never touches the engine, the pool,
   or the span buffers.  Counters sourced from the window are at most one
   tick stale; [service_requests_total] is rendered from the session
   atomics and is exact, which is what lets CI reconcile it against the
   client-side request count. *)

module Obs = Rlc_obs.Obs
module Window = Rlc_obs.Window
module Memo = Rlc_obs.Memo

type server_info = {
  workers : int;
  queue_capacity : int;
  queue_depth : int;
  reads : Memo.stats;
}

(* ceil(0.8 * capacity), >= 1: readiness flips before the queue is
   actually full, giving load balancers a margin to drain. *)
let high_water capacity = Int.max 1 (((4 * capacity) + 4) / 5)

(* ------------------------------------------------------------- helpers *)

let memo_json ?(extra = []) (s : Memo.stats) =
  Json.Obj
    ([
       ("entries", Json.Int s.Memo.entries);
       ("capacity", Json.Int s.Memo.capacity);
       ("hits", Json.Int s.Memo.hits);
       ("misses", Json.Int s.Memo.misses);
       ("evictions", Json.Int s.Memo.evictions);
     ]
    @ extra)

let shard_json (s : Memo.stats) =
  Json.Obj
    [
      ("entries", Json.Int s.Memo.entries);
      ("hits", Json.Int s.Memo.hits);
      ("misses", Json.Int s.Memo.misses);
    ]

let shards_json shards = Json.List (Array.to_list (Array.map shard_json shards))

let cache_json (stats : Session.stats) shards =
  memo_json ~extra:[ ("shards", shards_json shards) ] stats.Session.cache

let designs_json (d : Session.design_store_stats) =
  memo_json
    ~extra:
      [
        ("handles", Json.Int d.Session.ds_store.Memo.entries);
        ("nets", Json.Int d.Session.ds_nets);
      ]
    d.Session.ds_store

let reads_json (s : Memo.stats) = memo_json ~extra:[ ("bytes", Json.Int s.Memo.weight) ] s

let latest_counter window name =
  match Window.latest window with
  | None -> 0
  | Some s -> (
      match List.assoc_opt name s.Window.counters with Some n -> n | None -> 0)

let latest_stat window name =
  match Window.latest window with
  | None -> None
  | Some s -> List.assoc_opt name s.Window.stats

let kind_prefix = "service.requests."

(* Per-kind totals, read from the freshest cumulative sample: the ticker
   counters are named ["service.requests.<kind>"]. *)
let kind_totals window =
  match Window.latest window with
  | None -> []
  | Some s ->
      List.filter_map
        (fun (name, n) ->
          let lp = String.length kind_prefix in
          if
            String.length name > lp
            && String.equal (String.sub name 0 lp) kind_prefix
          then Some (String.sub name lp (String.length name - lp), n)
          else None)
        s.Window.counters

(* ------------------------------------------------------- window digest *)

type window_view = {
  span_s : float;
  samples : int;
  requests_per_s : float;
  timeouts_per_s : float;
  rejections_per_s : float;
  cache_hit_ratio : float;  (* nan when the window saw no cache traffic *)
  p50_s : float;  (* nan when the window saw no finished requests *)
  p95_s : float;
  p99_s : float;
  utilization : float;  (* busy-seconds / (span * workers), clamped to 1 *)
}

let window_view ~workers window =
  let span = Window.span_s window in
  let latency = Window.stat_delta window "service.request_s" in
  let q p =
    match latency with
    | Some s when s.Obs.count > 0 -> Obs.Histogram.quantile s p
    | _ -> Float.nan
  in
  let hits = Window.counter_delta window "flow.cache.hits" in
  let misses = Window.counter_delta window "flow.cache.misses" in
  {
    span_s = span;
    samples = Window.samples window;
    requests_per_s = Window.rate window "service.requests";
    timeouts_per_s = Window.rate window "service.timeouts";
    rejections_per_s =
      Window.rate window "service.rejected_queue_full"
      +. Window.rate window "service.rejected_expired";
    cache_hit_ratio =
      (if hits + misses = 0 then Float.nan
       else float_of_int hits /. float_of_int (hits + misses));
    p50_s = q 0.5;
    p95_s = q 0.95;
    p99_s = q 0.99;
    utilization =
      (match latency with
      | Some s when span > 0. && workers > 0 ->
          Float.min 1. (s.Obs.sum /. (span *. float_of_int workers))
      | _ -> Float.nan);
  }

(* -------------------------------------------------- prometheus rendering *)

(* %g is enough here: counters are integers and gauges/durations don't
   need round-trip precision in an exposition meant for scrapers. *)
let prom_float v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%g" v

let prometheus ~(stats : Session.stats) ~shards ~(designs : Session.design_store_stats) ~server
    ~window () =
  let b = Buffer.create 4096 in
  let meta name typ help =
    Printf.bprintf b "# HELP %s %s\n# TYPE %s %s\n" name help name typ
  in
  let sample ?(labels = "") name v =
    Printf.bprintf b "%s%s %s\n" name labels v
  in
  let gauge name help v =
    meta name "gauge" help;
    sample name (prom_float v)
  in
  let counter name help v =
    meta name "counter" help;
    sample name (string_of_int v)
  in
  gauge "service_up" "Whether the daemon is serving requests." 1.;
  gauge "service_uptime_seconds" "Seconds since the session started."
    stats.Session.uptime_s;
  meta "service_requests_total" "counter"
    "Requests finished since start, by outcome.";
  sample "service_requests_total" ~labels:"{outcome=\"ok\"}"
    (string_of_int stats.Session.requests_served);
  sample "service_requests_total" ~labels:"{outcome=\"error\"}"
    (string_of_int stats.Session.requests_failed);
  (match kind_totals window with
  | [] -> ()
  | kinds ->
      meta "service_requests_kind_total" "counter"
        "Requests executed since start, by request kind.";
      List.iter
        (fun (kind, n) ->
          sample "service_requests_kind_total"
            ~labels:(Printf.sprintf "{kind=%S}" kind)
            (string_of_int n))
        kinds);
  counter "service_timeouts_total"
    "Requests that exhausted their deadline budget."
    (latest_counter window "service.timeouts");
  meta "service_rejected_total" "counter"
    "Requests rejected before execution, by reason.";
  sample "service_rejected_total" ~labels:"{reason=\"queue_full\"}"
    (string_of_int (latest_counter window "service.rejected_queue_full"));
  sample "service_rejected_total" ~labels:"{reason=\"expired\"}"
    (string_of_int (latest_counter window "service.rejected_expired"));
  counter "service_connections_total" "Client connections accepted."
    (latest_counter window "service.connections");
  gauge "service_workers" "Executor worker domains."
    (float_of_int server.workers);
  gauge "service_queue_capacity" "Admission queue capacity."
    (float_of_int server.queue_capacity);
  gauge "service_queue_depth" "Requests currently queued."
    (float_of_int server.queue_depth);
  let memo prefix what (m : Memo.stats) =
    gauge (prefix ^ "_entries") (what ^ " entries.") (float_of_int m.Memo.entries);
    gauge (prefix ^ "_capacity") (what ^ " bound on entries.") (float_of_int m.Memo.capacity);
    counter (prefix ^ "_hits_total") (what ^ " hits since start.") m.Memo.hits;
    counter (prefix ^ "_misses_total") (what ^ " misses since start.") m.Memo.misses;
    counter (prefix ^ "_evictions_total") (what ^ " LRU evictions since start.")
      m.Memo.evictions
  in
  memo "service_cache" "Ceff cache" stats.Session.cache;
  let cells = Rlc_liberty.Characterize.stats () in
  memo "service_char" "Characterization store" cells;
  counter "service_char_stores_total" "Characterized cells resident." cells.Memo.entries;
  memo "service_handle" "Compiled transient-handle cache"
    (Rlc_circuit.Engine.Compiled.cache_stats ());
  memo "service_designs" "ECO design store" designs.Session.ds_store;
  gauge "service_designs_resident" "Designs resident in the ECO store."
    (float_of_int designs.Session.ds_store.Memo.entries);
  gauge "service_designs_nets" "Nets held across resident designs."
    (float_of_int designs.Session.ds_nets);
  memo "service_reads" "Served-read memo" server.reads;
  gauge "service_reads_bytes" "Bytes held by the served-read memo."
    (float_of_int server.reads.Memo.weight);
  if Array.length shards > 0 then begin
    meta "service_cache_shard_entries" "gauge"
      "Ceff cache population, by shard.";
    Array.iteri
      (fun i (s : Memo.stats) ->
        sample "service_cache_shard_entries"
          ~labels:(Printf.sprintf "{shard=\"%d\"}" i)
          (string_of_int s.Memo.entries))
      shards;
    meta "service_cache_shard_hits_total" "counter"
      "Ceff cache hits since start, by shard.";
    Array.iteri
      (fun i (s : Memo.stats) ->
        sample "service_cache_shard_hits_total"
          ~labels:(Printf.sprintf "{shard=\"%d\"}" i)
          (string_of_int s.Memo.hits))
      shards;
    meta "service_cache_shard_misses_total" "counter"
      "Ceff cache misses since start, by shard.";
    Array.iteri
      (fun i (s : Memo.stats) ->
        sample "service_cache_shard_misses_total"
          ~labels:(Printf.sprintf "{shard=\"%d\"}" i)
          (string_of_int s.Memo.misses))
      shards
  end;
  let histogram name help (st : Obs.stat_summary) =
    meta name "histogram" help;
    let cum = ref 0 in
    Array.iteri
      (fun i n ->
        cum := !cum + n;
        Printf.bprintf b "%s_bucket{le=\"%s\"} %d\n" name
          (prom_float (Obs.Histogram.bucket_hi i))
          !cum)
      st.Obs.buckets;
    Printf.bprintf b "%s_bucket{le=\"+Inf\"} %d\n" name st.Obs.count;
    Printf.bprintf b "%s_sum %s\n" name (prom_float st.Obs.sum);
    Printf.bprintf b "%s_count %d\n" name st.Obs.count
  in
  (match latest_stat window "service.request_s" with
  | Some st ->
      histogram "service_request_seconds"
        "Request execution wall time (seconds), log2 buckets." st
  | None -> ());
  (match latest_stat window "service.queue_wait_s" with
  | Some st ->
      histogram "service_queue_wait_seconds"
        "Admission-queue wait (seconds), log2 buckets." st
  | None -> ());
  Buffer.contents b

(* ------------------------------------------------------------ responses *)

let ms_of_s v = v *. 1e3

let metrics_fields ~session ~server ~window () =
  let stats = Session.stats session in
  let shards = Session.shard_stats session in
  let designs = Session.design_stats session in
  let wv = window_view ~workers:server.workers window in
  [
    ("uptime_s", Json.Float stats.Session.uptime_s);
    ( "totals",
      Json.Obj
        [
          ("served", Json.Int stats.Session.requests_served);
          ("failed", Json.Int stats.Session.requests_failed);
          ("timeouts", Json.Int (latest_counter window "service.timeouts"));
          ( "rejected_queue_full",
            Json.Int (latest_counter window "service.rejected_queue_full") );
          ( "rejected_expired",
            Json.Int (latest_counter window "service.rejected_expired") );
          ("connections", Json.Int (latest_counter window "service.connections"));
        ] );
    ( "kinds",
      Json.Obj (List.map (fun (k, n) -> (k, Json.Int n)) (kind_totals window))
    );
    ( "window",
      Json.Obj
        [
          ("span_s", Json.Float wv.span_s);
          ("samples", Json.Int wv.samples);
          ("requests_per_s", Json.Float wv.requests_per_s);
          ("timeouts_per_s", Json.Float wv.timeouts_per_s);
          ("rejections_per_s", Json.Float wv.rejections_per_s);
          ("cache_hit_ratio", Json.Float wv.cache_hit_ratio);
          ("p50_ms", Json.Float (ms_of_s wv.p50_s));
          ("p95_ms", Json.Float (ms_of_s wv.p95_s));
          ("p99_ms", Json.Float (ms_of_s wv.p99_s));
          ("utilization", Json.Float wv.utilization);
        ] );
    ( "server",
      Json.Obj
        [
          ("workers", Json.Int server.workers);
          ("queue_capacity", Json.Int server.queue_capacity);
          ("queue_depth", Json.Int server.queue_depth);
          ("queue_high_water", Json.Int (high_water server.queue_capacity));
        ] );
    ("cache", cache_json stats shards);
    ( "characterization",
      (* The process-wide store, shared by every session and one-shot flow
         in the process.  [stores] is its resident entries. *)
      let c = Rlc_liberty.Characterize.stats () in
      memo_json ~extra:[ ("stores", Json.Int c.Memo.entries) ] c );
    ("handles", memo_json (Rlc_circuit.Engine.Compiled.cache_stats ()));
    ("designs", designs_json designs);
    ("reads", reads_json server.reads);
    ("prometheus", Json.Str (prometheus ~stats ~shards ~designs ~server ~window ()));
  ]

let health_fields ~session ~server ~window () =
  let hw = high_water server.queue_capacity in
  let pool_up = not (Session.is_closed session) in
  let queue_ok = server.queue_depth < hw in
  let d_requests = Window.counter_delta window "service.requests" in
  let d_deadline =
    Window.counter_delta window "service.timeouts"
    + Window.counter_delta window "service.rejected_expired"
  in
  (* A deadline storm = more than half the window's finished requests blew
     their budget; a quiet window (no requests) is never a storm. *)
  let storm = d_requests > 0 && 2 * d_deadline > d_requests in
  let ready = pool_up && queue_ok && not storm in
  [
    ("alive", Json.Bool true);
    ("ready", Json.Bool ready);
    ( "checks",
      Json.Obj
        [
          ("pool_up", Json.Bool pool_up);
          ("queue_ok", Json.Bool queue_ok);
          ("no_deadline_storm", Json.Bool (not storm));
        ] );
    ("queue_depth", Json.Int server.queue_depth);
    ("queue_high_water", Json.Int hw);
    ("window_requests", Json.Int d_requests);
    ("window_deadline_failures", Json.Int d_deadline);
  ]
