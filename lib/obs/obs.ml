(* Domain-safe instrumentation sink.

   Every mutation first branches on [t.enabled]; the disabled sink ([null])
   therefore costs one load + test per call site and never touches a clock,
   a hashtable or the allocator, which is what keeps golden outputs
   bit-identical and benchmarks noise-free with instrumentation off.

   When enabled, each domain writes into its own buffer (reached through a
   [Domain.DLS] slot keyed per sink), so worker domains never contend on a
   lock in the hot path; the sink-wide mutex only guards the rare buffer
   registration and the final [snapshot] merge. *)

let now () = Unix.gettimeofday ()

let n_buckets = 32

type stat = {
  mutable s_count : int;
  mutable s_sum : float;
  mutable s_min : float;
  mutable s_max : float;
  s_buckets : int array;  (* log2 buckets, bucket i = [2^i ns, 2^(i+1) ns) *)
}

type span = {
  sp_name : string;
  sp_tid : int;  (* id of the recording domain *)
  sp_start : float;  (* seconds since the sink's epoch *)
  sp_dur : float;  (* seconds, clamped >= 0 *)
  sp_args : (string * string) list;
}

type buf = {
  b_tid : int;
  b_counters : (string, int ref) Hashtbl.t;
  b_stats : (string, stat) Hashtbl.t;
  mutable b_spans : span list;  (* reverse chronological *)
}

type t = {
  enabled : bool;
  spans : bool;
      (* span recording is a separate capability: counters and histograms
         are bounded (one slot per distinct name) so a daemon can keep them
         on forever, but every recorded span is retained until [snapshot] —
         memory grows with total spans, so long-running processes only turn
         them on when a trace/metrics sidecar will actually consume them *)
  epoch : float;
  mutex : Mutex.t;  (* guards [bufs] *)
  mutable bufs : buf list;
  key : buf option Domain.DLS.key;
}

let create ?(spans = true) () =
  {
    enabled = true;
    spans;
    epoch = now ();
    mutex = Mutex.create ();
    bufs = [];
    key = Domain.DLS.new_key (fun () -> None);
  }

let null =
  {
    enabled = false;
    spans = false;
    epoch = 0.;
    mutex = Mutex.create ();
    bufs = [];
    key = Domain.DLS.new_key (fun () -> None);
  }

let enabled t = t.enabled

let spans_enabled t = t.enabled && t.spans

(* The calling domain's buffer, registering it on first use.  Registration
   takes the sink mutex once per (domain, sink) pair; every later call is a
   plain DLS read. *)
let buf_of t =
  match Domain.DLS.get t.key with
  | Some b -> b
  | None ->
      let b =
        {
          b_tid = (Domain.self () :> int);
          b_counters = Hashtbl.create 16;
          b_stats = Hashtbl.create 16;
          b_spans = [];
        }
      in
      Domain.DLS.set t.key (Some b);
      Mutex.lock t.mutex;
      t.bufs <- b :: t.bufs;
      Mutex.unlock t.mutex;
      b

(* ------------------------------------------------------------- counters *)

let add t name n =
  if t.enabled then begin
    let b = buf_of t in
    match Hashtbl.find_opt b.b_counters name with
    | Some r -> r := !r + n
    | None -> Hashtbl.add b.b_counters name (ref n)
  end

let incr t name = add t name 1

(* ----------------------------------------------------- value histograms *)

let bucket_of v =
  if v <= 1e-9 then 0
  else
    let i = int_of_float (Float.log2 (v /. 1e-9)) in
    if i < 0 then 0 else if i >= n_buckets then n_buckets - 1 else i

let observe t name v =
  if t.enabled then begin
    let b = buf_of t in
    let s =
      match Hashtbl.find_opt b.b_stats name with
      | Some s -> s
      | None ->
          let s =
            {
              s_count = 0;
              s_sum = 0.;
              s_min = Float.infinity;
              s_max = Float.neg_infinity;
              s_buckets = Array.make n_buckets 0;
            }
          in
          Hashtbl.add b.b_stats name s;
          s
    in
    s.s_count <- s.s_count + 1;
    s.s_sum <- s.s_sum +. v;
    if v < s.s_min then s.s_min <- v;
    if v > s.s_max then s.s_max <- v;
    let bk = bucket_of v in
    s.s_buckets.(bk) <- s.s_buckets.(bk) + 1
  end

(* --------------------------------------------------------- trace ambient *)

(* The current request's trace id, ambient per domain (one process-wide DLS
   slot, not per sink).  [record_span] stamps it onto every span recorded
   while it is installed, so one served request's spans — flow, pool,
   engine, xtalk, wherever they were recorded — can be filtered out of a
   Chrome trace of the whole concurrent server by a single arg.  The pool
   snapshots the publisher's ambient per batch and re-installs it around
   each worker's drain, exactly like the ambient deadline. *)

let trace_key : string option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let current_trace () = Domain.DLS.get trace_key

let with_trace trace f =
  let prev = Domain.DLS.get trace_key in
  Domain.DLS.set trace_key trace;
  Fun.protect ~finally:(fun () -> Domain.DLS.set trace_key prev) f

(* ---------------------------------------------------------------- spans *)

let record_span t name t0 dur args =
  let b = buf_of t in
  let args =
    match Domain.DLS.get trace_key with
    | Some id -> ("trace", id) :: args
    | None -> args
  in
  b.b_spans <-
    {
      sp_name = name;
      sp_tid = b.b_tid;
      sp_start = t0 -. t.epoch;
      sp_dur = Float.max 0. dur;
      sp_args = args;
    }
    :: b.b_spans

let start t = if t.enabled && t.spans then now () else 0.

let finish t ?(args = []) name t0 =
  if t.enabled && t.spans then record_span t name t0 (now () -. t0) args

let time t ?(args = []) name f =
  if not (t.enabled && t.spans) then f ()
  else begin
    let t0 = now () in
    match f () with
    | v ->
        record_span t name t0 (now () -. t0) args;
        v
    | exception e ->
        record_span t name t0 (now () -. t0)
          (("error", Printexc.to_string e) :: args);
        raise e
  end

(* The current request's layer split, ambient per domain like the trace id:
   wall seconds per layer name, in first-recorded order.  Independent of any
   sink, so a daemon whose sink records no spans still splits its requests. *)

type split = { mutable layers : (string * float ref) list }

let split_key : split option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let with_split f =
  let prev = Domain.DLS.get split_key in
  let s = { layers = [] } in
  Domain.DLS.set split_key (Some s);
  let v = Fun.protect ~finally:(fun () -> Domain.DLS.set split_key prev) f in
  (v, List.rev_map (fun (name, r) -> (name, !r)) s.layers)

let layer t name f =
  match Domain.DLS.get split_key with
  | None -> time t name f
  | Some s ->
      let t0 = now () in
      let charge () =
        match List.assoc_opt name s.layers with
        | Some r -> r := !r +. (now () -. t0)
        | None -> s.layers <- (name, ref (now () -. t0)) :: s.layers
      in
      Fun.protect ~finally:charge (fun () -> time t name f)

(* ------------------------------------------------------------- snapshot *)

type stat_summary = {
  count : int;
  sum : float;
  min : float;
  max : float;
  buckets : int array;
}

type metrics = {
  m_counters : (string * int) list;
  m_stats : (string * stat_summary) list;
  m_spans : span list;
}

let merge_counters bufs =
  let acc = Hashtbl.create 32 in
  List.iter
    (fun b ->
      Hashtbl.iter
        (fun name r ->
          match Hashtbl.find_opt acc name with
          | Some prev -> Hashtbl.replace acc name (prev + !r)
          | None -> Hashtbl.add acc name !r)
        b.b_counters)
    bufs;
  List.sort compare (Hashtbl.fold (fun k v l -> (k, v) :: l) acc [])

let merge_stats bufs =
  let acc = Hashtbl.create 32 in
  List.iter
    (fun b ->
      Hashtbl.iter
        (fun name (s : stat) ->
          match Hashtbl.find_opt acc name with
          | Some (m : stat_summary) ->
              Array.iteri (fun i n -> m.buckets.(i) <- m.buckets.(i) + n) s.s_buckets;
              Hashtbl.replace acc name
                {
                  count = m.count + s.s_count;
                  sum = m.sum +. s.s_sum;
                  min = Float.min m.min s.s_min;
                  max = Float.max m.max s.s_max;
                  buckets = m.buckets;
                }
          | None ->
              Hashtbl.add acc name
                {
                  count = s.s_count;
                  sum = s.s_sum;
                  min = s.s_min;
                  max = s.s_max;
                  buckets = Array.copy s.s_buckets;
                })
        b.b_stats)
    bufs;
  List.sort compare (Hashtbl.fold (fun k v l -> (k, v) :: l) acc [])

let snapshot t =
  if not t.enabled then { m_counters = []; m_stats = []; m_spans = [] }
  else begin
    Mutex.lock t.mutex;
    let bufs = t.bufs in
    Mutex.unlock t.mutex;
    let spans = List.concat_map (fun b -> b.b_spans) bufs in
    let spans =
      (* (tid, start, longest-first) so an enclosing span precedes the spans
         it contains even when they share a start timestamp. *)
      List.sort
        (fun a b ->
          match Int.compare a.sp_tid b.sp_tid with
          | 0 -> (
              match Float.compare a.sp_start b.sp_start with
              | 0 -> Float.compare b.sp_dur a.sp_dur
              | c -> c)
          | c -> c)
        spans
    in
    { m_counters = merge_counters bufs; m_stats = merge_stats bufs; m_spans = spans }
  end

(* Counters and histograms only, spans skipped.  A periodic telemetry
   ticker calls this once a second for the life of the daemon; merging the
   (ever-growing) span lists on every tick would make the tick cost O(total
   spans served), so the light snapshot stays O(distinct metric names). *)
let snapshot_light t =
  if not t.enabled then { m_counters = []; m_stats = []; m_spans = [] }
  else begin
    Mutex.lock t.mutex;
    let bufs = t.bufs in
    Mutex.unlock t.mutex;
    { m_counters = merge_counters bufs; m_stats = merge_stats bufs; m_spans = [] }
  end

(* ------------------------------------------------- histogram estimation *)

module Histogram = struct
  (* Bucket i of [stat_summary.buckets] covers [2^i ns, 2^(i+1) ns); bucket
     0 additionally absorbs everything <= 1 ns and the last bucket absorbs
     everything past the top, mirroring [bucket_of]. *)

  let bucket_lo i = if i <= 0 then 0. else Float.ldexp 1e-9 i

  let bucket_hi i = Float.ldexp 1e-9 (i + 1)

  (* Quantile estimate from the log2 buckets: walk the cumulative counts to
     the rank [q * count], interpolate linearly inside the landing bucket,
     and clamp to the exact observed [min, max].  Resolution is bounded by
     the bucket width (a factor of 2), which is plenty for dashboard
     p50/p95/p99 and costs nothing extra to record. *)
  let quantile (s : stat_summary) q =
    if s.count <= 0 then Float.nan
    else begin
      let q = Float.max 0. (Float.min 1. q) in
      let target = q *. float_of_int s.count in
      if target <= 0. then s.min
      else begin
        let result = ref s.max in
        let cum = ref 0. in
        (try
           Array.iteri
             (fun i n ->
               if n > 0 then begin
                 let next = !cum +. float_of_int n in
                 if target <= next then begin
                   let frac = (target -. !cum) /. float_of_int n in
                   let lo = bucket_lo i and hi = bucket_hi i in
                   result := lo +. (frac *. (hi -. lo));
                   raise Exit
                 end;
                 cum := next
               end)
             s.buckets
         with Exit -> ());
        Float.max s.min (Float.min s.max !result)
      end
    end
end

(* ------------------------------------------------- snapshot convenience *)

let counter m name =
  match List.assoc_opt name m.m_counters with Some n -> n | None -> 0

let span_total m name =
  List.fold_left
    (fun (n, total) sp ->
      if String.equal sp.sp_name name then (n + 1, total +. sp.sp_dur) else (n, total))
    (0, 0.) m.m_spans
