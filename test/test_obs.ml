(* Rlc_obs tests: sink semantics (counters, histograms, spans, disabled
   no-op, cross-domain merge), the JSON exporters (validated with a small
   in-test JSON parser, including span nesting in the Chrome trace), the
   progress meter's non-TTY output, the rootfind observation hook, and the
   end-to-end invariants: instrumentation must not change engine waveforms
   or flow reports, and the flow's iteration counters must reconcile with
   the deterministic stats. *)

module Obs = Rlc_obs.Obs
module Window = Rlc_obs.Window
module Export = Rlc_obs.Export
module Progress = Rlc_obs.Progress
module Rootfind = Rlc_num.Rootfind
module Netlist = Rlc_circuit.Netlist
module Engine = Rlc_circuit.Engine
module Waveform = Rlc_waveform.Waveform
module Driver_model = Rlc_ceff.Driver_model
module Flow = Rlc_flow.Flow
module Report = Rlc_flow.Report

(* ------------------------------------------------- mini JSON parser *)

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

exception Bad_json of string

let parse_json (s : string) : json =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then s.[!pos] else '\000' in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with ' ' | '\t' | '\n' | '\r' -> advance (); skip_ws () | _ -> ()
  in
  let expect c =
    if peek () = c then advance ()
    else raise (Bad_json (Printf.sprintf "expected %C at %d, got %C" c !pos (peek ())))
  in
  let literal lit v =
    String.iter expect lit;
    v
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | '"' -> advance (); Buffer.contents b
      | '\\' ->
          advance ();
          (match peek () with
          | '"' -> Buffer.add_char b '"'
          | '\\' -> Buffer.add_char b '\\'
          | '/' -> Buffer.add_char b '/'
          | 'n' -> Buffer.add_char b '\n'
          | 't' -> Buffer.add_char b '\t'
          | 'r' -> Buffer.add_char b '\r'
          | 'b' -> Buffer.add_char b '\b'
          | 'f' -> Buffer.add_char b '\012'
          | 'u' ->
              (* \uXXXX: decode the code unit as-is (tests only use ASCII). *)
              let hex = String.sub s (!pos + 1) 4 in
              pos := !pos + 4;
              Buffer.add_char b (Char.chr (int_of_string ("0x" ^ hex) land 0xff))
          | c -> raise (Bad_json (Printf.sprintf "bad escape %C" c)));
          advance ();
          go ()
      | '\000' -> raise (Bad_json "eof in string")
      | c -> Buffer.add_char b c; advance (); go ()
    in
    go ()
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | '{' ->
        advance ();
        skip_ws ();
        if peek () = '}' then (advance (); Obj [])
        else
          let rec members acc =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            skip_ws ();
            if peek () = ',' then (advance (); members ((k, v) :: acc))
            else (expect '}'; Obj (List.rev ((k, v) :: acc)))
          in
          members []
    | '[' ->
        advance ();
        skip_ws ();
        if peek () = ']' then (advance (); Arr [])
        else
          let rec elems acc =
            let v = parse_value () in
            skip_ws ();
            if peek () = ',' then (advance (); elems (v :: acc))
            else (expect ']'; Arr (List.rev (v :: acc)))
          in
          elems []
    | '"' -> Str (parse_string ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | _ ->
        let start = !pos in
        let num_char = function
          | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
          | _ -> false
        in
        while num_char (peek ()) do
          advance ()
        done;
        if !pos = start then raise (Bad_json (Printf.sprintf "unexpected char at %d" start));
        Num (float_of_string (String.sub s start (!pos - start)))
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then raise (Bad_json "trailing garbage");
  v

let member k = function
  | Obj kv -> (
      match List.assoc_opt k kv with
      | Some v -> v
      | None -> Alcotest.fail (Printf.sprintf "missing member %S" k))
  | _ -> Alcotest.fail (Printf.sprintf "not an object (looking for %S)" k)

let as_str = function Str s -> s | _ -> Alcotest.fail "not a string"
let as_num = function Num v -> v | _ -> Alcotest.fail "not a number"
let as_arr = function Arr l -> l | _ -> Alcotest.fail "not an array"
let as_obj = function Obj kv -> kv | _ -> Alcotest.fail "not an object"

(* ---------------------------------------------------------- obs core *)

let test_counters () =
  let t = Obs.create () in
  Obs.incr t "a";
  Obs.incr t "a";
  Obs.add t "b" 5;
  let m = Obs.snapshot t in
  Alcotest.(check int) "a" 2 (Obs.counter m "a");
  Alcotest.(check int) "b" 5 (Obs.counter m "b");
  Alcotest.(check int) "missing defaults to 0" 0 (Obs.counter m "nope");
  Alcotest.(check (list string)) "name-sorted" [ "a"; "b" ] (List.map fst m.Obs.m_counters)

let test_stats () =
  let t = Obs.create () in
  List.iter (Obs.observe t "v") [ 1e-9; 3e-9; 1e-9 ];
  let m = Obs.snapshot t in
  let s = List.assoc "v" m.Obs.m_stats in
  Alcotest.(check int) "count" 3 s.Obs.count;
  Alcotest.(check (float 1e-24)) "sum" 5e-9 s.Obs.sum;
  Alcotest.(check (float 1e-24)) "min" 1e-9 s.Obs.min;
  Alcotest.(check (float 1e-24)) "max" 3e-9 s.Obs.max;
  Alcotest.(check int) "bucket array length" Obs.n_buckets (Array.length s.Obs.buckets);
  Alcotest.(check int) "buckets sum to count" 3 (Array.fold_left ( + ) 0 s.Obs.buckets);
  (* 1 ns falls in bucket 0 ([1,2) ns), 3 ns in bucket 1 ([2,4) ns). *)
  Alcotest.(check int) "bucket 0" 2 s.Obs.buckets.(0);
  Alcotest.(check int) "bucket 1" 1 s.Obs.buckets.(1)

let test_spans () =
  let t = Obs.create () in
  let v = Obs.time t ~args:[ ("k", "v") ] "outer" (fun () -> Obs.time t "inner" (fun () -> 41 + 1)) in
  Alcotest.(check int) "time returns the value" 42 v;
  let m = Obs.snapshot t in
  let n_outer, d_outer = Obs.span_total m "outer" in
  let n_inner, d_inner = Obs.span_total m "inner" in
  Alcotest.(check int) "one outer" 1 n_outer;
  Alcotest.(check int) "one inner" 1 n_inner;
  Alcotest.(check bool) "durations non-negative" true (d_outer >= 0. && d_inner >= 0.);
  Alcotest.(check bool) "inner within outer" true (d_inner <= d_outer);
  (match m.Obs.m_spans with
  | first :: _ ->
      (* Same tid, same-or-earlier start, longest first: outer leads. *)
      Alcotest.(check string) "enclosing span sorts first" "outer" first.Obs.sp_name;
      Alcotest.(check (list (pair string string))) "args kept" [ ("k", "v") ] first.Obs.sp_args
  | [] -> Alcotest.fail "no spans");
  (* A raising thunk still records its span, tagged, and re-raises. *)
  (match Obs.time t "boom" (fun () -> failwith "x") with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "exception swallowed");
  let m = Obs.snapshot t in
  let boom = List.find (fun sp -> sp.Obs.sp_name = "boom") m.Obs.m_spans in
  Alcotest.(check bool) "error arg recorded" true (List.mem_assoc "error" boom.Obs.sp_args)

let test_disabled_noop () =
  let t = Obs.null in
  Alcotest.(check bool) "null disabled" false (Obs.enabled t);
  Obs.incr t "a";
  Obs.add t "a" 10;
  Obs.observe t "v" 1.;
  Alcotest.(check (float 0.)) "start is 0 when disabled" 0. (Obs.start t);
  Obs.finish t "s" 0.;
  Alcotest.(check int) "time still runs f" 7 (Obs.time t "s" (fun () -> 7));
  let m = Obs.snapshot t in
  Alcotest.(check int) "no counters" 0 (List.length m.Obs.m_counters);
  Alcotest.(check int) "no stats" 0 (List.length m.Obs.m_stats);
  Alcotest.(check int) "no spans" 0 (List.length m.Obs.m_spans)

let test_spans_optout () =
  (* ~spans:false: counters and histograms stay live (what a daemon's
     telemetry window needs) while span recording is a no-op, so the
     per-domain span lists never grow over the sink's lifetime. *)
  let t = Obs.create ~spans:false () in
  Alcotest.(check bool) "sink enabled" true (Obs.enabled t);
  Alcotest.(check bool) "spans off" false (Obs.spans_enabled t);
  Alcotest.(check bool) "default sink records spans" true
    (Obs.spans_enabled (Obs.create ()));
  Obs.incr t "c";
  Obs.observe t "v" 2e-9;
  Alcotest.(check (float 0.)) "start is 0 with spans off" 0. (Obs.start t);
  Obs.finish t "s" 0.;
  Alcotest.(check int) "time still runs f" 7 (Obs.time t "s" (fun () -> 7));
  let m = Obs.snapshot t in
  Alcotest.(check int) "counter recorded" 1 (Obs.counter m "c");
  Alcotest.(check int) "stat recorded" 1 (List.assoc "v" m.Obs.m_stats).Obs.count;
  Alcotest.(check int) "no spans retained" 0 (List.length m.Obs.m_spans)

let test_cross_domain_merge () =
  let t = Obs.create () in
  let work () =
    for _ = 1 to 50 do
      Obs.incr t "d.count"
    done;
    Obs.observe t "d.val" 2e-9;
    Obs.time t "d.span" (fun () -> ())
  in
  let d1 = Domain.spawn work and d2 = Domain.spawn work in
  Domain.join d1;
  Domain.join d2;
  work ();
  let m = Obs.snapshot t in
  Alcotest.(check int) "counters sum over domains" 150 (Obs.counter m "d.count");
  Alcotest.(check int) "stat count merged" 3 (List.assoc "d.val" m.Obs.m_stats).Obs.count;
  let n_spans, _ = Obs.span_total m "d.span" in
  Alcotest.(check int) "spans from every domain" 3 n_spans;
  let tids =
    List.sort_uniq compare (List.map (fun sp -> sp.Obs.sp_tid) m.Obs.m_spans)
  in
  Alcotest.(check int) "three distinct recording domains" 3 (List.length tids)

(* ----------------------------------------------------------- quantile *)

let stat_of values =
  let t = Obs.create () in
  List.iter (Obs.observe t "q") values;
  List.assoc "q" (Obs.snapshot t).Obs.m_stats

let test_quantile () =
  (* Uniform 1..1000 ns: log2 buckets bound any quantile estimate within a
     factor of 2 of the exact percentile, and estimates are monotone. *)
  let s = stat_of (List.init 1000 (fun i -> float_of_int (i + 1) *. 1e-9)) in
  Alcotest.(check (float 1e-15)) "q0 is min" 1e-9 (Obs.Histogram.quantile s 0.);
  Alcotest.(check (float 1e-15)) "q1 is max" 1e-6 (Obs.Histogram.quantile s 1.);
  List.iter
    (fun q ->
      let exact = q *. 1e-6 in
      let est = Obs.Histogram.quantile s q in
      Alcotest.(check bool)
        (Printf.sprintf "q%.2f within 2x of exact" q)
        true
        (est >= exact /. 2. && est <= exact *. 2.))
    [ 0.25; 0.5; 0.75; 0.95; 0.99 ];
  let prev = ref neg_infinity in
  List.iter
    (fun q ->
      let est = Obs.Histogram.quantile s q in
      Alcotest.(check bool) "monotone in q" true (est >= !prev);
      prev := est)
    [ 0.; 0.1; 0.25; 0.5; 0.75; 0.9; 0.95; 0.99; 1. ];
  (* Everything in one bucket: any quantile stays inside that bucket. *)
  let s1 = stat_of [ 3e-9; 3e-9; 3e-9; 3e-9; 3e-9 ] in
  List.iter
    (fun q ->
      let est = Obs.Histogram.quantile s1 q in
      Alcotest.(check bool) "single bucket bounds" true (est >= 2e-9 && est <= 4e-9))
    [ 0.1; 0.5; 0.9 ];
  (* Empty summary: nan, not a crash. *)
  let empty =
    {
      Obs.count = 0;
      sum = 0.;
      min = Float.infinity;
      max = Float.neg_infinity;
      buckets = Array.make Obs.n_buckets 0;
    }
  in
  Alcotest.(check bool) "empty is nan" true (Float.is_nan (Obs.Histogram.quantile empty 0.5))

(* ------------------------------------------------------------- window *)

let test_window_delta () =
  let t = Obs.create () in
  let w = Window.create () in
  Obs.incr t "c";
  Obs.incr t "c";
  Obs.incr t "c";
  Obs.observe t "v" 1e-9;
  Obs.observe t "v" 3e-9;
  Window.record w ~at:10.0 (Obs.snapshot_light t);
  Obs.incr t "c";
  Obs.incr t "c";
  Obs.observe t "v" 10e-9;
  Window.record w ~at:12.5 (Obs.snapshot_light t);
  Alcotest.(check int) "samples" 2 (Window.samples w);
  Alcotest.(check (float 1e-9)) "span" 2.5 (Window.span_s w);
  Alcotest.(check int) "counter delta" 2 (Window.counter_delta w "c");
  Alcotest.(check (float 1e-9)) "rate" 0.8 (Window.rate w "c");
  Alcotest.(check int) "missing counter delta" 0 (Window.counter_delta w "nope");
  (match Window.stat_delta w "v" with
  | Some s ->
      Alcotest.(check int) "stat delta count" 1 s.Obs.count;
      Alcotest.(check (float 1e-24)) "stat delta sum" 10e-9 s.Obs.sum;
      Alcotest.(check int) "stat delta buckets sum" 1 (Array.fold_left ( + ) 0 s.Obs.buckets)
  | None -> Alcotest.fail "stat delta missing");
  Alcotest.(check bool) "missing stat delta" true (Window.stat_delta w "nope" = None);
  (match Window.latest w with
  | Some s ->
      Alcotest.(check (float 0.)) "latest is newest" 12.5 s.Window.at;
      Alcotest.(check int) "latest is cumulative" 5 (List.assoc "c" s.Window.counters)
  | None -> Alcotest.fail "no latest sample")

let test_window_capacity () =
  let t = Obs.create () in
  let w = Window.create ~capacity:3 () in
  for i = 1 to 5 do
    Obs.incr t "c";
    Window.record w ~at:(float_of_int i) (Obs.snapshot_light t)
  done;
  Alcotest.(check int) "evicted to capacity" 3 (Window.samples w);
  (* Retained samples are t=3,4,5 with cumulative c=3,4,5. *)
  Alcotest.(check (float 1e-9)) "span covers retained" 2. (Window.span_s w);
  Alcotest.(check int) "delta over retained" 2 (Window.counter_delta w "c");
  Window.clear w;
  Alcotest.(check int) "cleared" 0 (Window.samples w);
  Alcotest.(check int) "no delta after clear" 0 (Window.counter_delta w "c")

(* ------------------------------------------------------------- memo *)

module Memo = Rlc_obs.Memo

type memo_op =
  | Find_or_add of int * int
  | Find of int
  | Find_valid of int * bool
  | Replace of int * int
  | Remove of int
  | Clear

let show_memo_op = function
  | Find_or_add (k, v) -> Printf.sprintf "find_or_add %d %d" k v
  | Find k -> Printf.sprintf "find %d" k
  | Find_valid (k, ok) -> Printf.sprintf "find ~valid:%b %d" ok k
  | Replace (k, v) -> Printf.sprintf "replace %d %d" k v
  | Remove k -> Printf.sprintf "remove %d" k
  | Clear -> "clear"

(* A case is a capacity, a weight bound and the operations; an entry
   weighs its value, so a value over the bound is never stored. *)
let arb_memo_case =
  let open QCheck.Gen in
  let key = int_bound 11 and value = int_bound 99 in
  let op =
    frequency
      [
        (4, map2 (fun k v -> Find_or_add (k, v)) key value);
        (3, map (fun k -> Find k) key);
        (1, map2 (fun k ok -> Find_valid (k, ok)) key bool);
        (2, map2 (fun k v -> Replace (k, v)) key value);
        (1, map (fun k -> Remove k) key);
        (1, return Clear);
      ]
  in
  QCheck.make
    ~print:(fun (cap, max_weight, ops) ->
      Printf.sprintf "capacity %d, max weight %d: %s" cap max_weight
        (String.concat "; " (List.map show_memo_op ops)))
    (triple (int_range 1 8) (int_range 1 400) (list_size (int_range 0 60) op))

(* A one-shard weighted memo against a list-based LRU model (most recent
   first): every result, hit flag and counter, the total weight included,
   agrees after every operation. *)
let prop_memo_lru =
  QCheck.Test.make ~name:"one-shard memo = list LRU model" ~count:500
    arb_memo_case (fun (cap, max_weight, ops) ->
      let t : (int, int) Memo.t =
        Memo.create ~weight:(fun _ v -> v) ~max_weight ~capacity:cap ()
      in
      let items = ref [] and hits = ref 0 and misses = ref 0 and evictions = ref 0 in
      let weight () = List.fold_left (fun acc (_, v) -> acc + v) 0 !items in
      let touch k v = items := (k, v) :: List.remove_assoc k !items in
      let insert k v =
        items := List.remove_assoc k !items;
        if v <= max_weight then begin
          while !items <> [] && (List.length !items >= cap || weight () + v > max_weight) do
            items := List.filteri (fun i _ -> i < List.length !items - 1) !items;
            incr evictions
          done;
          items := (k, v) :: !items
        end
      in
      let find ok k =
        match List.assoc_opt k !items with
        | Some x when ok ->
            incr hits;
            touch k x;
            Some x
        | Some _ | None ->
            incr misses;
            None
      in
      List.for_all
        (fun op ->
          let agree =
            match op with
            | Find_or_add (k, v) ->
                let expected =
                  match List.assoc_opt k !items with
                  | Some x ->
                      incr hits;
                      touch k x;
                      (x, true)
                  | None ->
                      incr misses;
                      insert k v;
                      (v, false)
                in
                Memo.find_or_add t k (fun () -> v) = expected
            | Find k -> Memo.find t k = find true k
            | Find_valid (k, ok) -> Memo.find ~valid:(fun _ -> ok) t k = find ok k
            | Replace (k, v) ->
                insert k v;
                Memo.replace t k v;
                true
            | Remove k ->
                let expected = List.mem_assoc k !items in
                items := List.remove_assoc k !items;
                Memo.remove t k = expected
            | Clear ->
                items := [];
                Memo.clear t;
                true
          in
          agree
          && Memo.stats t
             = {
                 Memo.entries = List.length !items;
                 capacity = cap;
                 hits = !hits;
                 misses = !misses;
                 evictions = !evictions;
                 weight = weight ();
               })
        ops)

(* The bound holds per shard: 200 distinct keys through 4 shards of 3
   leave each shard full, and every insert past a full shard evicted. *)
let test_memo_shard_bound () =
  let t : (string, int) Memo.t = Memo.create ~shards:4 ~capacity:3 () in
  for i = 1 to 200 do
    ignore (Memo.find_or_add t (Printf.sprintf "key-%d" i) (fun () -> i))
  done;
  Array.iteri
    (fun i (s : Memo.stats) ->
      Alcotest.(check int) (Printf.sprintf "shard %d full" i) 3 s.Memo.entries;
      Alcotest.(check int) (Printf.sprintf "shard %d bound" i) 3 s.Memo.capacity)
    (Memo.shard_stats t);
  let s = Memo.stats t in
  Alcotest.(check int) "capacity sums the shards" 12 s.Memo.capacity;
  Alcotest.(check int) "every extra insert evicted" (200 - 12) s.Memo.evictions;
  Alcotest.(check int) "misses" 200 s.Memo.misses;
  (* The most recent key of its shard is still resident. *)
  Alcotest.(check (option int)) "latest key kept" (Some 200) (Memo.find t "key-200")

let test_window_tick_independence () =
  (* The same instrumented run sampled every tick vs only at the endpoints
     yields the same window delta — cumulative samples make the digest
     ticker-period independent. *)
  let t = Obs.create () in
  let fine = Window.create () and coarse = Window.create () in
  let sample at =
    let m = Obs.snapshot_light t in
    Window.record fine ~at m;
    m
  in
  let first = sample 0. in
  Window.record coarse ~at:0. first;
  for i = 1 to 9 do
    Obs.incr t "c";
    Obs.observe t "v" (float_of_int i *. 1e-9);
    let m = sample (float_of_int i) in
    if i = 9 then Window.record coarse ~at:9. m
  done;
  Alcotest.(check int) "fine samples" 10 (Window.samples fine);
  Alcotest.(check int) "coarse samples" 2 (Window.samples coarse);
  Alcotest.(check (float 1e-9)) "same span" (Window.span_s fine) (Window.span_s coarse);
  Alcotest.(check int) "same counter delta" (Window.counter_delta fine "c")
    (Window.counter_delta coarse "c");
  match (Window.stat_delta fine "v", Window.stat_delta coarse "v") with
  | Some f, Some c ->
      Alcotest.(check int) "same stat count" f.Obs.count c.Obs.count;
      Alcotest.(check (float 1e-24)) "same stat sum" f.Obs.sum c.Obs.sum;
      Alcotest.(check bool) "same buckets" true (f.Obs.buckets = c.Obs.buckets)
  | _ -> Alcotest.fail "stat delta missing"

(* ------------------------------------------------------- ambient trace *)

let test_ambient_trace () =
  let t = Obs.create () in
  Alcotest.(check bool) "no ambient trace outside" true (Obs.current_trace () = None);
  Obs.with_trace (Some "req-1") (fun () ->
      Alcotest.(check bool) "installed" true (Obs.current_trace () = Some "req-1");
      Obs.time t "outer" (fun () ->
          Obs.with_trace (Some "req-2") (fun () -> Obs.time t "inner" (fun () -> ())));
      Alcotest.(check bool) "nested restore" true (Obs.current_trace () = Some "req-1"));
  Alcotest.(check bool) "restored to none" true (Obs.current_trace () = None);
  Obs.time t "plain" (fun () -> ());
  let m = Obs.snapshot t in
  let span n = List.find (fun sp -> sp.Obs.sp_name = n) m.Obs.m_spans in
  Alcotest.(check (option string)) "outer tagged" (Some "req-1")
    (List.assoc_opt "trace" (span "outer").Obs.sp_args);
  Alcotest.(check (option string)) "inner tagged with nested id" (Some "req-2")
    (List.assoc_opt "trace" (span "inner").Obs.sp_args);
  Alcotest.(check (option string)) "untagged outside" None
    (List.assoc_opt "trace" (span "plain").Obs.sp_args)

(* ---------------------------------------------------------- exporters *)

let test_metrics_json () =
  let t = Obs.create () in
  Obs.incr t "c.one";
  Obs.add t "c.two" 41;
  Obs.observe t "h" 2e-9;
  Obs.time t "sp" (fun () -> ());
  let m = Obs.snapshot t in
  let j = parse_json (Export.metrics_json m) in
  Alcotest.(check string) "schema" "rlc-obs/1" (as_str (member "schema" j));
  Alcotest.(check (float 0.)) "counter value" 1. (as_num (member "c.one" (member "counters" j)));
  Alcotest.(check (float 0.)) "counter value 2" 41.
    (as_num (member "c.two" (member "counters" j)));
  let h = member "h" (member "stats" j) in
  Alcotest.(check (float 0.)) "stat count" 1. (as_num (member "count" h));
  Alcotest.(check (float 1e-15)) "stat mean" 2e-9 (as_num (member "mean" h));
  let sp = member "sp" (member "span_totals" j) in
  Alcotest.(check (float 0.)) "span count" 1. (as_num (member "count" sp));
  Alcotest.(check bool) "span total non-negative" true (as_num (member "total_s" sp) >= 0.)

let test_json_escaping () =
  let t = Obs.create () in
  Obs.time t ~args:[ ("weird", "a\"b\\c\nd\te") ] "na\"me\\1" (fun () -> ());
  Obs.incr t "ctr\"x";
  let m = Obs.snapshot t in
  let trace = parse_json (Export.chrome_trace m) in
  (match as_arr (member "traceEvents" trace) with
  | [ ev ] ->
      Alcotest.(check string) "span name round-trips" "na\"me\\1" (as_str (member "name" ev));
      Alcotest.(check string) "arg round-trips" "a\"b\\c\nd\te"
        (as_str (member "weird" (member "args" ev)))
  | l -> Alcotest.fail (Printf.sprintf "expected 1 event, got %d" (List.length l)));
  let metrics = parse_json (Export.metrics_json m) in
  Alcotest.(check (float 0.)) "escaped counter name" 1.
    (as_num (member "ctr\"x" (member "counters" metrics)))

(* Spans must be properly nested per tid: for each tid, walking events in
   the exporter's order with an interval stack never finds a partial
   overlap.  [eps] absorbs the %.9g rounding of ts/dur (microseconds). *)
let check_well_nested events =
  let eps = 1e-2 in
  let by_tid = Hashtbl.create 8 in
  List.iter
    (fun ev ->
      let tid = as_num (member "tid" ev) in
      let ts = as_num (member "ts" ev) in
      let dur = as_num (member "dur" ev) in
      let prev = Option.value (Hashtbl.find_opt by_tid tid) ~default:[] in
      Hashtbl.replace by_tid tid ((ts, ts +. dur) :: prev))
    events;
  Hashtbl.iter
    (fun _tid intervals ->
      let stack = ref [] in
      List.iter
        (fun (s, e) ->
          while (match !stack with (_, pe) :: _ -> pe <= s +. eps | [] -> false) do
            stack := List.tl !stack
          done;
          (match !stack with
          | (ps, pe) :: _ ->
              Alcotest.(check bool) "span contained in enclosing span" true
                (s >= ps -. eps && e <= pe +. eps)
          | [] -> ());
          stack := (s, e) :: !stack)
        (List.rev intervals))
    by_tid

let test_chrome_trace () =
  let t = Obs.create () in
  Obs.time t "outer" (fun () ->
      Obs.time t "inner1" (fun () -> ());
      Obs.time t "inner2" (fun () -> ()));
  let j = parse_json (Export.chrome_trace (Obs.snapshot t)) in
  let events = as_arr (member "traceEvents" j) in
  Alcotest.(check int) "three events" 3 (List.length events);
  List.iter
    (fun ev ->
      Alcotest.(check string) "complete event" "X" (as_str (member "ph" ev));
      Alcotest.(check string) "category" "rlc" (as_str (member "cat" ev));
      Alcotest.(check bool) "ts/dur non-negative" true
        (as_num (member "ts" ev) >= 0. && as_num (member "dur" ev) >= 0.);
      (* Perfetto wants string-valued args; "args" is omitted when empty. *)
      match List.assoc_opt "args" (as_obj ev) with
      | None -> ()
      | Some a ->
          List.iter
            (fun (_, v) -> match v with Str _ -> () | _ -> Alcotest.fail "non-string arg")
            (as_obj a))
    events;
  check_well_nested events

(* ----------------------------------------------------------- progress *)

let with_progress_lines ?every ~label ~total f =
  let path = Filename.temp_file "rlc_obs_progress" ".txt" in
  let oc = open_out path in
  let p = Progress.create ~channel:oc ?every ~label ~total () in
  f p;
  close_out oc;
  let ic = open_in path in
  let rec read acc =
    match input_line ic with
    | line -> read (line :: acc)
    | exception End_of_file -> List.rev acc
  in
  let lines = read [] in
  close_in ic;
  Sys.remove path;
  lines

let test_progress_non_tty () =
  (* A file channel is not a TTY: plain "label k/n" lines, one per report
     when every = 1, no carriage returns. *)
  let lines =
    with_progress_lines ~every:1 ~label:"nets" ~total:3 (fun p ->
        Progress.report p 1;
        Progress.report p 2;
        Progress.report p 3;
        Progress.finish p)
  in
  Alcotest.(check (list string)) "line per report" [ "nets 1/3"; "nets 2/3"; "nets 3/3" ] lines

let test_progress_every () =
  let lines =
    with_progress_lines ~label:"sweep" ~total:40 (fun p ->
        (* default every = 40/20 = 2 *)
        for _ = 1 to 39 do
          Progress.tick p
        done;
        Progress.report p 40)
  in
  Alcotest.(check int) "5% increments" 20 (List.length lines);
  Alcotest.(check string) "first emitted" "sweep 2/40" (List.hd lines);
  Alcotest.(check string) "total always emitted" "sweep 40/40" (List.nth lines 19)

let test_progress_set_total () =
  let lines =
    with_progress_lines ~label:"s" ~total:0 (fun p ->
        Progress.set_total p 2;
        Progress.tick p;
        Progress.tick p)
  in
  Alcotest.(check (list string)) "late total" [ "s 1/2"; "s 2/2" ] lines

(* ----------------------------------------------------------- rootfind *)

let test_rootfind_on_iter () =
  let f = cos in
  let plain = Rootfind.fixed_point f ~init:0.5 in
  let calls = ref 0 in
  let hooked = Rootfind.fixed_point ~on_iter:(fun _ -> incr calls) f ~init:0.5 in
  Alcotest.(check (float 0.)) "same fixed point" plain.Rootfind.value hooked.Rootfind.value;
  Alcotest.(check int) "same iterations" plain.Rootfind.iterations hooked.Rootfind.iterations;
  Alcotest.(check bool) "same convergence" plain.Rootfind.converged hooked.Rootfind.converged;
  Alcotest.(check int) "hook fired once per iteration" plain.Rootfind.iterations !calls;
  let plain_b = Rootfind.fixed_point_bracketed f ~lo:0. ~hi:1. ~init:0.5 in
  let calls_b = ref 0 in
  let hooked_b =
    Rootfind.fixed_point_bracketed ~on_iter:(fun _ -> incr calls_b) f ~lo:0. ~hi:1. ~init:0.5
  in
  Alcotest.(check (float 0.)) "bracketed: same value" plain_b.Rootfind.value
    hooked_b.Rootfind.value;
  Alcotest.(check bool) "bracketed: hook observed iterates" true (!calls_b > 0)

(* ------------------------------------------------------------- engine *)

let rc_netlist () =
  let nl = Netlist.create () in
  let src = Netlist.node nl "src" in
  Netlist.force_voltage nl src (fun t -> if t <= 0. then 0. else 1.);
  let out = Netlist.node nl "out" in
  Netlist.resistor nl src out 1e3;
  Netlist.capacitor nl out Netlist.ground 1e-12;
  (nl, out)

let test_engine_counters () =
  let nl, probe = rc_netlist () in
  let plain = Engine.transient ~dt:1e-12 ~t_stop:0.1e-9 nl in
  let obs = Obs.create () in
  let instrumented = Engine.transient ~obs ~dt:1e-12 ~t_stop:0.1e-9 nl in
  Alcotest.(check bool) "waveform identical with instrumentation on" true
    (Waveform.values (Engine.voltage plain probe)
    = Waveform.values (Engine.voltage instrumented probe));
  let m = Obs.snapshot obs in
  Alcotest.(check int) "one transient" 1 (Obs.counter m "engine.transients");
  Alcotest.(check int) "steps counter matches engine" (Engine.steps instrumented)
    (Obs.counter m "engine.steps");
  List.iter
    (fun name ->
      let c, _ = Obs.span_total m name in
      Alcotest.(check int) (name ^ " span") 1 c)
    [ "engine.compile"; "engine.dc_solve"; "engine.factor"; "engine.step_loop" ];
  let loop = List.find (fun sp -> sp.Obs.sp_name = "engine.step_loop") m.Obs.m_spans in
  Alcotest.(check string) "step count annotated"
    (string_of_int (Engine.steps instrumented))
    (List.assoc "steps" loop.Obs.sp_args);
  Alcotest.(check string) "newton total annotated"
    (string_of_int (Obs.counter m "engine.newton_iters"))
    (List.assoc "newton_total" loop.Obs.sp_args);
  Alcotest.(check bool) "fast path taken" true
    (List.assoc "path" loop.Obs.sp_args <> "rebuild")

(* ------------------------------------------------------ flow invariants *)

(* Same fixture as test_flow: two identical inductive bus bits each feeding
   an identical local net — two levels, and the twin bits collide in the
   Ceff cache so both hit and miss paths are exercised. *)
let spef_src =
  {|*SPEF "IEEE 1481-1998"
*DESIGN "obs_test"
*T_UNIT 1 PS
*C_UNIT 1 FF
*R_UNIT 1 OHM
*L_UNIT 1 PH
*D_NET b0 300
*CONN
*P b0_drv O
*P b0_rcv I
*CAP
1 b0_1 150
2 b0_rcv 150
*RES
1 b0_drv b0_1 30
2 b0_1 b0_rcv 30
*INDUC
1 b0_drv b0_1 1500
2 b0_1 b0_rcv 1500
*END
*D_NET b1 300
*CONN
*P b1_drv O
*P b1_rcv I
*CAP
1 b1_1 150
2 b1_rcv 150
*RES
1 b1_drv b1_1 30
2 b1_1 b1_rcv 30
*INDUC
1 b1_drv b1_1 1500
2 b1_1 b1_rcv 1500
*END
*D_NET o0 90
*CONN
*P o0_drv O
*P o0_rcv I
*CAP
1 o0_1 45
2 o0_rcv 45
*RES
1 o0_drv o0_1 60
2 o0_1 o0_rcv 60
*END
*D_NET o1 90
*CONN
*P o1_drv O
*P o1_rcv I
*CAP
1 o1_1 45
2 o1_rcv 45
*RES
1 o1_drv o1_1 60
2 o1_1 o1_rcv 60
*END
|}

let spec_src =
  {|driver b0 75
driver b1 75
input b0 100
input b1 100
driver o0 50
driver o1 50
edge b0 b0_rcv o0
edge b1 b1_rcv o1
load o0 o0_rcv 5
load o1 o1_rcv 5
|}

let design =
  lazy
    (let spef = Result.get_ok (Rlc_spef.Spef.parse_res spef_src) in
     let spec = Result.get_ok (Rlc_flow.Spec.parse_res spec_src) in
     match Rlc_flow.Design.ingest ~spef ~spec () with
     | Ok d -> d
     | Error e -> failwith e)

let flow_run ?(obs = Obs.null) ~jobs d =
  Flow.run_cfg { Flow.Config.default with Flow.Config.obs; jobs = Some jobs } d

let test_flow_reports_unchanged () =
  let d = Lazy.force design in
  let off = flow_run ~jobs:1 d in
  let obs1 = Obs.create () in
  let on1 = flow_run ~obs:obs1 ~jobs:1 d in
  let obs3 = Obs.create () in
  let on3 = flow_run ~obs:obs3 ~jobs:3 d in
  Alcotest.(check string) "JSON identical obs off vs on" (Report.json_string off)
    (Report.json_string on1);
  Alcotest.(check string) "JSON identical across jobs" (Report.json_string on1)
    (Report.json_string on3);
  Alcotest.(check string) "CSV identical obs off vs on" (Report.csv_string off)
    (Report.csv_string on1);
  Alcotest.(check string) "CSV identical across jobs" (Report.csv_string on1)
    (Report.csv_string on3)

let test_flow_iteration_counters () =
  let d = Lazy.force design in
  let obs = Obs.create () in
  let r = flow_run ~obs ~jobs:2 d in
  let m = Obs.snapshot obs in
  let total_from_models =
    Array.fold_left
      (fun acc nr -> acc + Driver_model.total_iterations nr.Flow.solve.Flow.model)
      0 r.Flow.results
  in
  Alcotest.(check int) "counter = sum of Driver_model.total_iterations" total_from_models
    (Obs.counter m "flow.ceff_iterations");
  Alcotest.(check int) "counter = stats.iterations_total"
    r.Flow.stats.Flow.iterations_total
    (Obs.counter m "flow.ceff_iterations");
  Alcotest.(check int) "run counter = stats.iterations_spent"
    r.Flow.stats.Flow.iterations_spent
    (Obs.counter m "flow.ceff_iterations_run");
  Alcotest.(check int) "net counter" r.Flow.stats.Flow.n_nets (Obs.counter m "flow.nets");
  Alcotest.(check int) "hits + misses = nets" r.Flow.stats.Flow.n_nets
    (Obs.counter m "flow.cache.hits" + Obs.counter m "flow.cache.misses");
  let n_net_spans, _ = Obs.span_total m "flow.net" in
  Alcotest.(check int) "a span per net" r.Flow.stats.Flow.n_nets n_net_spans

let test_flow_trace_valid () =
  let d = Lazy.force design in
  let obs = Obs.create () in
  ignore (flow_run ~obs ~jobs:2 d);
  let m = Obs.snapshot obs in
  let j = parse_json (Export.chrome_trace m) in
  let events = as_arr (member "traceEvents" j) in
  Alcotest.(check bool) "has events" true (List.length events > 0);
  check_well_nested events;
  let named n = List.filter (fun ev -> as_str (member "name" ev) = n) events in
  Alcotest.(check int) "flow.net spans in trace" 4 (List.length (named "flow.net"));
  List.iter
    (fun ev ->
      let args = member "args" ev in
      Alcotest.(check bool) "cache annotation" true
        (match as_str (member "cache" args) with "hit" | "miss" -> true | _ -> false);
      Alcotest.(check bool) "iteration annotation" true
        (int_of_string (as_str (member "ceff_iterations" args)) > 0))
    (named "flow.net");
  (* The metrics exporter renders the same snapshot as valid JSON too. *)
  ignore (parse_json (Export.metrics_json m))

let () =
  Alcotest.run "rlc_obs"
    [
      ( "sink",
        [
          Alcotest.test_case "counters" `Quick test_counters;
          Alcotest.test_case "stats" `Quick test_stats;
          Alcotest.test_case "spans" `Quick test_spans;
          Alcotest.test_case "disabled no-op" `Quick test_disabled_noop;
          Alcotest.test_case "spans opt-out" `Quick test_spans_optout;
          Alcotest.test_case "cross-domain merge" `Quick test_cross_domain_merge;
          Alcotest.test_case "ambient trace" `Quick test_ambient_trace;
        ] );
      ( "telemetry",
        [
          Alcotest.test_case "quantile" `Quick test_quantile;
          Alcotest.test_case "window delta" `Quick test_window_delta;
          Alcotest.test_case "window capacity" `Quick test_window_capacity;
          Alcotest.test_case "window tick independence" `Quick test_window_tick_independence;
        ] );
      ( "memo",
        [
          QCheck_alcotest.to_alcotest prop_memo_lru;
          Alcotest.test_case "bound per shard" `Quick test_memo_shard_bound;
        ] );
      ( "export",
        [
          Alcotest.test_case "metrics json" `Quick test_metrics_json;
          Alcotest.test_case "escaping" `Quick test_json_escaping;
          Alcotest.test_case "chrome trace" `Quick test_chrome_trace;
        ] );
      ( "progress",
        [
          Alcotest.test_case "non-tty lines" `Quick test_progress_non_tty;
          Alcotest.test_case "every gating" `Quick test_progress_every;
          Alcotest.test_case "set_total" `Quick test_progress_set_total;
        ] );
      ( "hooks",
        [
          Alcotest.test_case "rootfind on_iter" `Quick test_rootfind_on_iter;
          Alcotest.test_case "engine counters" `Quick test_engine_counters;
        ] );
      ( "flow",
        [
          Alcotest.test_case "reports unchanged" `Quick test_flow_reports_unchanged;
          Alcotest.test_case "iteration counters" `Quick test_flow_iteration_counters;
          Alcotest.test_case "trace valid" `Quick test_flow_trace_valid;
        ] );
    ]
