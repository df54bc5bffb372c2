(* The per-layer ledger: spans from a traced run folded into self time per
   layer.  A span's self time is its duration minus the part of it that
   child spans on the same domain cover; a layer is named after the module
   whose public call the span wraps (bench spans) or records (library
   spans). *)

module Json = Rlc_service.Json

type span = {
  name : string;
  tid : int;
  start : float;  (** seconds *)
  dur : float;  (** seconds *)
  args : (string * string) list;
}

let of_obs (m : Rlc_obs.Obs.metrics) =
  List.map
    (fun (s : Rlc_obs.Obs.span) ->
      { name = s.sp_name; tid = s.sp_tid; start = s.sp_start; dur = s.sp_dur; args = s.sp_args })
    m.Rlc_obs.Obs.m_spans

(* Spans back from a Chrome trace written by [Rlc_obs.Export.chrome_trace]
   (the daemon's [--trace] file). *)
let of_chrome_trace text =
  let num = function Some (Json.Int n) -> float_of_int n | Some (Json.Float f) -> f | _ -> 0. in
  match Json.parse text with
  | Error (pos, msg) -> failwith (Printf.sprintf "trace: byte %d: %s" pos msg)
  | Ok j ->
      let events = Option.value ~default:[] (Option.bind (Json.member "traceEvents" j) Json.get_list) in
      List.map
        (fun e ->
          {
            name = Option.value ~default:"" (Option.bind (Json.member "name" e) Json.get_string);
            tid = Option.value ~default:0 (Option.bind (Json.member "tid" e) Json.get_int);
            start = 1e-6 *. num (Json.member "ts" e);
            dur = 1e-6 *. num (Json.member "dur" e);
            args =
              (match Option.bind (Json.member "args" e) Json.get_obj with
              | None -> []
              | Some kv -> List.filter_map (fun (k, v) -> Option.map (fun s -> (k, s)) (Json.get_string v)) kv);
          })
        events

type timed = { span : span; self : float; parent : string option }

(* Self time of every span: per domain, sweep spans in start order keeping
   the chain of open ancestors; each span's duration (clipped to its
   parent) is charged against the parent. *)
let self_times spans =
  let by_tid = Hashtbl.create 8 in
  List.iter
    (fun s -> Hashtbl.replace by_tid s.tid (s :: Option.value ~default:[] (Hashtbl.find_opt by_tid s.tid)))
    spans;
  Hashtbl.fold
    (fun _ group acc ->
      let group = List.sort (fun a b -> compare (a.start, -.a.dur) (b.start, -.b.dur)) group in
      let stack = ref [] and out = ref [] in
      List.iter
        (fun s ->
          let rec pop () =
            match !stack with
            | (p, _) :: rest when p.start +. p.dur <= s.start ->
                stack := rest;
                pop ()
            | _ -> ()
          in
          pop ();
          let parent =
            match !stack with
            | (p, self) :: _ ->
                let covered = Float.min (s.start +. s.dur) (p.start +. p.dur) -. s.start in
                self := !self -. Float.max 0. covered;
                Some p.name
            | [] -> None
          in
          let self = ref s.dur in
          stack := (s, self) :: !stack;
          out := (s, self, parent) :: !out)
        group;
      List.rev_append (List.map (fun (span, self, parent) -> { span; self = Float.max 0. !self; parent }) !out) acc)
    by_tid []

let layer_of name =
  match String.index_opt name '.' with
  | None -> "Bench"
  | Some i -> (
      match String.sub name 0 i with
      | "spef" -> "Spef"
      | "spec" -> "Spec"
      | "design" -> "Design"
      | "report" -> "Report"
      | "json" -> "Json"
      | "flow" -> "Flow"
      | "delta" -> "Delta"
      | "ceff" -> "Driver_model"
      | "engine" -> "Engine"
      | "characterize" | "char" -> "Characterize"
      | "xtalk" -> "Xtalk"
      | "optimize" -> "Optimize"
      | "pool" -> "Pool"
      | "service" -> "Server"
      | _ -> "Bench")

(* [(layer, self seconds)] summed over the spans, largest first.  A pool
   batch's self time is the submitting domain's share of jobs that record
   no span of their own plus its wait for the others, so it is charged to
   the layer that submitted the batch. *)
let fold timed =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun t ->
      let l =
        match t.parent with
        | Some p when t.span.name = "pool.batch" -> layer_of p
        | _ -> layer_of t.span.name
      in
      Hashtbl.replace tbl l (t.self +. Option.value ~default:0. (Hashtbl.find_opt tbl l)))
    timed;
  List.sort (fun (_, a) (_, b) -> Float.compare b a) (Hashtbl.fold (fun l v acc -> (l, v) :: acc) tbl [])

(* Accessors over one traced run. *)

let named timed name = List.filter (fun t -> String.equal t.span.name name) timed
let self_s timed name = List.fold_left (fun acc t -> acc +. t.self) 0. (named timed name)
let total_s timed name = List.fold_left (fun acc t -> acc +. t.span.dur) 0. (named timed name)
let count timed name = float_of_int (List.length (named timed name))

let arg_sum timed name key =
  List.fold_left
    (fun acc t ->
      match Option.bind (List.assoc_opt key t.span.args) float_of_string_opt with
      | Some v -> acc +. v
      | None -> acc)
    0. (named timed name)

let arg_count timed name key value =
  float_of_int
    (List.length (List.filter (fun t -> List.assoc_opt key t.span.args = Some value) (named timed name)))
