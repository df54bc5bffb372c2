module Driver_model = Rlc_ceff.Driver_model
module Screen = Rlc_ceff.Screen
module Measure = Rlc_waveform.Measure
module Units = Rlc_num.Units
module Obs = Rlc_obs.Obs
module Pool = Rlc_parallel.Pool

let ps = Units.in_ps
let ff = Units.in_ff

(* The C conversion [Printf.sprintf "%.6g"] ends in: called directly, a
   number skips building the format string and interpreting it. *)
external format_float : string -> float -> string = "caml_format_float"

(* One float format for every payload so report bytes are reproducible.
   [%g] prints a NaN or an infinity bare, which no JSON reader accepts, so
   a non-finite value is an internal error naming its renderer and field. *)
let number ~prefix field x =
  if Float.is_finite x then format_float "%.6g" x
  else failwith (Printf.sprintf "%s: %s is %g, not a finite number" prefix field x)

let num field x = number ~prefix:"Rlc_flow.Report" field x

let num_ps field x = num field (ps x)

let edge_name = function Measure.Rising -> "rise" | Measure.Falling -> "fall"

let shape_name (m : Driver_model.t) =
  match m.Driver_model.shape with
  | Driver_model.One_ramp _ -> "one-ramp"
  | Driver_model.Two_ramp _ -> "two-ramp"

let ceffs (m : Driver_model.t) =
  match m.Driver_model.shape with
  | Driver_model.One_ramp { ceff; _ } -> (ceff, None)
  | Driver_model.Two_ramp { ceff1; ceff2; _ } -> (ceff1, Some ceff2)

(* ------------------------------------------------------------ histogram *)

type histogram = { bin_width : float; lo : float; counts : int array }

let histogram ?(bins = 8) values =
  match values with
  | [] -> { bin_width = 1.; lo = 0.; counts = [||] }
  | _ ->
      let lo = List.fold_left Float.min Float.infinity values in
      let hi = List.fold_left Float.max Float.neg_infinity values in
      let width = if hi > lo then (hi -. lo) /. float_of_int bins else 1. in
      let counts = Array.make bins 0 in
      List.iter
        (fun v ->
          let b = Int.min (bins - 1) (int_of_float ((v -. lo) /. width)) in
          counts.(b) <- counts.(b) + 1)
        values;
      { bin_width = width; lo; counts }

(* ----------------------------------------------------------------- JSON *)

let json_escape s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let json_histogram h =
  Printf.sprintf {|{"lo_ps":%s,"bin_width_ps":%s,"counts":[%s]}|} (num_ps "lo_ps" h.lo)
    (num_ps "bin_width_ps" h.bin_width)
    (String.concat "," (List.map string_of_int (Array.to_list h.counts)))

(* Net [r]'s entry, written field by field in the report's order and
   separators; of several non-finite fields, the first is named. *)
let net_json (r : Flow.net_result) =
  let m = r.Flow.solve.Flow.model in
  let c1, c2 = ceffs m in
  let buf = Buffer.create 512 in
  let add = Buffer.add_string buf in
  let field key v =
    add ",\"";
    add key;
    add "\":";
    add v
  in
  let str key v = field key ("\"" ^ v ^ "\"") in
  let fnum key x = field key (num key x) and fps key x = field key (num_ps key x) in
  add "    {\"net\":\"";
  add (json_escape r.Flow.net.Design.name);
  add "\"";
  field "level" (string_of_int r.Flow.net.Design.level);
  fnum "driver_size" r.Flow.net.Design.size;
  str "edge" (edge_name r.Flow.edge);
  fps "input_slew_ps" r.Flow.input_slew;
  str "shape" (shape_name m);
  field "inductive" (string_of_bool m.Driver_model.screen.Screen.significant);
  fnum "f" m.Driver_model.f;
  fnum "rs_ohm" m.Driver_model.rs;
  fnum "z0_ohm" m.Driver_model.z0;
  fps "tf_ps" m.Driver_model.tf;
  fnum "ceff1_ff" (ff c1.Driver_model.value);
  fps "tr1_ps" c1.Driver_model.ramp;
  (match c2 with
  | Some c ->
      fnum "ceff2_ff" (ff c.Driver_model.value);
      fps "tr2_ps" c.Driver_model.ramp
  | None ->
      field "ceff2_ff" "null";
      field "tr2_ps" "null");
  field "ceff_iterations" (string_of_int r.Flow.solve.Flow.iterations);
  fps "near_delay_ps" m.Driver_model.delay_50;
  fps "stage_delay_ps" r.Flow.solve.Flow.stage_delay;
  fps "far_slew_ps" r.Flow.solve.Flow.far_slew;
  fps "arrival_ps" r.Flow.arrival;
  add "}";
  Buffer.contents buf

(* A rendered entry: the bytes it was rendered to and, in a store, those
   bytes escaped by the store's [escape]. *)
type entry = { result : Flow.net_result; text : string; escaped : string }

type entries = { mutable rendered : entry array; escape : string -> string }

let entries ~escape () = { rendered = [||]; escape }

(* An entry is a function of the net record, the solve, and the three
   floats and edge the flow adds; physically equal records and bit-equal
   floats render the same bytes. *)
let same_entry (a : Flow.net_result) (b : Flow.net_result) =
  a.Flow.net == b.Flow.net && a.Flow.solve == b.Flow.solve && a.Flow.edge = b.Flow.edge
  && Cache.same_bits a.Flow.input_slew b.Flow.input_slew
  && Cache.same_bits a.Flow.arrival b.Flow.arrival

(* Entries a pool job renders. *)
let render_chunk = 32

(* The report's entries: each one the store holds for an unchanged result
   is reused, the others are rendered (and escaped for a store) as jobs of
   [pool], [render_chunk] in result order a job, so the first failing
   entry's error is raised, as a render in order raises it. *)
let net_entries ~obs ~pool ?entries (result : Flow.result) =
  let prev = match entries with Some e -> e.rendered | None -> [||] in
  let results = result.Flow.results in
  let kept = Array.mapi (fun i r -> i < Array.length prev && same_entry prev.(i).result r) results in
  let todo = Array.of_seq (Seq.filter (fun i -> not kept.(i)) (Seq.init (Array.length results) Fun.id)) in
  let rendered =
    Pool.init pool ~chunk:render_chunk (Array.length todo) (fun k ->
        let r = results.(todo.(k)) in
        let text = net_json r in
        let escaped = match entries with Some e -> e.escape text | None -> "" in
        { result = r; text; escaped })
  in
  let next = ref 0 in
  let fresh =
    Array.mapi
      (fun i _ ->
        if kept.(i) then prev.(i)
        else begin
          incr next;
          rendered.(!next - 1)
        end)
      results
  in
  Obs.add obs "report.entries_rendered" !next;
  if Option.is_some entries then Obs.add obs "report.entries_escaped" !next;
  fresh

(* The report in three parts: the header, through the opening of
   ["net_results"]; the entries, each followed by [",\n"] but the last by
   ["\n"]; and the rest. *)
let parts ~obs ~pool ?required ?xtalk ?entries (result : Flow.result) =
  let rendered = net_entries ~obs ~pool ?entries result in
  let buf = Buffer.create 1024 in
  let p fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let stats = result.Flow.stats in
  p "{\n";
  p "  \"design\": \"%s\",\n" (json_escape result.Flow.design.Design.design_name);
  p "  \"nets\": %d,\n" stats.Flow.n_nets;
  p "  \"levels\": %d,\n" stats.Flow.n_levels;
  p "  \"inductive_nets\": %d,\n" stats.Flow.n_inductive;
  p "  \"two_ramp_nets\": %d,\n" stats.Flow.n_two_ramp;
  p "  \"ceff_iterations\": %d,\n" stats.Flow.iterations_total;
  p "  \"net_results\": [\n";
  let header = Buffer.contents buf in
  Buffer.clear buf;
  p "  ],\n";
  (* Pre-rendered crosstalk fragment (Rlc_xtalk lives above this library, so
     the composition is by string injection); absent, the payload is
     byte-identical to an isolated-flow report. *)
  (match xtalk with Some x -> p "  \"xtalk\": %s,\n" x | None -> ());
  let path = Flow.critical_path result in
  let worst_arrival =
    match List.rev path with last :: _ -> last.Flow.arrival | [] -> 0.
  in
  p "  \"summary\": {\n";
  p "    \"worst_arrival_ps\": %s,\n" (num_ps "worst_arrival_ps" worst_arrival);
  (match required with
  | Some req -> p "    \"worst_slack_ps\": %s,\n" (num_ps "worst_slack_ps" (req -. worst_arrival))
  | None -> ());
  p "    \"critical_path\": [%s],\n"
    (String.concat ","
       (List.map (fun r -> "\"" ^ json_escape r.Flow.net.Design.name ^ "\"") path));
  let delays =
    Array.to_list (Array.map (fun r -> r.Flow.solve.Flow.stage_delay) result.Flow.results)
  in
  let slews =
    Array.to_list (Array.map (fun r -> r.Flow.solve.Flow.far_slew) result.Flow.results)
  in
  p "    \"stage_delay_histogram\": %s,\n" (json_histogram (histogram delays));
  p "    \"far_slew_histogram\": %s\n" (json_histogram (histogram slews));
  p "  }\n";
  p "}\n";
  (header, rendered, Buffer.contents buf)

(* The report in one exactly sized string: no buffer to outgrow or copy. *)
let text (header, rendered, footer) =
  let n = Array.length rendered in
  let entries = Array.fold_left (fun acc e -> acc + String.length e.text + 2) (-1) rendered in
  let b = Bytes.create (String.length header + Int.max 0 entries + String.length footer) in
  let pos = ref 0 in
  let put s =
    Bytes.blit_string s 0 b !pos (String.length s);
    pos := !pos + String.length s
  in
  put header;
  Array.iteri
    (fun i e ->
      put e.text;
      put (if i < n - 1 then ",\n" else "\n"))
    rendered;
  put footer;
  Bytes.unsafe_to_string b

(* Render, then hand the store this report's entries: only a report that
   rendered whole changes it. *)
let render ~obs ?pool ?required ?xtalk ?entries result k =
  Obs.layer obs "report.render" (fun () ->
      let ((_, rendered, _) as parts) =
        parts ~obs ~pool:(Pool.borrow ?pool ()) ?required ?xtalk ?entries result
      in
      let v = k parts in
      Option.iter (fun e -> e.rendered <- rendered) entries;
      v)

let json_string ?(obs = Obs.null) ?pool ?required ?xtalk result =
  render ~obs ?pool ?required ?xtalk result text

let json_escaped ?(obs = Obs.null) ?pool ?required ?xtalk ~entries result =
  render ~obs ?pool ?required ?xtalk ~entries result (fun ((header, rendered, footer) as parts) ->
      let escape = entries.escape and n = Array.length rendered in
      let sep = escape ",\n" and last = escape "\n" in
      let chunks = ref [ escape footer ] in
      for i = n - 1 downto 0 do
        chunks := rendered.(i).escaped :: (if i < n - 1 then sep else last) :: !chunks
      done;
      (text parts, escape header :: !chunks))

(* ------------------------------------------------------------------ CSV *)

let csv_string (result : Flow.result) =
  let buf = Buffer.create 2048 in
  Buffer.add_string buf
    "net,level,driver_size,edge,input_slew_ps,shape,inductive,f,rs_ohm,z0_ohm,tf_ps,ceff1_ff,tr1_ps,ceff2_ff,tr2_ps,ceff_iterations,near_delay_ps,stage_delay_ps,far_slew_ps,arrival_ps\n";
  Array.iter
    (fun (r : Flow.net_result) ->
      let m = r.Flow.solve.Flow.model in
      let c1, c2 = ceffs m in
      Buffer.add_string buf
        (Printf.sprintf "%s,%d,%s,%s,%s,%s,%b,%s,%s,%s,%s,%s,%s,%s,%s,%d,%s,%s,%s,%s\n"
           r.Flow.net.Design.name r.Flow.net.Design.level
           (num "driver_size" r.Flow.net.Design.size)
           (edge_name r.Flow.edge)
           (num_ps "input_slew_ps" r.Flow.input_slew)
           (shape_name m) m.Driver_model.screen.Screen.significant (num "f" m.Driver_model.f)
           (num "rs_ohm" m.Driver_model.rs) (num "z0_ohm" m.Driver_model.z0)
           (num_ps "tf_ps" m.Driver_model.tf)
           (num "ceff1_ff" (ff c1.Driver_model.value))
           (num_ps "tr1_ps" c1.Driver_model.ramp)
           (match c2 with Some c -> num "ceff2_ff" (ff c.Driver_model.value) | None -> "")
           (match c2 with Some c -> num_ps "tr2_ps" c.Driver_model.ramp | None -> "")
           r.Flow.solve.Flow.iterations
           (num_ps "near_delay_ps" m.Driver_model.delay_50)
           (num_ps "stage_delay_ps" r.Flow.solve.Flow.stage_delay)
           (num_ps "far_slew_ps" r.Flow.solve.Flow.far_slew)
           (num_ps "arrival_ps" r.Flow.arrival)))
    result.Flow.results;
  Buffer.contents buf

(* ------------------------------------------------------- optimize report *)

let worst_arrival (result : Flow.result) =
  match List.rev (Flow.critical_path result) with
  | last :: _ -> last.Flow.arrival
  | [] -> 0.

let fix_kind_json (f : Optimize.net_fix) =
  match f.Optimize.f_fix with
  | Optimize.Resize { to_size } ->
      Printf.sprintf {|{"kind":"resize","to_size":%s}|} (num "to_size" to_size)
  | Optimize.Repeaters { stages; size; est_delay } ->
      Printf.sprintf {|{"kind":"repeaters","stages":%d,"size":%s,"est_delay_ps":%s}|} stages
        (num "size" size) (num_ps "est_delay_ps" est_delay)
  | Optimize.Unfixable -> {|{"kind":"unfixable"}|}

let fix_json (f : Optimize.net_fix) =
  Printf.sprintf
    {|    {"net":"%s","level":%d,"edge":"%s","driver_size":%s,"slack_before_ps":%s,"slack_after_ps":%s,"residual_ps":%s,"stage_before_ps":%s,"stage_after_ps":%s,"candidates":%d,"screened":%d,"escalations":%d,"fix":%s}|}
    (json_escape f.Optimize.f_net.Design.name)
    f.Optimize.f_net.Design.level (edge_name f.Optimize.f_edge)
    (num "driver_size" f.Optimize.f_net.Design.size)
    (num_ps "slack_before_ps" f.Optimize.f_slack_before)
    (num_ps "slack_after_ps" f.Optimize.f_slack_after)
    (num_ps "residual_ps" f.Optimize.f_residual)
    (num_ps "stage_before_ps" f.Optimize.f_stage_before)
    (num_ps "stage_after_ps" f.Optimize.f_stage_after)
    f.Optimize.f_candidates f.Optimize.f_screened f.Optimize.f_escalations (fix_kind_json f)

(* Only deterministic quantities enter the payload: fix choices, candidate /
   screen / escalation counts (pure search), and slacks from the verified
   flows.  Cache and wall-clock telemetry stays in {!optimize_summary}. *)
let optimize_json_string (o : Optimize.t) =
  let buf = Buffer.create 2048 in
  let p fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let s = o.Optimize.stats in
  p "{\n";
  p "  \"design\": \"%s\",\n"
    (json_escape o.Optimize.before.Flow.design.Design.design_name);
  p "  \"required_ps\": %s,\n" (num_ps "required_ps" o.Optimize.required);
  p "  \"nets\": %d,\n" s.Optimize.o_nets;
  p "  \"violations_before\": %d,\n" s.Optimize.o_violations_before;
  p "  \"violations_after\": %d,\n" s.Optimize.o_violations_after;
  p "  \"resized\": %d,\n" s.Optimize.o_resized;
  p "  \"repeater_recommendations\": %d,\n" s.Optimize.o_repeaters;
  p "  \"unfixable\": %d,\n" s.Optimize.o_unfixable;
  p "  \"candidates\": %d,\n" s.Optimize.o_candidates;
  p "  \"screened\": %d,\n" s.Optimize.o_screened;
  p "  \"escalations\": %d,\n" s.Optimize.o_escalations;
  p "  \"fixes\": [\n";
  Array.iteri
    (fun i f ->
      Buffer.add_string buf (fix_json f);
      if i < Array.length o.Optimize.fixes - 1 then Buffer.add_string buf ",";
      Buffer.add_string buf "\n")
    o.Optimize.fixes;
  p "  ],\n";
  let wa_before = worst_arrival o.Optimize.before
  and wa_after = worst_arrival o.Optimize.after in
  p "  \"summary\": {\n";
  p "    \"worst_slack_before_ps\": %s,\n"
    (num_ps "worst_slack_before_ps" (o.Optimize.required -. wa_before));
  p "    \"worst_slack_after_ps\": %s,\n"
    (num_ps "worst_slack_after_ps" (o.Optimize.required -. wa_after));
  p "    \"slack_recovered_ps\": %s\n" (num_ps "slack_recovered_ps" (wa_before -. wa_after));
  p "  }\n";
  p "}\n";
  Buffer.contents buf

let optimize_csv_string (o : Optimize.t) =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    "net,level,edge,driver_size,slack_before_ps,slack_after_ps,residual_ps,stage_before_ps,stage_after_ps,candidates,screened,escalations,fix,fix_size,fix_stages\n";
  Array.iter
    (fun (f : Optimize.net_fix) ->
      let kind, fsize, fstages =
        match f.Optimize.f_fix with
        | Optimize.Resize { to_size } -> ("resize", num "fix_size" to_size, "")
        | Optimize.Repeaters { stages; size; _ } ->
            ("repeaters", num "fix_size" size, string_of_int stages)
        | Optimize.Unfixable -> ("unfixable", "", "")
      in
      Buffer.add_string buf
        (Printf.sprintf "%s,%d,%s,%s,%s,%s,%s,%s,%s,%d,%d,%d,%s,%s,%s\n"
           f.Optimize.f_net.Design.name f.Optimize.f_net.Design.level
           (edge_name f.Optimize.f_edge)
           (num "driver_size" f.Optimize.f_net.Design.size)
           (num_ps "slack_before_ps" f.Optimize.f_slack_before)
           (num_ps "slack_after_ps" f.Optimize.f_slack_after)
           (num_ps "residual_ps" f.Optimize.f_residual)
           (num_ps "stage_before_ps" f.Optimize.f_stage_before)
           (num_ps "stage_after_ps" f.Optimize.f_stage_after)
           f.Optimize.f_candidates f.Optimize.f_screened f.Optimize.f_escalations kind fsize
           fstages))
    o.Optimize.fixes;
  Buffer.contents buf

let optimize_summary fmt (o : Optimize.t) =
  let s = o.Optimize.stats in
  Format.fprintf fmt "optimize %s: required %.1f ps@."
    o.Optimize.before.Flow.design.Design.design_name
    (ps o.Optimize.required);
  Format.fprintf fmt "  violations: %d before -> %d after (of %d nets)@."
    s.Optimize.o_violations_before s.Optimize.o_violations_after s.Optimize.o_nets;
  Format.fprintf fmt "  fixes: %d resized, %d repeater recommendation%s, %d unfixable@."
    s.Optimize.o_resized s.Optimize.o_repeaters
    (if s.Optimize.o_repeaters = 1 then "" else "s")
    s.Optimize.o_unfixable;
  Format.fprintf fmt "  search: %d candidates evaluated, %d screened out, %d escalations@."
    s.Optimize.o_candidates s.Optimize.o_screened s.Optimize.o_escalations;
  Format.fprintf fmt "  characterization: %d hits, %d misses; compiled handles: %d hits, %d misses@."
    s.Optimize.o_char_hits s.Optimize.o_char_misses s.Optimize.o_handle_hits
    s.Optimize.o_handle_misses;
  let wa_before = worst_arrival o.Optimize.before
  and wa_after = worst_arrival o.Optimize.after in
  Format.fprintf fmt "  worst slack: %+.1f ps -> %+.1f ps (recovered %.1f ps)@."
    (ps (o.Optimize.required -. wa_before))
    (ps (o.Optimize.required -. wa_after))
    (ps (wa_before -. wa_after));
  Format.fprintf fmt "  workers: %d domain%s, %.1f s@." s.Optimize.o_jobs_used
    (if s.Optimize.o_jobs_used = 1 then "" else "s")
    s.Optimize.o_seconds

(* -------------------------------------------------------------- summary *)

let summary ?required fmt (result : Flow.result) =
  let stats = result.Flow.stats in
  Format.fprintf fmt "design %s: %d nets in %d levels@." result.Flow.design.Design.design_name
    stats.Flow.n_nets stats.Flow.n_levels;
  Format.fprintf fmt "  screen: %d inductive (two-ramp: %d), %d RC-like@." stats.Flow.n_inductive
    stats.Flow.n_two_ramp
    (stats.Flow.n_nets - stats.Flow.n_inductive);
  Format.fprintf fmt "  Ceff iterations: %d modeled, %d actually run (cache: %d hits, %d misses)@."
    stats.Flow.iterations_total stats.Flow.iterations_spent stats.Flow.cache_hits
    stats.Flow.cache_misses;
  Format.fprintf fmt "  characterization: %d hits, %d misses (%d stored)@." stats.Flow.char_hits
    stats.Flow.char_misses stats.Flow.char_stores;
  Format.fprintf fmt "  workers: %d domain%s@." stats.Flow.jobs_used
    (if stats.Flow.jobs_used = 1 then "" else "s");
  let path = Flow.critical_path result in
  (match List.rev path with
  | last :: _ ->
      Format.fprintf fmt "  critical path (%s): %s, arrival %.1f ps@."
        (String.concat " -> " (List.map (fun r -> r.Flow.net.Design.name) path))
        (match required with
        | Some req -> Printf.sprintf "slack %+.1f ps" (ps (req -. last.Flow.arrival))
        | None -> "no required time")
        (ps last.Flow.arrival)
  | [] -> ());
  List.iter
    (fun ph -> Format.fprintf fmt "  phase %-12s %8.1f ms@." ph.Flow.p_name (1e3 *. ph.Flow.p_seconds))
    stats.Flow.phases
