(* rlc_bench: the repository's end-to-end benchmark.

     rlc_bench --workload W --seed N --seconds S --trace 0|1 [--smoke] [--json FILE]
         run one workload in this process; the last stdout line is the
         result ({"correct","attempted","failed","metrics"}): end-to-end
         metrics with --trace 0, per-layer metrics with --trace 1
     rlc_bench run --seed N --out FILE [--seconds S] [--smoke] [--traced]
         run every workload, each in a fresh process, and write one result
         file with the host block
     rlc_bench compare A.json B.json [C.json ...]
         compare result files (a comma-joined list is one side of repeated
         runs) against the bounds in BENCHMARK.json
     rlc_bench check BENCHMARK.json RESULT.json
         assert a result is complete: no failures, every metric the
         benchmark names present, finite and in its unit

   Run-time files (the served workload's inputs and socket, traces, the
   per-workload records of [run]) go under --workdir (default .rlc_bench). *)

module Json = Rlc_service.Json
module W = Workloads

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("rlc_bench: " ^ s); exit 2) fmt

(* ------------------------------------------------------------ JSON out *)

let num v = Json.Float (if Float.is_finite v then v else Float.max_float)

(* Indented JSON, one array of numbers per line: readable when committed. *)
let pretty j =
  let b = Buffer.create 4096 in
  let rec go ind j =
    let pad = String.make (ind + 2) ' ' in
    match j with
    | Json.Obj [] -> Buffer.add_string b "{}"
    | Json.Obj kv ->
        Buffer.add_string b "{\n";
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Buffer.add_string b ",\n";
            Buffer.add_string b (pad ^ Json.to_string (Json.Str k) ^ ": ");
            go (ind + 2) v)
          kv;
        Buffer.add_string b ("\n" ^ String.make ind ' ' ^ "}")
    | Json.List l when List.exists (function Json.Obj _ | Json.List _ -> true | _ -> false) l ->
        Buffer.add_string b "[\n";
        List.iteri
          (fun i v ->
            if i > 0 then Buffer.add_string b ",\n";
            Buffer.add_string b pad;
            go (ind + 2) v)
          l;
        Buffer.add_string b ("\n" ^ String.make ind ' ' ^ "]")
    | leaf -> Buffer.add_string b (Json.to_string leaf)
  in
  go 0 j;
  Buffer.add_char b '\n';
  Buffer.contents b

let metric_json (m : W.metric) =
  (m.W.name, Json.Obj [ ("value", num m.W.value); ("unit", Json.Str m.W.unit_); ("samples", Json.List (List.map num m.W.samples)) ])

let record ~workload ~seed ~smoke ~traced ~seconds (o : W.outcome) =
  let share total v = if total > 0. then 100. *. v /. total else 0. in
  let total = List.fold_left (fun acc (_, v) -> acc +. v) 0. o.W.ledger in
  Json.Obj
    [
      ("workload", Json.Str workload);
      ("seed", Json.Int seed);
      ("smoke", Json.Bool smoke);
      ("traced", Json.Bool traced);
      ("seconds", num seconds);
      ("correct", Json.Bool (o.W.failed = 0 && o.W.notes = []));
      ("attempted", Json.Int o.W.attempted);
      ("failed", Json.Int o.W.failed);
      ("fail_ratio", num (float_of_int o.W.failed /. float_of_int (Int.max 1 o.W.attempted)));
      ("notes", Json.List (List.map (fun s -> Json.Str s) o.W.notes));
      ("metrics", Json.Obj (List.map metric_json o.W.e2e));
      ("per_layer", Json.Obj (List.map metric_json o.W.layers));
      ("extra", Json.Obj (List.map (fun (k, v) -> (k, num v)) o.W.extra));
      ( "ledger",
        Json.List
          (List.map
             (fun (l, v) ->
               Json.Obj [ ("layer", Json.Str l); ("self_ms_per_op", num v); ("share_pct", num (share total v)) ])
             o.W.ledger) );
    ]

(* ------------------------------------------------------------ JSON in *)

let load path =
  match Json.parse (Stats.read_file path) with
  | Ok j -> j
  | Error (pos, msg) -> die "%s: byte %d: %s" path pos msg
  | exception Sys_error msg -> die "%s" msg

let path j keys = List.fold_left (fun acc k -> Option.bind acc (Json.member k)) (Some j) keys
let str j keys = Option.bind (path j keys) Json.get_string
let float j keys = Option.bind (path j keys) Json.get_float
let list j keys = Option.value ~default:[] (Option.bind (path j keys) Json.get_list)

type declared = { d_name : string; d_unit : string; d_lower : bool; d_bound : float }

let declared benchmark section =
  List.map
    (fun m ->
      {
        d_name = Option.value ~default:"" (str m [ "name" ]);
        d_unit = Option.value ~default:"" (str m [ "unit" ]);
        d_lower = str m [ "better" ] = Some "lower";
        d_bound = Option.value ~default:0. (float m [ "bound" ]);
      })
    (list benchmark [ section ])

let workload_names benchmark = List.filter_map (fun w -> str w [ "name" ]) (list benchmark [ "workloads" ])

(* -------------------------------------------------------------- bench *)

let print_metrics title ms =
  Printf.printf "%s\n" title;
  List.iter (fun (m : W.metric) -> Printf.printf "  %-32s %14.6g %s\n" m.W.name m.W.value m.W.unit_) ms

let bench ~workload ~seed ~seconds ~trace ~smoke ~json ~workdir ~daemon =
  let run =
    match List.assoc_opt workload W.all with
    | Some f -> f
    | None -> die "unknown workload %S (known: %s)" workload (String.concat ", " (List.map fst W.all))
  in
  if workload = "eco_served" && not (Sys.file_exists daemon) then
    die "daemon %s not found: build it with `dune build bin/rlc_timing.exe' or pass --daemon" daemon;
  Stats.mkdir_p workdir;
  let ctx = { W.seed; seconds; smoke; traced = trace; workdir; daemon } in
  let o =
    try run ctx
    with e ->
      Printf.eprintf "rlc_bench: %s: %s\n" workload (Printexc.to_string e);
      exit 1
  in
  Printf.printf "%s  seed %d  %d operations, %d failed\n" workload seed o.W.attempted o.W.failed;
  List.iter (Printf.printf "  FAIL %s\n") o.W.notes;
  print_metrics "end to end:" o.W.e2e;
  List.iter (fun (k, v) -> Printf.printf "  %-32s %14.6g\n" k v) o.W.extra;
  if trace then begin
    print_metrics "per layer (per operation, traced):" o.W.layers;
    Printf.printf "ledger (self ms per operation):\n";
    List.iter (fun (l, v) -> Printf.printf "  %-14s %12.3f\n" l v) o.W.ledger
  end;
  Option.iter
    (fun path -> Stats.write_file path (pretty (record ~workload ~seed ~smoke ~traced:trace ~seconds o)))
    json;
  let metrics = if trace then o.W.layers else o.W.e2e in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool (o.W.failed = 0 && o.W.notes = []));
            ("attempted", Json.Int o.W.attempted);
            ("failed", Json.Int o.W.failed);
            ( "metrics",
              Json.Obj
                (List.map
                   (fun (m : W.metric) -> (m.W.name, Json.Obj [ ("value", num m.W.value); ("unit", Json.Str m.W.unit_) ]))
                   metrics) );
          ]))

(* ---------------------------------------------------------------- run *)

let git_revision () =
  match Unix.open_process_args_in "git" [| "git"; "rev-parse"; "HEAD" |] with
  | exception Unix.Unix_error _ -> "unknown"
  | ic -> (
      let line = try Some (input_line ic) with End_of_file -> None in
      match (Unix.close_process_in ic, line) with
      | Unix.WEXITED 0, Some rev -> String.trim rev
      | _ -> "unknown")

let run_all ~seed ~seconds ~smoke ~traced ~out ~workdir ~daemon =
  Stats.mkdir_p workdir;
  let records =
    List.map
      (fun (w, _) ->
        let json = Filename.concat workdir (w ^ ".json") in
        let args =
          [ "--workload"; w; "--seed"; string_of_int seed; "--seconds"; Printf.sprintf "%g" seconds ]
          @ [ "--trace"; (if traced then "1" else "0"); "--json"; json; "--workdir"; workdir; "--daemon"; daemon ]
          @ if smoke then [ "--smoke" ] else []
        in
        let exe = Sys.executable_name and log = Filename.concat workdir (w ^ ".log") in
        let fd = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
        let pid =
          Fun.protect
            ~finally:(fun () -> Unix.close fd)
            (fun () -> Unix.create_process exe (Array.of_list (exe :: args)) Unix.stdin fd fd)
        in
        (match Unix.waitpid [] pid with
        | _, Unix.WEXITED 0 -> ()
        | _ -> die "workload %s failed (see %s)" w log);
        (w, load json))
      W.all
  in
  let samples j = match path j [ "metrics"; "op_p50_ms"; "samples" ] with Some (Json.List l) -> List.length l | _ -> 0 in
  let host =
    Json.Obj
      [
        ("nproc", Json.Int (Stats.nproc ()));
        ("recommended_domains", Json.Int (Domain.recommended_domain_count ()));
        ("git_revision", Json.Str (git_revision ()));
        ("ocaml_version", Json.Str Sys.ocaml_version);
        ("smoke", Json.Bool smoke);
        ("traced", Json.Bool traced);
        ("seed", Json.Int seed);
        ("seconds", num seconds);
        ("samples", Json.Obj (List.map (fun (w, j) -> (w, Json.Int (samples j))) records));
      ]
  in
  Stats.write_file out
    (pretty (Json.Obj [ ("schema", Json.Str "rlc-bench/1"); ("host", host); ("workloads", Json.Obj records) ]));
  List.iter
    (fun (w, j) ->
      let section key =
        match path j [ key ] with
        | Some (Json.Obj kv) ->
            List.iter
              (fun (name, m) ->
                Printf.printf "%-16s %-32s %14.6g %s\n" w name
                  (Option.value ~default:Float.nan (float m [ "value" ]))
                  (Option.value ~default:"" (str m [ "unit" ])))
              kv
        | _ -> ()
      in
      section "metrics";
      section "per_layer")
    records;
  Printf.printf "wrote %s\n" out

(* ------------------------------------------------------------ compare *)

let compare_files ~benchmark sides =
  let bench = load benchmark in
  let sides = List.map (fun s -> List.map load (String.split_on_char ',' s)) sides in
  let regressed = ref false in
  Printf.printf "%-16s %-14s %-8s %s\n" "workload" "metric" "bound"
    (String.concat " "
       (List.mapi (fun i _ -> Printf.sprintf "%-30s" (Printf.sprintf "side %d: median [q1, q3]" i)) sides)
    ^ " verdict");
  List.iter
    (fun w ->
      let fail_ratio files =
        Stats.mean (List.map (fun f -> Option.value ~default:0. (float f [ "workloads"; w; "fail_ratio" ])) files)
      in
      let base_fail = fail_ratio (List.hd sides) in
      List.iter
        (fun d ->
          (* A side is one or more runs of the same commit, and its median
             is the median of their values.  Run-to-run spread, which can
             make a verdict unresolved, needs two runs or more; a single
             run shows its own samples' quartiles for information. *)
          let side files =
            let metric f key = path f [ "workloads"; w; "metrics"; d.d_name; key ] in
            let runs = List.filter_map (fun f -> Option.bind (metric f "value") Json.get_float) files in
            let shown =
              match (runs, files) with
              | [ _ ], [ f ] -> (
                  match metric f "samples" with
                  | Some (Json.List l) -> List.filter_map Json.get_float l
                  | _ -> runs)
              | _ -> runs
            in
            (Stats.median runs, Stats.quantile shown 0.25, Stats.quantile shown 0.75, runs)
          in
          let stats = List.map side sides in
          let spread (m, _, _, runs) =
            if List.length runs < 2 || m = 0. then 0.
            else (Stats.quantile runs 0.75 -. Stats.quantile runs 0.25) /. Float.abs m
          in
          let m0, _, _, v0 = List.hd stats in
          let verdicts =
            List.map
              (fun ((m, _, _, vs) as s) ->
                let worse = (if d.d_lower then m -. m0 else m0 -. m) /. Float.abs m0 in
                let better_everywhere =
                  List.for_all (fun v -> List.for_all (fun b -> if d.d_lower then v < b else v > b) v0) vs
                in
                if Float.max (spread s) (spread (List.hd stats)) > d.d_bound && not better_everywhere then
                  "unresolved"
                else if worse > d.d_bound then begin
                  regressed := true;
                  "regressed"
                end
                else "ok")
              (List.tl stats)
          in
          Printf.printf "%-16s %-14s %-8s %s %s\n" w d.d_name
            (Printf.sprintf "%.0f%%" (100. *. d.d_bound))
            (String.concat " "
               (List.map (fun (m, q1, q3, _) -> Printf.sprintf "%-30s" (Printf.sprintf "%.4g [%.4g, %.4g]" m q1 q3)) stats))
            (String.concat "," verdicts))
        (declared bench "end_to_end");
      List.iteri
        (fun i files ->
          if i > 0 && fail_ratio files > base_fail then begin
            regressed := true;
            Printf.printf "%-16s fail_ratio rose on side %d: %g -> %g\n" w i base_fail (fail_ratio files)
          end)
        sides)
    (workload_names bench);
  if !regressed then exit 1

(* -------------------------------------------------------------- check *)

let check ~benchmark result =
  let bench = load benchmark and res = load result in
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let traced = path res [ "host"; "traced" ] = Some (Json.Bool true) in
  List.iter
    (fun w ->
      match path res [ "workloads"; w ] with
      | None -> problem "%s: missing" w
      | Some r ->
          if path r [ "correct" ] <> Some (Json.Bool true) then problem "%s: not correct" w;
          if float r [ "fail_ratio" ] <> Some 0. then problem "%s: fail_ratio is not 0" w;
          let expect section decl =
            List.iter
              (fun d ->
                match (float r [ section; d.d_name; "value" ], str r [ section; d.d_name; "unit" ]) with
                | Some v, Some u when Float.is_finite v && v < Float.max_float && u = d.d_unit -> ()
                | _ -> problem "%s: %s is missing, non-finite or not in %s" w d.d_name d.d_unit)
              decl
          in
          expect "metrics" (declared bench "end_to_end");
          if traced then expect "per_layer" (declared bench "per_layer"))
    (workload_names bench);
  List.iter (fun (name, _) -> if not (List.mem name (workload_names bench)) then problem "%s: not in %s" name benchmark) W.all;
  match List.rev !problems with
  | [] -> Printf.printf "%s: complete (%d workloads%s)\n" result (List.length W.all) (if traced then ", traced" else "")
  | ps ->
      List.iter (Printf.printf "FAIL %s\n") ps;
      exit 1

(* --------------------------------------------------------------- main *)

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let args = List.tl (Array.to_list Sys.argv) in
  let command, args =
    match args with
    | ("run" | "compare" | "check") as c :: rest -> (c, rest)
    | rest -> ("bench", rest)
  in
  let opts = Hashtbl.create 16 and flags = ref [] and positional = ref [] in
  let rec parse = function
    | [] -> ()
    | ("--smoke" | "--traced") as f :: rest ->
        flags := f :: !flags;
        parse rest
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        Hashtbl.replace opts k v;
        parse rest
    | k :: _ when String.length k > 2 && String.sub k 0 2 = "--" -> die "%s needs a value" k
    | p :: rest ->
        positional := p :: !positional;
        parse rest
  in
  parse args;
  let positional = List.rev !positional in
  let opt k = Hashtbl.find_opt opts k in
  let int_opt k default =
    match opt k with
    | None -> default
    | Some v -> ( match int_of_string_opt v with Some n -> n | None -> die "%s expects an integer, got %S" k v)
  in
  let smoke = List.mem "--smoke" !flags in
  let seconds =
    match opt "--seconds" with
    | None -> if smoke then 0.2 else 15.
    | Some v -> ( match float_of_string_opt v with Some s when s > 0. -> s | _ -> die "--seconds expects a positive number")
  in
  let workdir = Option.value ~default:".rlc_bench" (opt "--workdir") in
  let daemon =
    match opt "--daemon" with
    | Some d -> d
    | None ->
        (* dune puts both executables under one build root:
           <root>/benchmark/rlc_bench.exe and <root>/bin/rlc_timing.exe *)
        Filename.concat (Filename.dirname (Filename.dirname Sys.executable_name)) "bin/rlc_timing.exe"
  in
  let benchmark = Option.value ~default:"BENCHMARK.json" (opt "--benchmark") in
  match command with
  | "bench" ->
      let workload = match opt "--workload" with Some w -> w | None -> die "--workload is required" in
      let trace = match opt "--trace" with None | Some "0" -> false | Some "1" -> true | Some v -> die "--trace expects 0 or 1, got %S" v in
      bench ~workload ~seed:(int_opt "--seed" 1) ~seconds ~trace ~smoke ~json:(opt "--json") ~workdir ~daemon
  | "run" ->
      let out = match opt "--out" with Some o -> o | None -> die "--out is required" in
      run_all ~seed:(int_opt "--seed" 1) ~seconds ~smoke ~traced:(List.mem "--traced" !flags) ~out ~workdir ~daemon
  | "compare" ->
      if List.length positional < 2 then die "compare needs at least two result files";
      compare_files ~benchmark positional
  | _ -> (
      match positional with
      | [ benchmark; result ] -> check ~benchmark result
      | _ -> die "check needs BENCHMARK.json and a result file")
