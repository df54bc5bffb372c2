(* Command-line front end: analyze a single net, screen inductance, emit a
   characterized Liberty library, or run the Figure-7 style sweep. *)
open Cmdliner
open Rlc_ceff

let ps = Rlc_num.Units.in_ps

(* ------------------------------------------------------- shared args *)

let length_arg =
  Arg.(required & opt (some float) None & info [ "length" ] ~docv:"MM" ~doc:"Line length in mm.")

let width_arg =
  Arg.(required & opt (some float) None & info [ "width" ] ~docv:"UM" ~doc:"Line width in um.")

let size_arg =
  Arg.(
    required
    & opt (some float) None
    & info [ "size" ] ~docv:"X" ~doc:"Driver size (X multiplier, e.g. 75).")

let slew_arg =
  Arg.(
    value & opt float 100. & info [ "slew" ] ~docv:"PS" ~doc:"Input transition time in ps.")

let cl_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "cl" ] ~docv:"FF" ~doc:"Far-end load in fF (default: a 10X receiver gate).")

let dt_arg =
  Arg.(value & opt float 0.5 & info [ "dt" ] ~docv:"PS" ~doc:"Simulation timestep in ps.")

(* --jobs N | --jobs auto.  [None] means "auto": the machine's recommended
   domain count.  Explicit requests are still clamped to that count by the
   library layers (oversubscription only slows things down). *)
let jobs_conv =
  let parse s =
    if String.lowercase_ascii s = "auto" then Ok None
    else
      match int_of_string_opt s with
      | Some n when n >= 1 -> Ok (Some n)
      | _ -> Error (`Msg (Printf.sprintf "expected a positive integer or 'auto', got %S" s))
  in
  let print fmt = function
    | None -> Format.pp_print_string fmt "auto"
    | Some n -> Format.pp_print_int fmt n
  in
  Arg.conv (parse, print)

let jobs_arg =
  Arg.(
    value
    & opt jobs_conv None
    & info [ "jobs" ] ~docv:"N"
        ~doc:
          "Worker domains, or 'auto' (the default: the machine's recommended domain count).  \
           Requests beyond the core count are clamped.  Results are identical for every N.")

(* Adaptive-stepping knobs, shared by sweep and flow. *)
let adaptive_flag =
  Arg.(
    value & flag
    & info [ "adaptive" ]
        ~doc:
          "Use LTE-controlled adaptive time stepping for the transient simulations ($(b,--dt) \
           is then unused by the engine).  Steps grow through flat regions and shrink near \
           activity; waveform breakpoints are landed on exactly.")

let dt_min_arg =
  Arg.(
    value & opt float 0.25
    & info [ "dt-min" ] ~docv:"PS" ~doc:"Adaptive: smallest (and initial) step, in ps.")

let dt_max_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "dt-max" ] ~docv:"PS" ~doc:"Adaptive: largest step, in ps (default 256 x dt-min).")

let ltol_arg =
  Arg.(
    value
    & opt float (Rlc_circuit.Engine.default_adaptive ()).Rlc_circuit.Engine.ltol
    & info [ "ltol" ] ~docv:"V"
        ~doc:
          "Adaptive: per-step local truncation error tolerance, in volts. The default is \
           timing-grade; tighten (e.g. 1e-3) for waveform-tracking work.")

let adaptive_of ~adaptive ~dt_min ~dt_max ~ltol =
  if not adaptive then None
  else
    Some
      (Rlc_circuit.Engine.default_adaptive ~dt_min:(Rlc_num.Units.ps dt_min)
         ?dt_max:(Option.map Rlc_num.Units.ps dt_max)
         ~ltol ())

(* Print a typed error on stderr and return the exit code: 2, except in
   [spef], whose errors exit 1. *)
let fail ?(code = 2) e =
  Format.eprintf "%s@." (Rlc_service.Error.message e);
  code

let cell_or_die tech ~size =
  match Rlc_liberty.Characterize.cell_res tech ~size with Ok c -> c | Error e -> exit (fail e)

let make_case ~label length width size slew cl =
  Evaluate.case ~label ~length_mm:length ~width_um:width ~size ~input_slew_ps:slew
    ?cl:(Option.map Rlc_num.Units.ff cl) ()

let read_file file =
  let ic = open_in_bin file in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path content =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc content)

(* [--jobs]: the requested count ([auto] is the recommended domain count)
   and the count the run actually uses. *)
let resolve_jobs jobs =
  let requested = match jobs with Some j -> j | None -> Rlc_parallel.Pool.default_jobs () in
  (requested, Experiments.effective_jobs requested)

(* [-v]: info-level log lines on stderr. *)
let setup_logs verbose =
  if verbose then begin
    Logs.set_reporter (Logs.format_reporter ());
    Logs.set_level (Some Logs.Info)
  end

(* -------------------------------------------------- instrumentation args *)

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Write a Chrome trace-event JSON of instrumentation spans (open in chrome://tracing \
           or Perfetto).  Telemetry is a sidecar file; report payloads are unaffected.")

let metrics_json_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics-json" ] ~docv:"FILE"
        ~doc:"Write an instrumentation metrics summary (counters, histograms, span totals).")

(* The sink is enabled only when an exporter will consume it, so default
   runs keep the zero-overhead disabled path. *)
let obs_of ~trace ~metrics_json =
  if trace <> None || metrics_json <> None then Rlc_obs.Obs.create () else Rlc_obs.Obs.null

let export_obs obs ~trace ~metrics_json =
  if Rlc_obs.Obs.enabled obs then begin
    let m = Rlc_obs.Obs.snapshot obs in
    Option.iter (fun path -> write_file path (Rlc_obs.Export.chrome_trace m)) trace;
    Option.iter (fun path -> write_file path (Rlc_obs.Export.metrics_json m)) metrics_json
  end

(* ------------------------------------------------------------ analyze *)

let analyze_cmd =
  let run length width size slew cl dt compare dump =
    let case = make_case ~label:"cli" length width size slew cl in
    let line = case.Evaluate.line in
    Format.printf "net: %a@." Rlc_tline.Line.pp line;
    if compare then begin
      let cmp = Evaluate.run ~dt:(Rlc_num.Units.ps dt) case in
      Format.printf "%a@." Driver_model.pp cmp.Evaluate.auto_model;
      Format.printf "%a@." Screen.pp cmp.Evaluate.auto_model.Driver_model.screen;
      Format.printf "%a@." Evaluate.pp_comparison cmp;
      if dump then begin
        Format.printf "@.# model output waveform (ps, V)@.";
        Format.printf "%a@."
          (Rlc_waveform.Waveform.pp_series ~max_rows:60 ~unit_time:1e-12 ~unit_v:1.)
          (Driver_model.output_waveform cmp.Evaluate.auto_model)
      end
    end
    else begin
      let cell = cell_or_die case.Evaluate.tech ~size in
      let m =
        Driver_model.model ~cell ~edge:Rlc_waveform.Measure.Rising
          ~input_slew:case.Evaluate.input_slew ~line ~cl:case.Evaluate.cl ()
      in
      Format.printf "%a@." Driver_model.pp m;
      Format.printf "%a@." Screen.pp m.Driver_model.screen;
      Format.printf "model delay %.2f ps, slew(10-90) %.2f ps@." (ps (Driver_model.model_delay m))
        (ps (Driver_model.model_slew_10_90 m))
    end;
    0
  in
  let compare_arg =
    Arg.(value & flag & info [ "compare" ] ~doc:"Also run the transistor-level reference.")
  in
  let dump_arg = Arg.(value & flag & info [ "dump-waveforms" ] ~doc:"Print waveform samples.") in
  Cmd.v
    (Cmd.info "analyze" ~doc:"Model one driver + RLC net (optionally vs reference simulation).")
    Term.(
      const run $ length_arg $ width_arg $ size_arg $ slew_arg $ cl_arg $ dt_arg $ compare_arg
      $ dump_arg)

(* ------------------------------------------------------------- screen *)

let screen_cmd =
  let run length width size slew cl =
    let case = make_case ~label:"cli" length width size slew cl in
    let cell = cell_or_die case.Evaluate.tech ~size in
    let m =
      Driver_model.model ~cell ~edge:Rlc_waveform.Measure.Rising
        ~input_slew:case.Evaluate.input_slew ~line:case.Evaluate.line ~cl:case.Evaluate.cl ()
    in
    Format.printf "%a@." Screen.pp m.Driver_model.screen;
    if m.Driver_model.screen.Screen.significant then 0 else 1
  in
  Cmd.v
    (Cmd.info "screen"
       ~doc:
         "Evaluate the Eq. 9 inductance-significance criteria (exit 0 when inductance is \
          significant).")
    Term.(const run $ length_arg $ width_arg $ size_arg $ slew_arg $ cl_arg)

(* ------------------------------------------------------- characterize *)

let characterize_cmd =
  let run sizes out =
    let rec build acc = function
      | [] -> Ok (List.rev acc)
      | s :: rest -> (
          match Rlc_liberty.Characterize.cell_res Rlc_devices.Tech.c018 ~size:s with
          | Ok c -> build (c :: acc) rest
          | Error e -> Error e)
    in
    match build [] sizes with
    | Error e -> fail e
    | Ok cells ->
        Rlc_liberty.Liberty_io.save ~path:out ~name:"rlc_timing_c018" cells;
        Format.printf "wrote %d cells to %s@." (List.length cells) out;
        0
  in
  let sizes_arg =
    Arg.(
      value
      & opt (list float) [ 25.; 50.; 75.; 100.; 125. ]
      & info [ "sizes" ] ~docv:"X,X,..." ~doc:"Driver sizes to characterize.")
  in
  let out_arg =
    Arg.(value & opt string "rlc_timing.lib" & info [ "o"; "out" ] ~docv:"FILE" ~doc:"Output path.")
  in
  Cmd.v
    (Cmd.info "characterize" ~doc:"Characterize inverters and write a Liberty-subset library.")
    Term.(const run $ sizes_arg $ out_arg)

(* -------------------------------------------------------------- sweep *)

let sweep_cmd =
  let run dt limit jobs adaptive dt_min dt_max ltol trace metrics_json =
    let cases = Experiments.sweep_cases () in
    let cases =
      match limit with
      | Some n -> List.filteri (fun i _ -> i < n) cases
      | None -> cases
    in
    let requested, jobs = resolve_jobs jobs in
    let adaptive = adaptive_of ~adaptive ~dt_min ~dt_max ~ltol in
    let obs = obs_of ~trace ~metrics_json in
    (* The reference-pass total (inductive survivor count) is only known
       after screening, so the meter learns it from the first callback. *)
    let meter = Rlc_obs.Progress.create ~label:"  sweep" ~total:0 () in
    let stats =
      Experiments.run_sweep ~obs ~dt:(Rlc_num.Units.ps dt) ?adaptive ~jobs
        ~progress:(fun k n ->
          Rlc_obs.Progress.set_total meter n;
          Rlc_obs.Progress.report meter k)
        cases
    in
    Rlc_obs.Progress.finish meter;
    export_obs obs ~trace ~metrics_json;
    (* Clamp note stays in the human summary; sweep has no machine payload. *)
    if jobs < requested then
      Format.printf "workers: %d domains (requested %d, clamped to core count)@." jobs requested;
    Format.printf "swept %d cases; %d inductive@." stats.Experiments.n_swept
      stats.Experiments.n_inductive;
    let show tag (e : Experiments.error_stats) =
      Format.printf
        "%s: avg |delay err| %.1f%%, avg |slew err| %.1f%%; delay <5%%: %.0f%% <10%%: %.0f%%; \
         slew <5%%: %.0f%% <10%%: %.0f%%@."
        tag e.Experiments.avg_abs_delay_err e.Experiments.avg_abs_slew_err
        e.Experiments.delay_within_5 e.Experiments.delay_within_10 e.Experiments.slew_within_5
        e.Experiments.slew_within_10
    in
    show "Eq.8 stretch" stats.Experiments.stretch;
    show "flat step   " stats.Experiments.flat;
    0
  in
  let limit_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "limit" ] ~docv:"N" ~doc:"Only examine the first N grid cases.")
  in
  Cmd.v
    (Cmd.info "sweep" ~doc:"Run the Figure-7 style sweep and print error statistics.")
    Term.(
      const run $ dt_arg $ limit_arg $ jobs_arg $ adaptive_flag $ dt_min_arg $ dt_max_arg
      $ ltol_arg $ trace_arg $ metrics_json_arg)

(* --------------------------------------------------------------- flow *)

let flow_cmd =
  let run spef_file spec_file jobs json csv size slew no_cache dt adaptive dt_min dt_max ltol
      required verbose trace metrics_json xtalk xtalk_threshold xtalk_budget xtalk_alignments =
    setup_logs verbose;
    let obs = obs_of ~trace ~metrics_json in
    let adaptive = adaptive_of ~adaptive ~dt_min ~dt_max ~ltol in
    (* The one-shot flow rides the same Session as the daemon, so the
       --json payload is byte-identical to a served "flow" request.
       Exit codes: 2 for errors (parse errors print file:line: message),
       1 for a timing violation, 0 otherwise. *)
    let config =
      {
        Rlc_service.Session.Config.default with
        Rlc_service.Session.Config.jobs = snd (resolve_jobs jobs);
        dt = Rlc_num.Units.ps dt;
        use_cache = not no_cache;
        default_size = size;
        default_slew = Rlc_num.Units.ps slew;
        obs;
      }
    in
    Rlc_service.Session.with_session ~config (fun session ->
        let ingested =
          Rlc_service.Session.ingest session ~spef:(read_file spef_file) ~spef_name:spef_file
            ?spec:(Option.map read_file spec_file)
            ?spec_name:spec_file ()
        in
        match ingested with
        | Error e -> fail e
        | Ok design -> (
            (* Level-grained progress: a plain line per level on a non-TTY
               stderr (every:1), an in-place redraw on a terminal. *)
            let progress =
              if verbose then
                Some
                  (Rlc_obs.Progress.create ~every:1 ~label:"  flow nets"
                     ~total:(Array.length design.Rlc_flow.Design.nets)
                     ())
              else None
            in
            let required = Option.map Rlc_num.Units.ps required in
            let xtalk_req =
              if not xtalk then None
              else
                Some
                  {
                    Rlc_service.Session.threshold = xtalk_threshold;
                    budget = xtalk_budget;
                    alignments = xtalk_alignments;
                  }
            in
            let request =
              {
                Rlc_service.Session.Request.default with
                Rlc_service.Session.Request.required;
                adaptive;
                progress;
                xtalk = xtalk_req;
              }
            in
            match Rlc_service.Session.flow session request design with
            | Error e ->
                Option.iter Rlc_obs.Progress.finish progress;
                fail e
            | Ok { Rlc_service.Session.result; xtalk = xtalk_result; report; _ } ->
                Option.iter Rlc_obs.Progress.finish progress;
                export_obs obs ~trace ~metrics_json;
                Format.printf "%a" (fun fmt -> Rlc_flow.Report.summary ?required fmt) result;
                Option.iter
                  (fun x -> Format.printf "%a" (Rlc_xtalk.Xtalk.summary design) x)
                  xtalk_result;
                Option.iter (fun path -> write_file path report) json;
                Option.iter
                  (fun path -> write_file path (Rlc_flow.Report.csv_string result))
                  csv;
                (* Gate CI on signoff: nonzero exit when the worst arrival
                   violates the required time, or when a simulated victim's
                   noise peak breaks the budget — a noise violation is a
                   failure exactly like negative slack. *)
                let timing_violated =
                  match required with
                  | None -> false
                  | Some req -> (
                      match List.rev (Rlc_flow.Flow.critical_path result) with
                      | last :: _ -> req -. last.Rlc_flow.Flow.arrival < 0.
                      | [] -> false)
                in
                let noise_violated =
                  match xtalk_result with
                  | Some x -> x.Rlc_xtalk.Xtalk.stats.Rlc_xtalk.Xtalk.n_violations > 0
                  | None -> false
                in
                if timing_violated then
                  Format.eprintf "timing violated: worst slack is negative@.";
                if noise_violated then
                  Format.eprintf "noise violated: a victim peak breaks the budget@.";
                if timing_violated || noise_violated then 1 else 0))
  in
  let spef_arg =
    Arg.(
      required & opt (some file) None & info [ "spef" ] ~docv:"SPEF" ~doc:"Design SPEF file.")
  in
  let spec_arg =
    Arg.(
      value
      & opt (some file) None
      & info [ "spec" ] ~docv:"FILE"
          ~doc:
            "Connectivity spec (driver sizes, primary input slews, net-to-net edges, extra \
             loads).  Default: every net is a primary input driven at --size/--slew.")
  in
  let json_arg =
    Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE" ~doc:"Write JSON report.")
  in
  let csv_arg =
    Arg.(value & opt (some string) None & info [ "csv" ] ~docv:"FILE" ~doc:"Write CSV report.")
  in
  let no_cache_arg =
    Arg.(value & flag & info [ "no-cache" ] ~doc:"Disable the Ceff result cache.")
  in
  let required_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "required" ] ~docv:"PS" ~doc:"Required arrival time for slack reporting, in ps.")
  in
  let verbose_arg =
    Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Log per-phase progress.")
  in
  let default_size_arg =
    Arg.(
      value
      & opt float 75.
      & info [ "size" ] ~docv:"X" ~doc:"Default driver size when no spec is given.")
  in
  let xtalk_flag =
    Arg.(
      value & flag
      & info [ "xtalk" ]
          ~doc:
            "After the isolated flow, run the coupled-net crosstalk analysis: screen every \
             victim/aggressor pair with the closed-form noise estimate, simulate the survivors \
             as coupled clusters, and report per-victim noise peaks and delay push-out.  A \
             victim whose simulated peak breaks the budget fails the run like negative slack.")
  in
  let xtalk_threshold_arg =
    Arg.(
      value
      & opt float Rlc_service.Session.default_xtalk.Rlc_service.Session.threshold
      & info [ "xtalk-threshold" ] ~docv:"FRAC"
          ~doc:
            "Screen level as a fraction of VDD: pairs whose closed-form estimate stays below \
             it are dismissed without simulation (0 simulates every pair).  Must be finite \
             and non-negative.")
  in
  let xtalk_budget_arg =
    Arg.(
      value
      & opt float Rlc_service.Session.default_xtalk.Rlc_service.Session.budget
      & info [ "xtalk-budget" ] ~docv:"FRAC"
          ~doc:
            "Noise budget as a fraction of VDD: a simulated victim peak at or above it is a \
             violation (nonzero exit).  Must be finite and non-negative.")
  in
  let xtalk_alignments_arg =
    Arg.(
      value
      & opt int Rlc_service.Session.default_xtalk.Rlc_service.Session.alignments
      & info [ "xtalk-alignments" ] ~docv:"N"
          ~doc:
            (Printf.sprintf
               "Aggressor-alignment grid points swept for the worst delay push-out, 1 to %d (1 \
                = aligned starts only; grids nest, so the worst case is monotone in N)."
               Rlc_xtalk.Xtalk.max_alignments))
  in
  Cmd.v
    (Cmd.info "flow"
       ~doc:
         "Time a full multi-net design from SPEF: levelized net graph, parallel per-net Ceff \
          solves over a domain pool, slew propagation between levels, JSON/CSV reports.  With \
          $(b,--xtalk), also screen and simulate coupled-net crosstalk.")
    Term.(
      const run $ spef_arg $ spec_arg $ jobs_arg $ json_arg $ csv_arg $ default_size_arg
      $ slew_arg $ no_cache_arg $ dt_arg $ adaptive_flag $ dt_min_arg $ dt_max_arg $ ltol_arg
      $ required_arg $ verbose_arg $ trace_arg $ metrics_json_arg $ xtalk_flag
      $ xtalk_threshold_arg $ xtalk_budget_arg $ xtalk_alignments_arg)

(* ----------------------------------------------------------- optimize *)

let optimize_cmd =
  let run spef_file spec_file required jobs json csv sizes no_repeaters max_stages no_cache dt
      adaptive dt_min dt_max ltol timeout_ms verbose trace metrics_json =
    setup_logs verbose;
    let obs = obs_of ~trace ~metrics_json in
    let adaptive = adaptive_of ~adaptive ~dt_min ~dt_max ~ltol in
    let deadline = Rlc_errors.Deadline.start (float_of_int timeout_ms /. 1000.) in
    let _, jobs = resolve_jobs jobs in
    let cfg =
      {
        Rlc_flow.Flow.Config.default with
        Rlc_flow.Flow.Config.jobs = Some jobs;
        dt = Rlc_num.Units.ps dt;
        adaptive;
        use_cache = not no_cache;
        obs;
      }
    in
    (* Exit codes match flow: 2 for errors (including budget expiry), 1 when
       violations remain after optimization, 0 when the design closes. *)
    let spec_of spef = function
      | None -> Ok (Rlc_flow.Spec.default_of_spef spef)
      | Some f -> Rlc_flow.Spec.parse_res ~file:f (read_file f)
    in
    match Rlc_spef.Spef.parse_res ~file:spef_file (read_file spef_file) with
    | Error e -> fail e
    | Ok spef -> (
        match spec_of spef spec_file with
        | Error e -> fail e
        | Ok spec -> (
            let result =
              try
                Rlc_errors.Deadline.with_ambient deadline (fun () ->
                    Rlc_flow.Optimize.run ?sizes ~repeaters:(not no_repeaters) ~max_stages
                      ~required:(Rlc_num.Units.ps required) cfg ~spef ~spec ())
              with Rlc_errors.Deadline.Expired budget ->
                Error (Rlc_errors.Error.Timeout budget)
            in
            match result with
            | Error e -> fail e
            | Ok o ->
                export_obs obs ~trace ~metrics_json;
                Format.printf "%a" (fun fmt -> Rlc_flow.Report.optimize_summary fmt) o;
                Option.iter
                  (fun path -> write_file path (Rlc_flow.Report.optimize_json_string o))
                  json;
                Option.iter
                  (fun path -> write_file path (Rlc_flow.Report.optimize_csv_string o))
                  csv;
                if o.Rlc_flow.Optimize.stats.Rlc_flow.Optimize.o_violations_after > 0 then begin
                  Format.eprintf "timing violated: %d nets still miss the required time@."
                    o.Rlc_flow.Optimize.stats.Rlc_flow.Optimize.o_violations_after;
                  1
                end
                else 0))
  in
  let spef_arg =
    Arg.(
      required & opt (some file) None & info [ "spef" ] ~docv:"SPEF" ~doc:"Design SPEF file.")
  in
  let spec_arg =
    Arg.(
      value
      & opt (some file) None
      & info [ "spec" ] ~docv:"FILE"
          ~doc:"Connectivity spec (driver sizes, input slews, net-to-net edges, extra loads).")
  in
  let required_arg =
    Arg.(
      required
      & opt (some float) None
      & info [ "required" ] ~docv:"PS"
          ~doc:"Required arrival time every net must meet, in ps.")
  in
  let json_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE" ~doc:"Write the JSON optimization report.")
  in
  let csv_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "csv" ] ~docv:"FILE" ~doc:"Write the CSV optimization report.")
  in
  let sizes_arg =
    Arg.(
      value
      & opt (some (list float)) None
      & info [ "sizes" ] ~docv:"X,X,..."
          ~doc:
            "Candidate driver sizes for the resize search (default 25–300X ladder); only sizes \
             above a net's current size are tried.")
  in
  let no_repeaters_arg =
    Arg.(
      value & flag
      & info [ "no-repeaters" ]
          ~doc:
            "Disable the repeater-insertion fallback; nets a resize cannot fix are reported \
             unfixable.")
  in
  let max_stages_arg =
    Arg.(
      value & opt int 4
      & info [ "max-stages" ] ~docv:"N"
          ~doc:"Largest repeater chain considered by the insertion fallback.")
  in
  let no_cache_arg =
    Arg.(value & flag & info [ "no-cache" ] ~doc:"Disable the shared Ceff result cache.")
  in
  let timeout_arg =
    Arg.(
      value & opt int 0
      & info [ "timeout-ms" ] ~docv:"MS"
          ~doc:
            "Wall-clock budget for the whole optimization in milliseconds; the candidate loops \
             poll it and expiry exits 2 with a timeout error.  0 (default) disables it.")
  in
  let verbose_arg =
    Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Log per-level search progress.")
  in
  Cmd.v
    (Cmd.info "optimize"
       ~doc:
         "Close timing on a full design: time it, then search every negative-slack net for a \
          driver resize (screen, Ceff-model solve, rare transistor-level escalation) with \
          repeater insertion as the fallback, batched over the domain pool.  The chosen \
          resizes are applied and verified with an incremental retime; reports are \
          byte-identical for every $(b,--jobs) count.")
    Term.(
      const run $ spef_arg $ spec_arg $ required_arg $ jobs_arg $ json_arg $ csv_arg $ sizes_arg
      $ no_repeaters_arg $ max_stages_arg $ no_cache_arg $ dt_arg $ adaptive_flag $ dt_min_arg
      $ dt_max_arg $ ltol_arg $ timeout_arg $ verbose_arg $ trace_arg $ metrics_json_arg)

(* -------------------------------------------------------------- serve *)

let serve_cmd =
  let run socket jobs workers queue backlog timeout_ms max_bytes warm designs verbose trace
      metrics_json slow_ms tick_ms =
    setup_logs verbose;
    (* The daemon always runs with an enabled sink: the rolling window
       behind [metrics]/[health]/[top] needs the counters and histograms,
       and report payloads are byte-identical either way (CI asserts it).
       Spans, however, accumulate until snapshot — memory proportional to
       requests served — so they are recorded only when a sidecar
       (--trace/--metrics-json, dumped at exit) will consume them; a plain
       daemon's footprint stays constant for its whole lifetime. *)
    let obs = Rlc_obs.Obs.create ~spans:(trace <> None || metrics_json <> None) () in
    let config =
      {
        Rlc_service.Session.Config.default with
        Rlc_service.Session.Config.jobs;
        design_capacity = designs;
        obs;
      }
    in
    Rlc_service.Session.with_session ~config (fun session ->
        match Rlc_service.Session.warm session warm with
        | Error e -> fail e
        | Ok () ->
            let server =
              Rlc_service.Server.create
                ~timeout_s:(float_of_int timeout_ms /. 1000.)
                ~max_request_bytes:max_bytes ~workers ~queue_capacity:queue ?backlog ?slow_ms
                ~tick_period_s:(float_of_int tick_ms /. 1000.)
                session
            in
            (match socket with
            | None -> Rlc_service.Server.serve_channels server stdin stdout
            | Some path -> Rlc_service.Server.serve_unix server ~path);
            export_obs obs ~trace ~metrics_json;
            0)
  in
  let socket_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:
            "Serve on a Unix-domain socket at $(docv) instead of the default stdin/stdout pipe \
             mode.")
  in
  let jobs_arg =
    Arg.(
      value & opt int 1
      & info [ "jobs" ] ~docv:"N"
          ~doc:
            "Worker domains of the resident solve pool shared by all requests (per-net \
             fan-out inside one flow).  Deadline-based request budgets work at any value.")
  in
  let workers_arg =
    Arg.(
      value
      & opt int Rlc_service.Server.default_workers
      & info [ "workers" ] ~docv:"N"
          ~doc:
            "Executor domains draining the admission queue in socket mode — the number of \
             requests served concurrently.  Pipe mode is always serial.")
  in
  let queue_arg =
    Arg.(
      value
      & opt int Rlc_service.Server.default_queue_capacity
      & info [ "queue" ] ~docv:"N"
          ~doc:
            "Admission-queue capacity in socket mode.  When the queue is full, new requests \
             are rejected immediately with the typed timeout error instead of waiting.")
  in
  let backlog_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "backlog" ] ~docv:"N"
          ~doc:"Kernel listen backlog in socket mode; defaults to the admission-queue capacity.")
  in
  let timeout_arg =
    Arg.(
      value
      & opt int (int_of_float (Rlc_service.Server.default_timeout_s *. 1000.))
      & info [ "timeout-ms" ] ~docv:"MS"
          ~doc:
            "Per-request wall-clock budget in milliseconds (requests may lower it with \
             timeout_ms); 0 disables the timeout.")
  in
  let max_bytes_arg =
    Arg.(
      value
      & opt int Rlc_service.Protocol.default_max_bytes
      & info [ "max-request-bytes" ] ~docv:"N" ~doc:"Reject request lines longer than $(docv).")
  in
  let warm_arg =
    Arg.(
      value & opt (list float) []
      & info [ "warm" ] ~docv:"X,X,..."
          ~doc:"Pre-characterize these driver sizes before serving the first request.")
  in
  let designs_arg =
    Arg.(
      value
      & opt int Rlc_service.Session.Config.default.Rlc_service.Session.Config.design_capacity
      & info [ "designs" ] ~docv:"N"
          ~doc:
            "Resident incrementally-timed designs kept by the v2 design store (design_load / \
             flow_delta); loading beyond $(docv) evicts the least-recently-used handle.")
  in
  let verbose_arg =
    Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Log served requests and failures.")
  in
  let slow_ms_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "slow-ms" ] ~docv:"MS"
          ~doc:
            "Log every request whose execution wall time reaches $(docv) milliseconds as one \
             JSON line on stderr (trace id, kind, queue wait, wall, cache hits, worker).  0 \
             logs every request.")
  in
  let tick_ms_arg =
    Arg.(
      value
      & opt int (int_of_float (Rlc_service.Server.default_tick_period_s *. 1000.))
      & info [ "tick-ms" ] ~docv:"MS"
          ~doc:
            "Telemetry ticker period: how often the serve loop samples counters into the \
             rolling window behind the metrics/health kinds and the top dashboard.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the persistent timing daemon: newline-delimited JSON requests (schemas \
          rlc-service/1 and rlc-service/2) answered from warm state — characterized cells, \
          the shared Ceff result cache, a resident domain pool, and (v2) a bounded store of \
          incrementally timed designs.  Kinds: flow, xtalk, sweep_case, screen, design_load, \
          flow_delta, design_unload, ping, stats, metrics, health, shutdown.")
    Term.(
      const run $ socket_arg $ jobs_arg $ workers_arg $ queue_arg $ backlog_arg $ timeout_arg
      $ max_bytes_arg $ warm_arg $ designs_arg $ verbose_arg $ trace_arg $ metrics_json_arg
      $ slow_ms_arg $ tick_ms_arg)

(* ---------------------------------------------------------------- top *)

(* A live dashboard over the daemon's [metrics] kind: poll the socket,
   render the rolling-window digest.  Interactive terminals get an
   in-place redraw (same TTY probe as Progress); pipes get one compact
   line per poll so `top --count 1 | tee` works in scripts. *)
let top_cmd =
  let module Json = Rlc_service.Json in
  let num path j =
    (* Walk "a.b" then accept Int/Float; nan-valued fields arrive as null. *)
    let rec go parts j =
      match parts with
      | [] -> Json.get_float j
      | p :: rest -> Option.bind (Json.member p j) (go rest)
    in
    go (String.split_on_char '.' path) j
  in
  let fmt_opt fmt = function None -> "-" | Some v -> Printf.sprintf fmt v in
  let fmt_pct = function
    | None -> "-"
    | Some v -> Printf.sprintf "%.1f%%" (100. *. v)
  in
  let render ~tty ~socket n response =
    let g path = num path response in
    let kinds =
      match Option.bind (Json.member "kinds" response) Json.get_obj with
      | None -> ""
      | Some fields ->
          String.concat "  "
            (List.filter_map
               (fun (k, v) ->
                 Option.map (fun n -> Printf.sprintf "%s %d" k n) (Json.get_int v))
               fields)
    in
    if tty then begin
      print_string "\027[H\027[2J";
      Printf.printf "rlc_timing top — %s   poll %d   uptime %s   served %s (%s failed)\n"
        socket n
        (fmt_opt "%.1fs" (g "uptime_s"))
        (fmt_opt "%.0f" (g "totals.served"))
        (fmt_opt "%.0f" (g "totals.failed"));
      Printf.printf "window %s (%s samples): %s req/s   timeouts/s %s   rejects/s %s\n"
        (fmt_opt "%.1fs" (g "window.span_s"))
        (fmt_opt "%.0f" (g "window.samples"))
        (fmt_opt "%.2f" (g "window.requests_per_s"))
        (fmt_opt "%.2f" (g "window.timeouts_per_s"))
        (fmt_opt "%.2f" (g "window.rejections_per_s"));
      Printf.printf "latency p50 %s  p95 %s  p99 %s   worker utilization %s\n"
        (fmt_opt "%.3fms" (g "window.p50_ms"))
        (fmt_opt "%.3fms" (g "window.p95_ms"))
        (fmt_opt "%.3fms" (g "window.p99_ms"))
        (fmt_pct (g "window.utilization"));
      Printf.printf "queue %s/%s   workers %s   cache %s entries, window hit ratio %s\n"
        (fmt_opt "%.0f" (g "server.queue_depth"))
        (fmt_opt "%.0f" (g "server.queue_capacity"))
        (fmt_opt "%.0f" (g "server.workers"))
        (fmt_opt "%.0f" (g "cache.entries"))
        (fmt_pct (g "window.cache_hit_ratio"));
      Printf.printf "designs %s/%s resident   %s nets held   %s evictions\n"
        (fmt_opt "%.0f" (g "designs.handles"))
        (fmt_opt "%.0f" (g "designs.capacity"))
        (fmt_opt "%.0f" (g "designs.nets"))
        (fmt_opt "%.0f" (g "designs.evictions"));
      if kinds <> "" then Printf.printf "kinds: %s\n" kinds;
      flush stdout
    end
    else begin
      Printf.printf
        "req/s %s  p50 %s p95 %s p99 %s  queue %s/%s  util %s  hit %s  designs %s  served %s\n"
        (fmt_opt "%.2f" (g "window.requests_per_s"))
        (fmt_opt "%.3fms" (g "window.p50_ms"))
        (fmt_opt "%.3fms" (g "window.p95_ms"))
        (fmt_opt "%.3fms" (g "window.p99_ms"))
        (fmt_opt "%.0f" (g "server.queue_depth"))
        (fmt_opt "%.0f" (g "server.queue_capacity"))
        (fmt_pct (g "window.utilization"))
        (fmt_pct (g "window.cache_hit_ratio"))
        (fmt_opt "%.0f" (g "designs.handles"))
        (fmt_opt "%.0f" (g "totals.served"));
      flush stdout
    end
  in
  let run socket interval_ms count =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX socket) with
    | exception Unix.Unix_error (e, _, _) ->
        Format.eprintf "top: cannot connect to %s: %s@." socket (Unix.error_message e);
        1
    | () ->
        let ic = Unix.in_channel_of_descr fd in
        let oc = Unix.out_channel_of_descr fd in
        let tty = Rlc_obs.Progress.channel_is_tty stdout in
        let rec loop n =
          if count > 0 && n > count then 0
          else begin
            output_string oc
              (Printf.sprintf "{\"schema\":\"rlc-service/1\",\"kind\":\"metrics\",\"id\":%d}\n" n);
            flush oc;
            match input_line ic with
            | exception End_of_file ->
                Format.eprintf "top: server closed the connection@.";
                1
            | line -> (
                match Json.parse line with
                | Error (pos, msg) ->
                    Format.eprintf "top: bad response at byte %d: %s@." pos msg;
                    1
                | Ok response ->
                    render ~tty ~socket n response;
                    if count > 0 && n = count then 0
                    else begin
                      Unix.sleepf (float_of_int interval_ms /. 1000.);
                      loop (n + 1)
                    end)
          end
        in
        Fun.protect
          ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
          (fun () -> loop 1)
  in
  let socket_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH" ~doc:"Unix-domain socket of a running daemon.")
  in
  let interval_arg =
    Arg.(
      value & opt int 1000
      & info [ "interval-ms" ] ~docv:"MS" ~doc:"Delay between polls of the metrics kind.")
  in
  let count_arg =
    Arg.(
      value & opt int 0
      & info [ "count" ] ~docv:"N"
          ~doc:"Stop after $(docv) polls (0 = run until interrupted).")
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Live dashboard for a serving daemon: polls the metrics request kind and renders \
          req/s, latency quantiles, queue depth, worker utilization, cache hit ratio and \
          per-kind counters.  On a terminal the display redraws in place; piped output is \
          one line per poll.")
    Term.(const run $ socket_arg $ interval_arg $ count_arg)

(* --------------------------------------------------------------- spef *)

let spef_cmd =
  let run file net_name root size slew =
    match Rlc_spef.Spef.parse_res ~file (read_file file) with
    | Error e -> fail ~code:1 e
    | Ok spef -> (
        match Rlc_spef.Spef.find_net spef net_name with
        | None ->
            Format.eprintf "net %s not found (nets: %s)@." net_name
              (String.concat ", " (List.map (fun n -> n.Rlc_spef.Spef.net_name) spef.Rlc_spef.Spef.nets));
            1
        | Some net -> (
            match Rlc_spef.Spef.to_tree net ~root with
            | Error e ->
                Format.eprintf "cannot build tree: %s@." e;
                1
            | Ok tree ->
                Format.printf "net %s: %d nodes, total cap %.1f fF@." net_name
                  (Rlc_moments.Tree.node_count tree)
                  (Rlc_num.Units.in_ff (Rlc_moments.Tree.total_cap tree));
                let m = Rlc_moments.Moments.driving_point ~order:5 tree in
                Format.printf "moments: m1=%.4g m2=%.4g m3=%.4g m4=%.4g m5=%.4g@." m.(1) m.(2)
                  m.(3) m.(4) m.(5);
                let pade = Rlc_moments.Pade.fit m in
                Format.printf "pade fit: %a (stable: %b)@." Rlc_moments.Pade.pp pade
                  (Rlc_moments.Pade.is_stable pade);
                (match size with
                | None -> ()
                | Some size ->
                    let cell = cell_or_die Rlc_devices.Tech.c018 ~size in
                    let slew_s = Rlc_num.Units.ps slew in
                    let iterate f =
                      let tr_of c =
                        Rlc_liberty.Table.ramp_time cell ~edge:Rlc_waveform.Measure.Rising
                          ~slew:slew_s ~cap:c
                      in
                      let ctot = Rlc_moments.Pade.total_cap pade in
                      let r =
                        Rlc_num.Rootfind.fixed_point_bracketed
                          (fun c -> Ceff.first_ramp pade ~f ~tr:(tr_of c))
                          ~lo:(1e-4 *. ctot) ~hi:ctot ~init:ctot
                      in
                      (r.Rlc_num.Rootfind.value, tr_of r.Rlc_num.Rootfind.value)
                    in
                    let c100, tr100 = iterate 1.0 in
                    Format.printf
                      "driver %gX @ %g ps input slew: Ceff(100%%) = %.1f fF -> Tr = %.1f ps@."
                      size slew (Rlc_num.Units.in_ff c100) (ps tr100));
                0))
  in
  let file_arg =
    Arg.(required & opt (some file) None & info [ "file" ] ~docv:"SPEF" ~doc:"SPEF file.")
  in
  let net_arg =
    Arg.(required & opt (some string) None & info [ "net" ] ~docv:"NAME" ~doc:"Net to analyze.")
  in
  let root_arg =
    Arg.(
      required & opt (some string) None & info [ "root" ] ~docv:"NODE" ~doc:"Driving-point node.")
  in
  let size_opt =
    Arg.(
      value & opt (some float) None & info [ "size" ] ~docv:"X" ~doc:"Optional driver size.")
  in
  Cmd.v
    (Cmd.info "spef" ~doc:"Moments, Pade fit and Ceff for a net from a SPEF file.")
    Term.(const run $ file_arg $ net_arg $ root_arg $ size_opt $ slew_arg)

let () =
  let info =
    Cmd.info "rlc_timing" ~version:"1.0.0"
      ~doc:"Effective-capacitance two-ramp driver model for on-chip RLC interconnect (DAC 2003)."
  in
  exit
    (Cmd.eval'
       (Cmd.group info
          [
            analyze_cmd;
            screen_cmd;
            characterize_cmd;
            sweep_cmd;
            spef_cmd;
            flow_cmd;
            optimize_cmd;
            serve_cmd;
            top_cmd;
          ]))
