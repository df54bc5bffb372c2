type paper_row = {
  row_label : string;
  length_mm : float;
  width_um : float;
  size : float;
  slew_ps : float;
  paper_delay_ps : float;
  paper_delay_2r_err : float;
  paper_delay_1r_err : float;
  paper_slew_ps : float;
  paper_slew_2r_err : float;
  paper_slew_1r_err : float;
}

let row ~len ~wid ~size ~slew ~d ~d2 ~d1 ~s ~s2 ~s1 =
  {
    row_label = Printf.sprintf "%g/%g %gx s%g" len wid size slew;
    length_mm = len;
    width_um = wid;
    size;
    slew_ps = slew;
    paper_delay_ps = d;
    paper_delay_2r_err = d2;
    paper_delay_1r_err = d1;
    paper_slew_ps = s;
    paper_slew_2r_err = s2;
    paper_slew_1r_err = s1;
  }

(* Table 1 of the paper, verbatim. *)
let table1 =
  [
    row ~len:3. ~wid:0.8 ~size:75. ~slew:50. ~d:25.01 ~d2:(-3.2) ~d1:65.1 ~s:124.1 ~s2:4.6 ~s1:(-50.4);
    row ~len:3. ~wid:1.2 ~size:75. ~slew:50. ~d:26.44 ~d2:(-3.1) ~d1:112.9 ~s:128.9 ~s2:9.4 ~s1:(-28.7);
    row ~len:3. ~wid:1.6 ~size:75. ~slew:50. ~d:32.15 ~d2:(-6.9) ~d1:105.5 ~s:135.4 ~s2:9.8 ~s1:(-17.2);
    row ~len:4. ~wid:0.8 ~size:75. ~slew:50. ~d:25.02 ~d2:2.7 ~d1:56.2 ~s:157.3 ~s2:3.6 ~s1:(-63.5);
    row ~len:4. ~wid:1.2 ~size:75. ~slew:50. ~d:26.51 ~d2:4.4 ~d1:122.9 ~s:164.4 ~s2:8.8 ~s1:(-40.6);
    row ~len:4. ~wid:1.6 ~size:75. ~slew:50. ~d:32.69 ~d2:(-7.6) ~d1:129.1 ~s:175.0 ~s2:12.0 ~s1:(-25.3);
    row ~len:5. ~wid:1.2 ~size:100. ~slew:100. ~d:36.43 ~d2:(-2.2) ~d1:27.3 ~s:192.8 ~s2:(-9.9) ~s1:(-68.8);
    row ~len:5. ~wid:1.6 ~size:100. ~slew:100. ~d:39.56 ~d2:(-4.7) ~d1:33.9 ~s:200.3 ~s2:1.85 ~s1:(-64.1);
    row ~len:5. ~wid:2.0 ~size:100. ~slew:100. ~d:42.53 ~d2:(-7.1) ~d1:48.3 ~s:207.6 ~s2:9.0 ~s1:(-56.2);
    row ~len:5. ~wid:2.5 ~size:100. ~slew:100. ~d:45.26 ~d2:(-6.3) ~d1:72.7 ~s:212.2 ~s2:9.2 ~s1:(-42.9);
    row ~len:6. ~wid:1.2 ~size:100. ~slew:100. ~d:36.44 ~d2:1.5 ~d1:27.6 ~s:222.7 ~s2:(-8.5) ~s1:(-73.0);
    row ~len:6. ~wid:1.6 ~size:100. ~slew:100. ~d:39.58 ~d2:(-0.7) ~d1:32.3 ~s:232.0 ~s2:1.5 ~s1:(-69.5);
    row ~len:6. ~wid:2.0 ~size:100. ~slew:100. ~d:42.55 ~d2:(-2.7) ~d1:42.8 ~s:240.9 ~s2:5.7 ~s1:(-64.1);
    row ~len:6. ~wid:2.5 ~size:100. ~slew:100. ~d:45.29 ~d2:1.3 ~d1:65.9 ~s:246.3 ~s2:12.4 ~s1:(-53.6);
    row ~len:6. ~wid:3.0 ~size:100. ~slew:100. ~d:49.41 ~d2:(-3.2) ~d1:105.2 ~s:261.7 ~s2:14.2 ~s1:(-35.6);
  ]

let case_of_row r =
  Evaluate.case ~label:r.row_label ~length_mm:r.length_mm ~width_um:r.width_um ~size:r.size
    ~input_slew_ps:r.slew_ps ()

let mk label len wid size slew =
  Evaluate.case ~label ~length_mm:len ~width_um:wid ~size ~input_slew_ps:slew ()

let fig1 = mk "fig1 5/1.6 75x s100" 5. 1.6 75. 100.
let fig3 = mk "fig3 7/1.6 75x s100" 7. 1.6 75. 100.
let fig5a = mk "fig5a 3/1.2 75x s75" 3. 1.2 75. 75.
let fig5b = mk "fig5b 5/1.6 100x s100" 5. 1.6 100. 100.
let fig6_left = mk "fig6L 4/1.6 25x s100" 4. 1.6 25. 100.
let fig6_right = mk "fig6R 4/0.8 75x s50" 4. 0.8 75. 50.

let sweep_cases () =
  let lengths = [ 1.; 2.; 3.; 4.; 5.; 6.; 7. ] in
  let widths = [ 0.8; 1.2; 1.6; 2.0; 2.5; 3.0; 3.5 ] in
  let sizes = [ 25.; 50.; 75.; 100.; 125. ] in
  let slews = [ 50.; 100.; 150.; 200. ] in
  List.concat_map
    (fun len ->
      List.concat_map
        (fun wid ->
          List.concat_map
            (fun size ->
              List.map
                (fun slew ->
                  mk (Printf.sprintf "%g/%g %gx s%g" len wid size slew) len wid size slew)
                slews)
            sizes)
        widths)
    lengths

type sweep_point = {
  point_case : Evaluate.case;
  screen : Screen.verdict;
  ref_delay : float;
  ref_slew : float;
  model_delay : float;
  model_slew : float;
  delay_err_pct : float;
  slew_err_pct : float;
  flat_delay_err_pct : float;
  flat_slew_err_pct : float;
}

type error_stats = {
  avg_abs_delay_err : float;
  avg_abs_slew_err : float;
  delay_within_5 : float;
  delay_within_10 : float;
  slew_within_5 : float;
  slew_within_10 : float;
}

type sweep_stats = {
  n_swept : int;
  n_inductive : int;
  points : sweep_point list;
  stretch : error_stats;
  flat : error_stats;
}

let stats_of_points ~delay ~slew points =
  let fn = Float.max 1. (float_of_int (List.length points)) in
  let avg f = List.fold_left (fun acc p -> acc +. Float.abs (f p)) 0. points /. fn in
  let frac_within limit f =
    100.
    *. float_of_int (List.length (List.filter (fun p -> Float.abs (f p) < limit) points))
    /. fn
  in
  {
    avg_abs_delay_err = avg delay;
    avg_abs_slew_err = avg slew;
    delay_within_5 = frac_within 5. delay;
    delay_within_10 = frac_within 10. delay;
    slew_within_5 = frac_within 5. slew;
    slew_within_10 = frac_within 10. slew;
  }

let model_only ~pool (case : Evaluate.case) =
  let cell =
    match
      Rlc_liberty.Characterize.cell_res ~pool case.Evaluate.tech ~size:case.Evaluate.size
    with
    | Ok c -> c
    | Error e -> failwith (Rlc_errors.Error.message e)
  in
  Driver_model.model ~cell ~edge:Rlc_waveform.Measure.Rising
    ~input_slew:case.Evaluate.input_slew ~line:case.Evaluate.line ~cl:case.Evaluate.cl ()

let effective_jobs jobs = Int.max 1 (Int.min jobs (Rlc_parallel.Pool.default_jobs ()))

let run_sweep ?(obs = Rlc_obs.Obs.null) ?(dt = 0.5e-12) ?adaptive ?(jobs = 1)
    ?(progress = fun _ _ -> ()) cases =
  let module Obs = Rlc_obs.Obs in
  let module Pool = Rlc_parallel.Pool in
  (* Never oversubscribe: more domains than cores only adds scheduler
     churn, so the requested fan-out is capped at the machine's
     recommendation.  Results are order-stable either way. *)
  let pool = Pool.borrow ~jobs () in
  let case_arr = Array.of_list cases in
  (* Look every case's cell up first, one after another, so each distinct
     cell is characterized once, as a batch of its grid points on the
     sweep's pool: the screen pass's concurrent jobs would otherwise miss
     the same cell at once and each characterize it.  A cell that fails is
     left to its cases, which screen out. *)
  List.iter
    (fun (c : Evaluate.case) ->
      ignore
        (Rlc_liberty.Characterize.cell_res ~obs ~pool c.Evaluate.tech ~size:c.Evaluate.size))
    cases;
  (* Cheap pass: model + screen only; expensive reference runs are reserved
     for the inductive survivors, as in the paper's 165-case figure.  Both
     passes go through [Pool.map], whose result array is in submission
     order, so the sweep's points (and hence its statistics) are identical
     for every [jobs] value. *)
  let screen_t0 = Obs.start obs in
  let screened =
    Pool.map ~obs pool (Array.length case_arr) (fun i ->
        let c = case_arr.(i) in
        match model_only ~pool c with
        | m -> m.Driver_model.screen.Screen.significant
        | exception _ -> false)
  in
  Obs.finish obs
    ~args:[ ("cases", string_of_int (Array.length case_arr)) ]
    "sweep.screen" screen_t0;
  let inductive =
    Array.of_seq
      (Seq.filter_map
         (fun i -> if screened.(i) then Some case_arr.(i) else None)
         (Seq.init (Array.length case_arr) Fun.id))
  in
  let total = Array.length inductive in
  (* [progress] sees a monotone completed-count (atomic), not the case
     index: under parallel execution cases finish out of order, and the
     callback may fire concurrently from several domains. *)
  let completed = Atomic.make 0 in
  let points_arr =
    Pool.map ~obs pool total (fun i ->
        let case = inductive.(i) in
        let cmp =
          Obs.time obs ~args:[ ("case", case.Evaluate.label) ] "sweep.case" (fun () ->
              Evaluate.run ~obs ~dt ?adaptive case)
        in
        progress (Atomic.fetch_and_add completed 1 + 1) total;
        {
          point_case = case;
          screen = cmp.Evaluate.two_ramp_model.Driver_model.screen;
          ref_delay = cmp.Evaluate.reference.Evaluate.delay;
          ref_slew = cmp.Evaluate.reference.Evaluate.slew;
          model_delay = cmp.Evaluate.two_ramp.Evaluate.delay;
          model_slew = cmp.Evaluate.two_ramp.Evaluate.slew;
          delay_err_pct = Evaluate.delay_err_pct cmp cmp.Evaluate.two_ramp;
          slew_err_pct = Evaluate.slew_err_pct cmp cmp.Evaluate.two_ramp;
          flat_delay_err_pct = Evaluate.delay_err_pct cmp cmp.Evaluate.two_ramp_flat;
          flat_slew_err_pct = Evaluate.slew_err_pct cmp cmp.Evaluate.two_ramp_flat;
        })
  in
  let points = Array.to_list points_arr in
  if Obs.enabled obs then begin
    Obs.add obs "sweep.cases" (Array.length case_arr);
    Obs.add obs "sweep.inductive" total
  end;
  {
    n_swept = Array.length case_arr;
    n_inductive = List.length points;
    points;
    stretch =
      stats_of_points ~delay:(fun p -> p.delay_err_pct) ~slew:(fun p -> p.slew_err_pct) points;
    flat =
      stats_of_points
        ~delay:(fun p -> p.flat_delay_err_pct)
        ~slew:(fun p -> p.flat_slew_err_pct)
        points;
  }

let paper_fig7_stats =
  [
    ("inductive cases", 165.);
    ("avg |delay err| %", 6.);
    ("avg |slew err| %", 11.1);
    ("delay err < 5% (% of cases)", 48.);
    ("delay err < 10% (% of cases)", 83.);
    ("slew err < 5% (% of cases)", 31.);
    ("slew err < 10% (% of cases)", 61.);
  ]
