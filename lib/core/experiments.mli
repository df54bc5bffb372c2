(** The paper's experiments, as data and runners.

    Every table and figure of the evaluation section is indexed here
    (DESIGN.md §5): the 15 Table 1 rows carry the paper's published HSPICE
    numbers and model errors so benches print paper-vs-reproduction side by
    side; the figure cases pin the exact geometries, drivers and input slews
    the captions quote; the Figure 7 sweep regenerates the error-statistics
    scatter over the paper's full parameter ranges. *)

type paper_row = {
  row_label : string;
  length_mm : float;
  width_um : float;
  size : float;
  slew_ps : float;
  paper_delay_ps : float;  (** HSPICE delay the paper measured *)
  paper_delay_2r_err : float;  (** % *)
  paper_delay_1r_err : float;
  paper_slew_ps : float;
  paper_slew_2r_err : float;
  paper_slew_1r_err : float;
}

val table1 : paper_row list
(** All 15 published rows. *)

val case_of_row : paper_row -> Evaluate.case

(* Figure cases (captions of the paper). *)

(** 5 mm x 1.6 µm, 75X (waveform morphology). *)
val fig1 : Evaluate.case

(** 7 mm x 1.6 µm, 75X, 100 ps (single-Ceff failure). *)
val fig3 : Evaluate.case

(** 3 mm x 1.2 µm, 75X, 75 ps. *)
val fig5a : Evaluate.case

(** 5 mm x 1.6 µm, 100X, 100 ps. *)
val fig5b : Evaluate.case

(** 4 mm x 1.6 µm, 25X, 100 ps (one ramp suffices). *)
val fig6_left : Evaluate.case

(** 4 mm x 0.8 µm, 75X, 50 ps (near + far end). *)
val fig6_right : Evaluate.case

(* Figure 7 sweep. *)

val sweep_cases : unit -> Evaluate.case list
(** Full grid: lengths 1–7 mm x widths 0.8–3.5 µm x drivers 25X–125X x
    input slews 50–200 ps (the ranges of Section 6). *)

type sweep_point = {
  point_case : Evaluate.case;
  screen : Screen.verdict;  (** margins, for threshold-sensitivity slicing *)
  ref_delay : float;
  ref_slew : float;
  model_delay : float;
  model_slew : float;
  delay_err_pct : float;
  slew_err_pct : float;
  flat_delay_err_pct : float;  (** flat-step plateau variant *)
  flat_slew_err_pct : float;
}

type error_stats = {
  avg_abs_delay_err : float;
  avg_abs_slew_err : float;
  delay_within_5 : float;  (** fraction of inductive cases, percent *)
  delay_within_10 : float;
  slew_within_5 : float;
  slew_within_10 : float;
}

type sweep_stats = {
  n_swept : int;  (** cases examined *)
  n_inductive : int;  (** cases passing the Eq. 9 screen *)
  points : sweep_point list;  (** one per inductive case *)
  stretch : error_stats;  (** Eq. 8 plateau treatment *)
  flat : error_stats;  (** flat-step plateau treatment *)
}

val stats_of_points :
  delay:(sweep_point -> float) -> slew:(sweep_point -> float) -> sweep_point list -> error_stats

val effective_jobs : int -> int
(** [max 1 (min requested (Pool.default_jobs ()))] — the fan-out
    {!run_sweep} actually uses.  Exposed so callers (CLI, bench) can report
    when a request was clamped. *)

val run_sweep :
  ?obs:Rlc_obs.Obs.t ->
  ?dt:float ->
  ?adaptive:Rlc_circuit.Engine.adaptive ->
  ?jobs:int ->
  ?progress:(int -> int -> unit) ->
  Evaluate.case list ->
  sweep_stats
(** Model every case (cheap), keep those the screen marks inductive, then
    reference-simulate and score only those — mirroring the paper's "165
    inductive cases".  Each distinct (technology, size) cell is
    characterized first, one after another on the sweep's pool, so a
    cold store counts one characterization miss per distinct cell.

    [adaptive] switches the reference transients to LTE-controlled stepping
    ([dt] is then unused by the engine).

    [jobs] (default 1) fans both passes out over an OCaml 5 domain pool;
    requests beyond the core count are clamped via {!effective_jobs}
    (oversubscription only slows the sweep down); results and statistics
    are identical for every [jobs] value (points stay in case order).  [progress] receives (completed, total) after each
    reference simulation; the completed count is monotone but, when
    [jobs > 1], the callback may be invoked concurrently from worker
    domains, so it must be thread-safe.

    [obs] (default disabled) records a ["sweep.screen"] span over the cheap
    pass, one ["sweep.case"] span (labelled by case) per reference-scored
    survivor, ["sweep.cases"] / ["sweep.inductive"] counters, and is
    forwarded to the pool, the reference engine, and the Ceff solves. *)

val paper_fig7_stats : (string * float) list
(** The paper's published Figure 7 statistics for side-by-side printing
    (average errors and error-bucket fractions, in percent). *)
