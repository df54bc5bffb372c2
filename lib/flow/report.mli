(** Machine-readable reports for a flow run.

    The JSON and CSV payloads contain only deterministic quantities (pure
    functions of the design and the canonicalized per-net inputs), so a run
    with [--jobs N] emits byte-identical reports for every [N]; scheduling-
    dependent observability (cache hit counters, wall times) lives in the
    human {!summary} and the logs only.  Floats are printed with [%.6g] —
    one fixed, locale-independent format everywhere ({!number}).  A NaN or infinite
    float has no JSON spelling, so the renderers ({!json_string},
    {!csv_string} and the optimize payloads) raise [Failure] naming the
    field instead of printing it (the daemon answers [internal]). *)

val json_string :
  ?obs:Rlc_obs.Obs.t ->
  ?pool:Rlc_parallel.Pool.t ->
  ?required:float ->
  ?xtalk:string ->
  Flow.result ->
  string
(** Full report: design header, one object per net (timing, shape, screen
    verdict, Ceff values, iteration count), and a summary block with the
    worst-arrival (critical) path, optional slack against a [required]
    arrival time (seconds), and fixed-bin stage-delay / far-slew
    histograms.

    [xtalk] is a pre-rendered JSON object (produced by
    [Rlc_xtalk.Xtalk.json_fragment], which depends on this library)
    injected under an ["xtalk"] key between the net results and the
    summary; omitted, the payload is byte-identical to a pre-crosstalk
    report.

    [obs] (default disabled) records a ["report.render"] span (also
    charged to the calling domain's {!Rlc_obs.Obs.with_split}) and counts
    the entries rendered in ["report.entries_rendered"].

    The per-net entries render as jobs of [pool] (default
    {!Rlc_parallel.Pool.borrow}[ ()], as {!Design.ingest} defaults; a
    daemon passes its own), 32 entries in net order a job; the bytes are
    the same on any pool, and of several entries that cannot render, the
    first one's error is raised. *)

type entries
(** The rendered per-net entries of the last report of one evolving
    design (a resident ECO handle), each kept as rendered and escaped, so
    the next report of its edited successor re-renders and re-escapes only
    what moved.  Not thread-safe: renders that share one value must be
    serialized. *)

val entries : escape:(string -> string) -> unit -> entries
(** An empty store whose entries are escaped by [escape], once each, when
    rendered.  [escape] must work byte by byte ([escape (a ^ b) = escape a
    ^ escape b]), as a JSON string escape does. *)

val json_escaped :
  ?obs:Rlc_obs.Obs.t ->
  ?pool:Rlc_parallel.Pool.t ->
  ?required:float ->
  ?xtalk:string ->
  entries:entries ->
  Flow.result ->
  string * string list
(** {!json_string} and its bytes escaped by the store's [escape], in
    pieces whose concatenation is [escape] of the report.

    Net [i]'s entry, rendered and escaped, is copied from the store when
    the stored result for [i] has physically the same net record and
    solve as [result]'s and a bit-equal edge, input slew and arrival —
    every input the entry is rendered from — and rendered and escaped
    otherwise; the store then holds this report's entries (a render that
    raises leaves it unchanged).  The header and the summary are always
    computed and escaped afresh, so a report that re-renders two entries
    escapes two entries, not the report.  The report bytes equal
    {!json_string}'s.  [obs] and [pool] as in {!json_string} (the store's
    [escape] runs in the jobs too), plus the entries escaped in
    ["report.entries_escaped"]. *)

val number : prefix:string -> string -> float -> string
(** [number ~prefix field x]: [x] in the payloads' one float format,
    [Printf.sprintf "%.6g" x], computed by the C conversion that
    [Printf] ends in without interpreting a format.  A NaN or an infinity
    raises [Failure "<prefix>: <field> is <x>, not a finite number"].
    Every report and fragment prints its numbers through it. *)

val json_escape : string -> string
(** Escape a string for embedding in a JSON payload (used by the crosstalk
    fragment renderer to match this module's conventions). *)

val csv_string : Flow.result -> string
(** One row per net, same per-net fields as the JSON. *)

val summary : ?required:float -> Format.formatter -> Flow.result -> unit
(** Human-readable run summary: net/level counts, verdict mix, critical
    path, cache and per-phase wall-time counters. *)

val optimize_json_string : Optimize.t -> string
(** Optimization report: design header, violation counts before/after, the
    deterministic search totals (candidates, screened, escalations), one
    object per searched net (slacks, residual, stage delays, per-net search
    counts, and the chosen fix), and a worst-slack summary.  Like
    {!json_string}, the payload holds only jobs-independent quantities —
    byte-identical for every [--jobs N]. *)

val optimize_csv_string : Optimize.t -> string
(** One row per searched net, same fields as the JSON fix objects. *)

val optimize_summary : Format.formatter -> Optimize.t -> unit
(** Human-readable optimization summary; includes the scheduling-dependent
    cache counters and wall time that the payloads exclude. *)
