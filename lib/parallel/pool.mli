(** A persistent OCaml 5 [Domain] worker pool for batch fan-out.

    Runs take a pool with {!borrow}: a caller-owned pool when given (the
    service daemon's), otherwise the process-wide resident pool for the
    requested jobs count, so back-to-back runs reuse the same
    worker domains instead of spawning and retiring their own.  A flow run
    feeds its pool one batch per driver size it characterizes (the size's
    grid points) and one per timing level, the experiment sweep one batch
    per pass; workers pull job indices from an atomic counter, so
    scheduling is work-stealing-flat and the result array is always in
    submission order regardless of completion order (determinism of the
    flow reports does not depend on the pool).  The calling domain
    participates in every batch, so [create ~jobs:n] spawns [n - 1] domains
    and [jobs = 1] spawns none and runs batches inline.

    {b Concurrent masters.}  A shared pool may receive [map] calls from
    several domains at once: each call publishes its own batch onto an
    active list, workers serve the oldest batch that still has unclaimed
    jobs, and every master drains and waits on its own batch only.  Each
    batch also snapshots the publishing domain's ambient
    {!Rlc_errors.Deadline}, trace id and obs sink, which workers use around
    their drain — a per-request budget and its telemetry therefore follow
    the request's jobs across domains without any signature change. *)

type t

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()]. *)

val create : jobs:int -> unit -> t
(** A pool owned by the caller, who must {!shutdown} it.  [jobs >= 1] is
    clamped from below. *)

val borrow : ?pool:t -> ?jobs:int -> unit -> t
(** The pool a run should use: [pool] itself when given, else the
    process-wide resident pool for [jobs] clamped to
    [\[1, default_jobs ()\]] (default [default_jobs ()]) — oversubscribing
    domains only adds scheduler churn.  Resident pools are created on
    first use, one per jobs count, never shut down, and safe to use from
    several domains at once.  Either way the caller must not shut the
    returned pool down. *)

val jobs : t -> int

val map : ?obs:Rlc_obs.Obs.t -> t -> int -> (int -> 'a) -> 'a array
(** [map t n f] computes [[| f 0; ...; f (n-1) |]], running the calls on the
    pool.  [f] must be safe to call from any domain.  If any call raises,
    the batch still drains and the exception of the {e lowest index} is
    re-raised (deterministic error reporting under parallel execution).
    When [obs] is an enabled sink (default {!Rlc_obs.Obs.null}), the batch
    records a ["pool.batch"] span and every worker that picks it up a
    ["pool.queue_wait_s"] histogram sample, both into [obs].

    A [map] issued from inside a job of the same pool (a job that
    characterizes a driver size, say) is safe: its master drains only its
    own batch, then waits only for jobs that other domains have claimed
    and are running, so a nested batch never waits on the batch that
    contains it.  At worst the calling domain runs the nested batch alone
    while the other domains finish the outer one. *)

val init : t -> chunk:int -> int -> (int -> 'a) -> 'a array
(** [init t ~chunk n f] is [Array.init n f] computed as one {!map} batch
    whose jobs each take [chunk] consecutive indices ([chunk] is clamped
    to at least 1).  If any call raises, the exception of the lowest index
    is re-raised, as [Array.init] would raise it: it lies in the lowest
    failing job, which stops at it.  The batch records no ["pool.batch"]
    span. *)

val run : ?obs:Rlc_obs.Obs.t -> t -> (unit -> unit) list -> unit
(** Convenience: run thunks as one batch. *)

val shutdown : t -> unit
(** Join all worker domains.  The pool must not be used afterwards;
    [shutdown] is idempotent. *)

val with_pool : jobs:int -> (t -> 'a) -> 'a
(** [create], run, [shutdown] (also on exceptions). *)
