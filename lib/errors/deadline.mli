(** Per-request wall-clock deadlines.

    The service daemon used to budget requests with a process-global
    [ITIMER_REAL]+[SIGALRM] pair — a mechanism that cannot coexist with
    concurrent requests (one timer, one signal, whole process).  A
    {!t} is instead an absolute expiry instant carried per request:
    cheap to test from any domain, impossible to clobber from another
    request, and safe to check at arbitrary observation points deep in
    the engine.

    A [t] reaches the code it bounds only ambiently: {!with_ambient}
    installs it in domain-local storage for the dynamic extent of a
    callback, and long loops call the near-free {!check_ambient} every
    few hundred iterations.  The worker pool snapshots the publisher's
    ambient deadline into each batch, so fan-out inherits the request
    budget across domains.  The holder of a [t] may also test it
    directly ({!expired}, {!check}), as the daemon's admission queue
    does.

    The clock is [Unix.gettimeofday], matching [Rlc_obs.Obs.now] — the
    repo deliberately has no extra monotonic-clock dependency.  A
    deadline that never expires ({!never}) reduces every check to one
    domain-local read and a float compare. *)

type t
(** An absolute expiry instant plus the budget that produced it. *)

exception Expired of float
(** Raised by {!check} / {!check_ambient}; carries the original budget
    in seconds so catchers can build the wire-stable
    [Error.Timeout budget]. *)

val never : t
(** The deadline that never expires.  {!budget} is [infinity]. *)

val start : float -> t
(** [start budget] expires [budget] seconds from now.  A budget that is
    zero, negative, or non-finite disables the deadline ([never]),
    matching the daemon's "timeout off" convention. *)

val budget : t -> float
(** The budget [start] was given (seconds); [infinity] for {!never}. *)

val is_never : t -> bool

val expired : t -> bool
(** Has the instant passed?  [false] for {!never} without reading the
    clock. *)

val remaining_s : t -> float
(** Seconds until expiry, clamped at [0.]; [infinity] for {!never}. *)

val check : t -> unit
(** Raise [Expired budget] if {!expired}. *)

val ambient : unit -> t
(** This domain's installed deadline ({!never} when none). *)

val with_ambient : t -> (unit -> 'a) -> 'a
(** [with_ambient d f] runs [f] with [d] as this domain's ambient
    deadline, restoring the previous one on exit (exceptions
    included) — nesting and serial reuse of a domain both behave. *)

val check_ambient : unit -> unit
(** {!check} on the ambient deadline.  When none is installed this is
    one domain-local read and a compare — cheap enough for the engine's
    inner step loops (checked every few hundred steps). *)
