(* Per-request wall-clock deadlines: an absolute expiry instant, installed
   ambiently (domain-local storage set for the dynamic extent of a
   request) and checked there, or tested by whoever holds it.  Replaces the old
   ITIMER_REAL+SIGALRM budget, which was process-global and therefore
   incompatible with concurrent requests. *)

type t = { expires_at : float; budget : float }

exception Expired of float

let never = { expires_at = Float.infinity; budget = Float.infinity }
let now () = Unix.gettimeofday ()

let start budget =
  if budget <= 0. || not (Float.is_finite budget) then never
  else { expires_at = now () +. budget; budget }

let budget t = t.budget
let is_never t = t.expires_at = Float.infinity

let expired t =
  (* The [is_never] short-circuit keeps disabled deadlines clock-free. *)
  (not (is_never t)) && now () > t.expires_at

let remaining_s t =
  if is_never t then Float.infinity else Float.max 0. (t.expires_at -. now ())

let check t = if expired t then raise (Expired t.budget)

(* Ambient propagation: one slot per domain.  [with_ambient] saves and
   restores, so nesting (a request that itself publishes pool batches)
   and serial reuse of a worker domain both behave. *)
let key = Domain.DLS.new_key (fun () -> never)
let ambient () = Domain.DLS.get key

let with_ambient d f =
  let prev = Domain.DLS.get key in
  Domain.DLS.set key d;
  Fun.protect ~finally:(fun () -> Domain.DLS.set key prev) f

let check_ambient () = check (Domain.DLS.get key)
