type batch = {
  run : int -> unit;
  n : int;
  next : int Atomic.t;
  remaining : int Atomic.t;
  obs : Rlc_obs.Obs.t;
      (** the publisher's sink: workers record their queue-wait samples
          there, so a resident pool reports into each caller's own sink *)
  published : float;  (** [Obs.now] at publication, for queue-wait stats *)
  deadline : Rlc_errors.Deadline.t;
      (** the publisher's ambient deadline, installed around each worker's
          drain so fan-out inherits the request budget across domains *)
  trace : string option;
      (** the publisher's ambient trace id, installed the same way so spans
          recorded inside worker domains tag to the originating request *)
}

type t = {
  n_jobs : int;
  mutex : Mutex.t;
  cond : Condition.t;
  mutable active : batch list;
      (** batches that may still have unclaimed jobs, oldest first; masters
          append on publish, workers and masters prune exhausted entries *)
  mutable stop : bool;
  mutable domains : unit Domain.t list;
}

let default_jobs () = Domain.recommended_domain_count ()
let jobs t = t.n_jobs

(* Pull indices until the batch is exhausted.  The worker that completes the
   last job broadcasts so the master can collect the batch. *)
let drain t b =
  let rec go () =
    let i = Atomic.fetch_and_add b.next 1 in
    if i < b.n then begin
      b.run i;
      let remaining = Atomic.fetch_and_add b.remaining (-1) - 1 in
      if remaining = 0 then begin
        Mutex.lock t.mutex;
        Condition.broadcast t.cond;
        Mutex.unlock t.mutex
      end;
      go ()
    end
  in
  go ()

(* Workers serve whichever active batch still has unclaimed jobs (oldest
   first, so concurrent masters are served fairly rather than
   last-publisher-wins).  The single-batch-slot design this replaces
   could not host two concurrent [map] calls: the second publication
   overwrote the first and workers only compared sequence numbers. *)
let worker t () =
  let rec loop () =
    Mutex.lock t.mutex;
    let rec wait () =
      if t.stop then None
      else begin
        t.active <- List.filter (fun b -> Atomic.get b.next < b.n) t.active;
        match t.active with
        | b :: _ -> Some b
        | [] ->
            Condition.wait t.cond t.mutex;
            wait ()
      end
    in
    match wait () with
    | None -> Mutex.unlock t.mutex
    | Some b ->
        Mutex.unlock t.mutex;
        if Rlc_obs.Obs.enabled b.obs then
          Rlc_obs.Obs.observe b.obs "pool.queue_wait_s"
            (Float.max 0. (Rlc_obs.Obs.now () -. b.published));
        Rlc_errors.Deadline.with_ambient b.deadline (fun () ->
            Rlc_obs.Obs.with_trace b.trace (fun () -> drain t b));
        loop ()
  in
  loop ()

let create ~jobs () =
  let n_jobs = Int.max 1 jobs in
  let t =
    {
      n_jobs;
      mutex = Mutex.create ();
      cond = Condition.create ();
      active = [];
      stop = false;
      domains = [];
    }
  in
  t.domains <- List.init (n_jobs - 1) (fun _ -> Domain.spawn (worker t));
  t

let map ?(obs = Rlc_obs.Obs.null) t n f =
  if n = 0 then [||]
  else begin
    let results = Array.make n None in
    let errors = Array.make n None in
    let run i =
      match f i with
      | v -> results.(i) <- Some v
      | exception e -> errors.(i) <- Some e
    in
    let t0 = Rlc_obs.Obs.start obs in
    if t.n_jobs = 1 || n = 1 then
      for i = 0 to n - 1 do
        run i
      done
    else begin
      let b =
        {
          run;
          n;
          next = Atomic.make 0;
          remaining = Atomic.make n;
          obs;
          published = (if Rlc_obs.Obs.enabled obs then Rlc_obs.Obs.now () else 0.);
          deadline = Rlc_errors.Deadline.ambient ();
          trace = Rlc_obs.Obs.current_trace ();
        }
      in
      Mutex.lock t.mutex;
      t.active <- t.active @ [ b ];
      Condition.broadcast t.cond;
      Mutex.unlock t.mutex;
      (* The master drains its own batch only: helping another master's
         batch here would block this map on foreign work and leak that
         request's ambient deadline into this one. *)
      drain t b;
      Mutex.lock t.mutex;
      while Atomic.get b.remaining > 0 do
        Condition.wait t.cond t.mutex
      done;
      t.active <- List.filter (fun b' -> b' != b) t.active;
      Mutex.unlock t.mutex
    end;
    Rlc_obs.Obs.finish obs
      ~args:[ ("jobs", string_of_int (Int.min t.n_jobs n)); ("n", string_of_int n) ]
      "pool.batch" t0;
    Array.iter (function Some e -> raise e | None -> ()) errors;
    Array.map Option.get results
  end

let init t ~chunk n f =
  let chunk = Int.max 1 chunk in
  Array.concat
    (Array.to_list
       (map t ((n + chunk - 1) / chunk) (fun ci ->
            let lo = ci * chunk in
            Array.init (Int.min chunk (n - lo)) (fun k -> f (lo + k)))))

let run ?obs t thunks =
  let arr = Array.of_list thunks in
  ignore (map ?obs t (Array.length arr) (fun i -> arr.(i) ()))

let shutdown t =
  Mutex.lock t.mutex;
  t.stop <- true;
  Condition.broadcast t.cond;
  Mutex.unlock t.mutex;
  List.iter Domain.join t.domains;
  t.domains <- []

let with_pool ~jobs f =
  let t = create ~jobs () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

(* Process-wide resident pools, one per jobs count, created on first use and
   never shut down.  A run that spawned and retired its own worker domains
   paid for fresh domain heaps every time, and in a process running many
   flows back to back those retired heaps piled up as resident memory. *)
let shared_lock = Mutex.create ()
let shared_pools : (int, t) Hashtbl.t = Hashtbl.create 4

let shared ~jobs =
  let jobs = Int.max 1 jobs in
  Mutex.protect shared_lock (fun () ->
      match Hashtbl.find_opt shared_pools jobs with
      | Some t -> t
      | None ->
          let t = create ~jobs () in
          Hashtbl.add shared_pools jobs t;
          t)

let borrow ?pool ?jobs () =
  match pool with
  | Some t -> t
  | None ->
      let jobs =
        match jobs with
        | Some j -> Int.max 1 (Int.min j (default_jobs ()))
        | None -> default_jobs ()
      in
      shared ~jobs
