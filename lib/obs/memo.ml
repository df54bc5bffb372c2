(* Each shard owns a table, a mutex, a logical clock and its counters.  An
   entry carries the tick of its last use; a full shard evicts the entry
   with the oldest tick, found by one scan of at most [bound] entries. *)

type stats = { entries : int; capacity : int; hits : int; misses : int; evictions : int }
type 'v entry = { value : 'v; mutable used : int }

type ('k, 'v) shard = {
  table : ('k, 'v entry) Hashtbl.t;
  lock : Mutex.t;
  mutable clock : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

type ('k, 'v) t = { shards : ('k, 'v) shard array; shift : int; bound : int }

let create ?(shards = 1) ~capacity () =
  let bits = ref 0 in
  while 1 lsl !bits < Int.min shards 65536 do
    incr bits
  done;
  let bound = Int.max 1 capacity in
  let shard _ =
    let table = Hashtbl.create (Int.min bound 64) in
    { table; lock = Mutex.create (); clock = 0; hits = 0; misses = 0; evictions = 0 }
  in
  (* [Hashtbl.hash] is 30 bits wide and a shard's table indexes its buckets
     by the low bits, so the shard index takes the high ones. *)
  { shards = Array.init (1 lsl !bits) shard; shift = 30 - !bits; bound }

let shard_of t key = t.shards.(Hashtbl.hash key lsr t.shift)

let touch s e =
  s.clock <- s.clock + 1;
  e.used <- s.clock

let insert t s key value =
  if Hashtbl.length s.table >= t.bound && not (Hashtbl.mem s.table key) then begin
    let older k e acc =
      match acc with Some (_, u) when u <= e.used -> acc | _ -> Some (k, e.used)
    in
    Option.iter (fun (k, _) -> Hashtbl.remove s.table k) (Hashtbl.fold older s.table None);
    s.evictions <- s.evictions + 1
  end;
  let e = { value; used = 0 } in
  touch s e;
  Hashtbl.replace s.table key e

(* A hit touches the entry and counts; a miss is the caller's to count. *)
let lookup s key =
  Option.map
    (fun e ->
      touch s e;
      s.hits <- s.hits + 1;
      e.value)
    (Hashtbl.find_opt s.table key)

let find_or_add t key compute =
  let s = shard_of t key in
  match Mutex.protect s.lock (fun () -> lookup s key) with
  | Some v -> (v, true)
  | None ->
      let v = compute () in
      Mutex.protect s.lock (fun () ->
          s.misses <- s.misses + 1;
          match Hashtbl.find_opt s.table key with
          | Some e ->
              (* A racing caller inserted first; its value stands. *)
              touch s e;
              (e.value, false)
          | None ->
              insert t s key v;
              (v, false))

let find t key =
  let s = shard_of t key in
  Mutex.protect s.lock (fun () ->
      let v = lookup s key in
      if Option.is_none v then s.misses <- s.misses + 1;
      v)

let replace t key value =
  let s = shard_of t key in
  Mutex.protect s.lock (fun () -> insert t s key value)

let remove t key =
  let s = shard_of t key in
  Mutex.protect s.lock (fun () ->
      let present = Hashtbl.mem s.table key in
      Hashtbl.remove s.table key;
      present)

let fold f t init =
  Array.fold_left
    (fun acc s ->
      let snapshot () = Hashtbl.fold (fun k e l -> (k, e.value) :: l) s.table [] in
      List.fold_left (fun acc (k, v) -> f k v acc) acc (Mutex.protect s.lock snapshot))
    init t.shards

let clear t =
  Array.iter (fun s -> Mutex.protect s.lock (fun () -> Hashtbl.reset s.table)) t.shards

let shard_stats t =
  Array.map
    (fun s ->
      Mutex.protect s.lock (fun () ->
          let entries = Hashtbl.length s.table and capacity = t.bound in
          { entries; capacity; hits = s.hits; misses = s.misses; evictions = s.evictions }))
    t.shards

let stats t =
  let per = shard_stats t in
  let sum f = Array.fold_left (fun acc s -> acc + f s) 0 per in
  {
    entries = sum (fun s -> s.entries);
    capacity = sum (fun s -> s.capacity);
    hits = sum (fun s -> s.hits);
    misses = sum (fun s -> s.misses);
    evictions = sum (fun s -> s.evictions);
  }
