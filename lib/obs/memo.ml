(* Each shard owns a table, a mutex, a logical clock, its total weight and
   its counters.  An entry carries the tick of its last use; a full shard
   evicts the entry with the oldest tick, found by one scan of at most
   [bound] entries, and repeats until the new entry fits. *)

type stats = {
  entries : int;
  capacity : int;
  hits : int;
  misses : int;
  evictions : int;
  weight : int;
}

type 'v entry = { value : 'v; mutable used : int; weight : int }

type ('k, 'v) shard = {
  table : ('k, 'v entry) Hashtbl.t;
  lock : Mutex.t;
  mutable clock : int;
  mutable weight : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

type ('k, 'v) t = {
  shards : ('k, 'v) shard array;
  shift : int;
  bound : int;
  weigh : 'k -> 'v -> int;
  max_weight : int;
}

let create ?(shards = 1) ?weight ?(max_weight = max_int) ~capacity () =
  let bits = ref 0 in
  while 1 lsl !bits < Int.min shards 65536 do
    incr bits
  done;
  let bound = Int.max 1 capacity in
  let shard _ =
    let table = Hashtbl.create (Int.min bound 64) in
    { table; lock = Mutex.create (); clock = 0; weight = 0; hits = 0; misses = 0; evictions = 0 }
  in
  (* [Hashtbl.hash] is 30 bits wide and a shard's table indexes its buckets
     by the low bits, so the shard index takes the high ones. *)
  {
    shards = Array.init (1 lsl !bits) shard;
    shift = 30 - !bits;
    bound;
    weigh = Option.value weight ~default:(fun _ _ -> 0);
    max_weight;
  }

let shard_of t key = t.shards.(Hashtbl.hash key lsr t.shift)

let touch s e =
  s.clock <- s.clock + 1;
  e.used <- s.clock

let drop s key (e : _ entry) =
  Hashtbl.remove s.table key;
  s.weight <- s.weight - e.weight

let evict_oldest s =
  let older k e acc =
    match acc with Some (_, e') when e'.used <= e.used -> acc | _ -> Some (k, e)
  in
  Option.iter
    (fun (k, e) ->
      drop s k e;
      s.evictions <- s.evictions + 1)
    (Hashtbl.fold older s.table None)

(* Binds [key], first evicting least recently used entries until the new
   one fits both bounds.  A value heavier than the whole weight bound is
   not stored, and the key's old binding goes with it. *)
let insert t s key value =
  let weight = t.weigh key value in
  Option.iter (drop s key) (Hashtbl.find_opt s.table key);
  if weight <= t.max_weight then begin
    while
      Hashtbl.length s.table > 0
      && (Hashtbl.length s.table >= t.bound || s.weight + weight > t.max_weight)
    do
      evict_oldest s
    done;
    let e = { value; used = 0; weight } in
    touch s e;
    Hashtbl.replace s.table key e;
    s.weight <- s.weight + weight
  end

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

(* [valid] runs outside the lock; the entry is touched only if it passes
   and is still the key's binding. *)
let find ?(valid = fun _ -> true) t key =
  let s = shard_of t key in
  let found = Mutex.protect s.lock (fun () -> Hashtbl.find_opt s.table key) in
  let hit = match found with Some e -> valid e.value | None -> false in
  Mutex.protect s.lock (fun () ->
      match found with
      | Some e when hit ->
          (match Hashtbl.find_opt s.table key with
          | Some current when current == e -> touch s e
          | _ -> ());
          s.hits <- s.hits + 1;
          Some e.value
      | _ ->
          s.misses <- s.misses + 1;
          None)

let replace t key value =
  let s = shard_of t key in
  Mutex.protect s.lock (fun () -> insert t s key value)

let remove t key =
  let s = shard_of t key in
  Mutex.protect s.lock (fun () ->
      match Hashtbl.find_opt s.table key with
      | Some e ->
          drop s key e;
          true
      | None -> false)

let fold f t init =
  Array.fold_left
    (fun acc s ->
      let snapshot () = Hashtbl.fold (fun k e l -> (k, e.value) :: l) s.table [] in
      List.fold_left (fun acc (k, v) -> f k v acc) acc (Mutex.protect s.lock snapshot))
    init t.shards

let clear t =
  Array.iter
    (fun s ->
      Mutex.protect s.lock (fun () ->
          Hashtbl.reset s.table;
          s.weight <- 0))
    t.shards

let shard_stats t =
  Array.map
    (fun s ->
      Mutex.protect s.lock (fun () ->
          {
            entries = Hashtbl.length s.table;
            capacity = t.bound;
            hits = s.hits;
            misses = s.misses;
            evictions = s.evictions;
            weight = s.weight;
          }))
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
    weight = sum (fun s -> s.weight);
  }
