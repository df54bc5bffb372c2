(* Hash-partitioned shards: each shard owns a table, a mutex, and its own
   hit/miss counters, so concurrent requests hitting a shared cache
   contend only when their keys land on the same shard.  Aggregate stats
   are sums over shards. *)

type 'a shard = {
  table : (string, 'a) Hashtbl.t;
  mutex : Mutex.t;
  mutable hits : int;
  mutable misses : int;
}

type 'a t = {
  shards : 'a shard array;  (* length is a power of two *)
  mask : int;
}

let default_shards = 16

let make_shard () =
  { table = Hashtbl.create 64; mutex = Mutex.create (); hits = 0; misses = 0 }

let create ?(shards = default_shards) () =
  let requested = Int.max 1 shards in
  let n = ref 1 in
  while !n < requested do
    n := !n * 2
  done;
  { shards = Array.init !n (fun _ -> make_shard ()); mask = !n - 1 }

let shard_of t key = t.shards.(Hashtbl.hash key land t.mask)
let shards t = Array.length t.shards

let locked s f =
  Mutex.lock s.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock s.mutex) f

let find_or_add t key compute =
  let s = shard_of t key in
  match
    locked s (fun () ->
        match Hashtbl.find_opt s.table key with
        | Some v ->
            s.hits <- s.hits + 1;
            Some v
        | None -> None)
  with
  | Some v -> (v, true)
  | None ->
      let v = compute () in
      let v =
        locked s (fun () ->
            s.misses <- s.misses + 1;
            match Hashtbl.find_opt s.table key with
            | Some v' -> v' (* a racing domain inserted the same pure result first *)
            | None ->
                Hashtbl.add s.table key v;
                v)
      in
      (v, false)

let find t key =
  let s = shard_of t key in
  locked s (fun () ->
      match Hashtbl.find_opt s.table key with
      | Some _ as v ->
          s.hits <- s.hits + 1;
          v
      | None ->
          s.misses <- s.misses + 1;
          None)

let sum_over t f = Array.fold_left (fun acc s -> acc + locked s (fun () -> f s)) 0 t.shards
let hits t = sum_over t (fun s -> s.hits)
let misses t = sum_over t (fun s -> s.misses)
let length t = sum_over t (fun s -> Hashtbl.length s.table)

type shard_stat = { s_length : int; s_hits : int; s_misses : int }

let shard_stats t =
  Array.map
    (fun s ->
      locked s (fun () ->
          { s_length = Hashtbl.length s.table; s_hits = s.hits; s_misses = s.misses }))
    t.shards

let clear t =
  Array.iter
    (fun s ->
      locked s (fun () ->
          Hashtbl.reset s.table;
          s.hits <- 0;
          s.misses <- 0))
    t.shards

let quantize x =
  if Float.is_nan x || Float.is_integer x || not (Float.is_finite x) then x
  else float_of_string (Printf.sprintf "%.8e" x)

let slew_grid = 0.1e-12
let quantize_slew s = Float.round (s /. slew_grid) *. slew_grid

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)
