(* Order statistics, clocks and process counters shared by the workloads. *)

let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

let sorted xs = List.sort Float.compare xs

(* Linear interpolation between closest ranks (numpy's default). *)
let quantile xs q =
  match sorted xs with
  | [] -> Float.nan
  | s ->
      let a = Array.of_list s in
      let pos = q *. float_of_int (Array.length a - 1) in
      let i = int_of_float pos in
      if i + 1 >= Array.length a then a.(Array.length a - 1)
      else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median xs = quantile xs 0.5

let mean = function
  | [] -> Float.nan
  | xs -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let ratio a b = if a +. b <= 0. then 0. else a /. (a +. b)

(* The highest of the usual percentiles that still has at least ten samples
   beyond it; the median when there are too few samples for any tail. *)
let tail xs =
  let n = float_of_int (List.length xs) in
  let p =
    match List.find_opt (fun p -> n *. (1. -. p) >= 10.) [ 0.99; 0.95; 0.9; 0.75 ] with
    | Some p -> p
    | None -> 0.5
  in
  (p, quantile xs p)

(* Peak resident set (VmHWM) of a process, in MB. *)
let peak_rss_mb pid =
  let path = match pid with None -> "/proc/self/status" | Some p -> Printf.sprintf "/proc/%d/status" p in
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  let rec scan () =
    let line = input_line ic in
    match String.split_on_char ':' line with
    | [ "VmHWM"; v ] -> Scanf.sscanf (String.trim v) "%f kB" (fun kb -> kb /. 1024.)
    | _ -> scan ()
  in
  scan ()

(* Bytes allocated and major collections so far, from [Gc.quick_stat]. *)
let gc_counters () =
  let s = Gc.quick_stat () in
  ( (s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words)
    *. float_of_int (Sys.word_size / 8),
    s.Gc.major_collections )

let nproc () =
  match open_in "/proc/cpuinfo" with
  | exception Sys_error _ -> Domain.recommended_domain_count ()
  | ic ->
      Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
      let n = ref 0 in
      (try
         while true do
           let line = input_line ic in
           if String.length line >= 9 && String.sub line 0 9 = "processor" then incr n
         done
       with End_of_file -> ());
      if !n = 0 then Domain.recommended_domain_count () else !n

let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> really_input_string ic (in_channel_length ic))

let write_file path content =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc content)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end
