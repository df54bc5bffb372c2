type t = (float * float) array

let of_points pts =
  match pts with
  | [] -> invalid_arg "Pwl.of_points: empty"
  | _ ->
      let a = Array.of_list pts in
      for i = 0 to Array.length a - 2 do
        if fst a.(i + 1) <= fst a.(i) then
          invalid_arg "Pwl.of_points: times must be strictly increasing"
      done;
      a

let points t = Array.to_list t

let eval t x =
  let n = Array.length t in
  if x <= fst t.(0) then snd t.(0)
  else if x >= fst t.(n - 1) then snd t.(n - 1)
  else begin
    let lo = ref 0 and hi = ref (n - 1) in
    while !hi - !lo > 1 do
      let mid = (!lo + !hi) / 2 in
      if fst t.(mid) <= x then lo := mid else hi := mid
    done;
    let t0, v0 = t.(!lo) and t1, v1 = t.(!hi) in
    v0 +. ((x -. t0) /. (t1 -. t0) *. (v1 -. v0))
  end

let shift_time dt t = Array.map (fun (x, v) -> (x +. dt, v)) t

let ramp ~t0 ~v0 ~v1 ~transition =
  if transition <= 0. then invalid_arg "Pwl.ramp: transition must be positive";
  of_points [ (t0, v0); (t0 +. transition, v1) ]

let two_ramp ~t0 ~vdd ~f ~tr1 ~tr2 =
  if f <= 0. || f > 1. then invalid_arg "Pwl.two_ramp: f must be in (0, 1]";
  if tr1 <= 0. then invalid_arg "Pwl.two_ramp: tr1 must be positive";
  if f >= 1. then ramp ~t0 ~v0:0. ~v1:vdd ~transition:tr1
  else begin
    if tr2 <= 0. then invalid_arg "Pwl.two_ramp: tr2 must be positive";
    let t_break = t0 +. (f *. tr1) in
    let t_end = t_break +. ((1. -. f) *. tr2) in
    of_points [ (t0, 0.); (t_break, f *. vdd); (t_end, vdd) ]
  end

let falling ~vdd t = Array.map (fun (x, v) -> (x, vdd -. v)) t

let end_time t = fst t.(Array.length t - 1)

let to_waveform ?(n = 256) ?t_end t =
  if n < 2 then invalid_arg "Pwl.to_waveform: n must be at least 2";
  let t0 = fst t.(0) in
  let t1 = match t_end with Some te -> Float.max te (end_time t) | None -> end_time t in
  let t1 = if t1 > t0 then t1 else t0 +. 1e-15 in
  (* Uniform sampling plus exact breakpoints so kinks are preserved.  The
     grid and the breakpoints up to [t1] are each sorted, so the axis is
     their merge with repeats dropped, built without a sort (a generic
     sort would box both floats of every comparison). *)
  let span = t1 -. t0 and nf = float_of_int (n - 1) in
  let nb = ref 0 in
  while !nb < Array.length t && fst t.(!nb) <= t1 do incr nb done;
  let nb = !nb in
  let all = Array.make (n + nb) 0. in
  let m = ref 0 and i = ref 0 and j = ref 0 in
  while !i < n || !j < nb do
    let g = if !i < n then t0 +. (span *. float_of_int !i /. nf) else Float.infinity in
    let x =
      if !j < nb && not (g <= fst t.(!j)) then begin
        incr j;
        fst t.(!j - 1)
      end
      else begin
        incr i;
        g
      end
    in
    if !m = 0 || x <> all.(!m - 1) then begin
      all.(!m) <- x;
      incr m
    end
  done;
  let ts = Array.sub all 0 !m in
  (* [eval] at every sample, walking the segments along the sorted axis
     instead of searching the breakpoints per sample: the segment found is
     the one [eval]'s search finds (the last breakpoint at or before the
     sample), and the end rules and the interpolation are [eval]'s
     expressions, so every value has [eval]'s bits.  Writing into a float
     array boxes no sample. *)
  let last = Array.length t - 1 in
  let x_first, v_first = t.(0) and x_last, v_last = t.(last) in
  let vs = Array.make !m 0. in
  let lo = ref 0 in
  for k = 0 to !m - 1 do
    let x = ts.(k) in
    if x <= x_first then vs.(k) <- v_first
    else if x >= x_last then vs.(k) <- v_last
    else begin
      while fst t.(!lo + 1) <= x do
        incr lo
      done;
      let t0, v0 = t.(!lo) and t1, v1 = t.(!lo + 1) in
      vs.(k) <- v0 +. ((x -. t0) /. (t1 -. t0) *. (v1 -. v0))
    end
  done;
  Waveform.create ~ts ~vs

let pp fmt t =
  Format.fprintf fmt "pwl[";
  Array.iteri
    (fun i (x, v) ->
      if i > 0 then Format.fprintf fmt "; ";
      Format.fprintf fmt "(%a, %.3g V)" Rlc_num.Units.pp_time x v)
    t;
  Format.fprintf fmt "]"
