type t = { vs : float; rs : float; z0 : float; tf : float }

let create ~vs ~rs ~z0 ~tf =
  if rs < 0. || z0 <= 0. || tf <= 0. then invalid_arg "Lattice.create: invalid parameters";
  { vs; rs; z0; tf }

let gamma_source t = (t.rs -. t.z0) /. (t.rs +. t.z0)
let initial_step t = t.vs *. t.z0 /. (t.z0 +. t.rs)

(* Waves: v+_0 launched at t=0; the open far end reflects each incident
   wave whole (reflection coefficient 1); the source reflects it with
   gamma_s.  The near-end voltage after the 2k-th round trip is the
   accumulated sum of all waves that have arrived (incident + their
   immediate source reflection). *)
let near_end_voltage t time =
  if time < 0. then 0.
  else begin
    let gs = gamma_source t in
    let v0 = initial_step t in
    (* At time 0: v0.  At 2k*tf (k >= 1): add v0 gs^(k-1) (1 + gs). *)
    let acc = ref v0 and k = ref 1 in
    let continue = ref true in
    while !continue do
      let arrival = 2. *. float_of_int !k *. t.tf in
      if arrival > time || !k > 10_000 then continue := false
      else begin
        let wave = v0 *. (gs ** float_of_int (!k - 1)) in
        acc := !acc +. (wave *. (1. +. gs));
        incr k
      end
    done;
    !acc
  end

let far_end_voltage t time =
  if time < t.tf then 0.
  else begin
    let gs = gamma_source t in
    let v0 = initial_step t in
    (* Wave k (k >= 0) arrives at the far end at (2k+1)*tf with amplitude
       v0 gs^k and deposits twice itself. *)
    let acc = ref 0. and k = ref 0 in
    let continue = ref true in
    while !continue do
      let arrival = (2. *. float_of_int !k *. t.tf) +. t.tf in
      if arrival > time || !k > 10_000 then continue := false
      else begin
        acc := !acc +. (v0 *. (gs ** float_of_int !k) *. 2.);
        incr k
      end
    done;
    !acc
  end

let near_end_steps t ~n =
  List.init n (fun k ->
      let time = 2. *. float_of_int k *. t.tf in
      (time, near_end_voltage t (time +. (1e-9 *. t.tf))))
