(* Eq. 9's thresholds. *)
let cl_ratio_max = 0.3
let rl_z0_max = 2.0
let rs_z0_max = 1.0
let tr_tf_max = 2.0

type verdict = {
  cl_ok : bool;
  rl_ok : bool;
  rs_ok : bool;
  tr_ok : bool;
  significant : bool;
  cl_ratio : float;
  rl_over_z0 : float;
  rs_over_z0 : float;
  tr1_over_tf : float;
}

let evaluate ~line ~cl ~rs ~tr1 =
  let z0 = Rlc_tline.Line.z0 line in
  let cl_ratio = cl /. Rlc_tline.Line.total_c line in
  let rl_over_z0 = Rlc_tline.Line.total_r line /. z0 in
  let rs_over_z0 = rs /. z0 in
  let tr1_over_tf = tr1 /. Rlc_tline.Line.time_of_flight line in
  let cl_ok = cl_ratio <= cl_ratio_max in
  let rl_ok = rl_over_z0 <= rl_z0_max in
  let rs_ok = rs_over_z0 < rs_z0_max in
  let tr_ok = tr1_over_tf < tr_tf_max in
  {
    cl_ok;
    rl_ok;
    rs_ok;
    tr_ok;
    significant = cl_ok && rl_ok && rs_ok && tr_ok;
    cl_ratio;
    rl_over_z0;
    rs_over_z0;
    tr1_over_tf;
  }

let pp fmt v =
  let mark ok = if ok then "ok" else "FAIL" in
  Format.fprintf fmt
    "screen<CL/Cl=%.2f %s, Rl/Z0=%.2f %s, Rs/Z0=%.2f %s, Tr1/tf=%.2f %s => %s>" v.cl_ratio
    (mark v.cl_ok) v.rl_over_z0 (mark v.rl_ok) v.rs_over_z0 (mark v.rs_ok) v.tr1_over_tf
    (mark v.tr_ok)
    (if v.significant then "inductive" else "RC-like")

let evaluate_input_slew ~line ~cl ~rs ~input_slew = evaluate ~line ~cl ~rs ~tr1:input_slew
