let quantize x =
  if Float.is_nan x || Float.is_integer x || not (Float.is_finite x) then x
  else float_of_string (Printf.sprintf "%.8e" x)

let slew_grid = 0.1e-12
let quantize_slew s = Float.round (s /. slew_grid) *. slew_grid

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)
