(* Binary search for the top set bit: shifts of 32, 16, 8, 4, 2 and 1
   cover the 63-bit native int in six steps, where shifting one bit at a
   time takes log₂ k iterations. *)
let log2_floor k =
  if k < 1 then invalid_arg "Bits.log2_floor";
  let rec go acc k s =
    if s = 0 then acc
    else if k lsr s <> 0 then go (acc + s) (k lsr s) (s lsr 1)
    else go acc k (s lsr 1)
  in
  go 0 k 32

let log2_ceil k =
  if k < 1 then invalid_arg "Bits.log2_ceil";
  let fl = log2_floor k in
  if 1 lsl fl = k then fl else fl + 1

let bits_for k =
  if k < 0 then invalid_arg "Bits.bits_for"
  else if k = 0 then 0
  else if k = 1 then 1
  else log2_ceil k

let bits_for_value v = bits_for (v + 1)

let pow2 k =
  if k < 0 || k >= 62 then invalid_arg "Bits.pow2";
  1 lsl k
