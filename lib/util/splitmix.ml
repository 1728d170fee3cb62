(* The state word lives unboxed in an 8-byte buffer: a [mutable int64]
   field would box a fresh int64 on every draw.  [mix64] and [next64] are
   inlined so their int64 intermediates stay unboxed too. *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let raw_state t = Bytes.get_int64_ne t 0

let set_raw_state t s = Bytes.set_int64_ne t 0 s

let of_state s =
  let t = Bytes.create 8 in
  set_raw_state t s;
  t

let create seed = of_state (Int64.of_int seed)

let copy = Bytes.copy

let[@inline] mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let[@inline] next64 t =
  let s = Int64.add (raw_state t) golden_gamma in
  set_raw_state t s;
  mix64 s

(* Truncate to OCaml's 62 non-sign bits so the result is non-negative. *)
let next t = Int64.to_int (Int64.shift_right_logical (next64 t) 1) land max_int

let split t = of_state (next64 t)

let below t n =
  assert (n > 0);
  (* Rejection sampling keeps the distribution exactly uniform. *)
  let limit = max_int - (max_int mod n) in
  let v = ref (next t) in
  while !v >= limit do
    v := next t
  done;
  !v mod n

let int_in t lo hi =
  assert (lo <= hi);
  lo + below t (hi - lo + 1)

let bool t = Int64.logand (next64 t) 1L = 1L

let float t = Stdlib.float_of_int (next t) /. Stdlib.float_of_int max_int /. (1. +. epsilon_float)

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = below t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
