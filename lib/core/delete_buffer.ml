module Runtime = Ts_rt

(* Layout: [head][tail][slot 0 .. slot cap-1]; head/tail are monotone. *)
type t = { base : int; cap : int }

let head t = t.base

let tail t = t.base + 1

let slot t k = t.base + 2 + (k mod t.cap)

let create ~capacity =
  if capacity < 1 then invalid_arg "Delete_buffer.create";
  { base = Runtime.alloc_region (2 + capacity); cap = capacity }

let capacity t = t.cap

let push t p =
  let h = Runtime.read (head t) in
  let tl = Runtime.read (tail t) in
  if h - tl >= t.cap then false
  else begin
    Runtime.write (slot t h) p;
    Runtime.write (head t) (h + 1);
    true
  end

let size t =
  let h = Runtime.read (head t) in
  let tl = Runtime.read (tail t) in
  h - tl

let drain t ~dst ~cap cursor = Runtime.drain t.base t.cap ~dst ~cap cursor
