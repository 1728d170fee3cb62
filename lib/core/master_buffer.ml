module Runtime = Ts_rt
module Isort = Ts_util.Isort

(* Layout: [count][entries: cap][marks: cap].  [staged] is the reclaimer's
   private append cursor; [count] is what scanners read. *)
type t = { base : int; cap : int; mutable staged : int }

let count_addr t = t.base

let entry_addr t i = t.base + 1 + i

let mark_addr t i = t.base + 1 + t.cap + i

let create ~capacity =
  if capacity < 1 then invalid_arg "Master_buffer.create";
  { base = Runtime.alloc_region (1 + (2 * capacity)); cap = capacity; staged = 0 }

let capacity t = t.cap

let count t = Runtime.read (count_addr t)

let append t p =
  if t.staged >= t.cap then false
  else begin
    Runtime.write (entry_addr t t.staged) p;
    t.staged <- t.staged + 1;
    true
  end

let publish_sorted t =
  let n = t.staged in
  let tmp = Array.make (max n 1) 0 in
  for i = 0 to n - 1 do
    tmp.(i) <- Runtime.read (entry_addr t i)
  done;
  Isort.sort_prefix tmp n;
  let n = Isort.dedup_sorted tmp n in
  (* private sort: ~n log n cycles of local work *)
  Runtime.advance (n * 8);
  for i = 0 to n - 1 do
    Runtime.write (entry_addr t i) tmp.(i);
    Runtime.write (mark_addr t i) 0
  done;
  t.staged <- n;
  Runtime.write (count_addr t) n

let find t key = Runtime.search (entry_addr t 0) (count t) key

let mark t i = Runtime.write (mark_addr t i) 1

let is_marked t i = Runtime.read (mark_addr t i) <> 0

let entry t i = Runtime.read (entry_addr t i)

let sweep ?(ignore_marks = false) t f =
  let n = count t in
  let carry = ref 0 in
  let to_free = ref [] in
  (* Pass 1: compact the marked (carried) prefix and collect the frees.
     Nothing is freed until the buffer is consistent again, so a reclaimer
     that dies mid-sweep leaves at worst duplicate entries (deduplicated by
     the next publish) or a bounded leak of this phase's unmarked entries —
     never a double free, never a resurrected entry. *)
  for i = 0 to n - 1 do
    let p = Runtime.read (entry_addr t i) in
    if (not ignore_marks) && Runtime.read (mark_addr t i) <> 0 then begin
      Runtime.write (entry_addr t !carry) p;
      incr carry
    end
    else to_free := p :: !to_free
  done;
  t.staged <- !carry;
  (* The carried prefix is stale until the next publish; hide it. *)
  Runtime.write (count_addr t) 0;
  (* Pass 2: the actual frees, in entry order. *)
  List.iter f (List.rev !to_free);
  !carry

let bounds t =
  let n = count t in
  if n = 0 then (max_int, min_int)
  else (Runtime.read (entry_addr t 0), Runtime.read (entry_addr t (n - 1)))
