module Runtime = Ts_rt
module Isort = Ts_util.Isort

(* Layout: [count][entries: cap][marks: cap].  [staged] is the reclaimer's
   private append cursor; [count] is what scanners read.  [scratch] holds
   the entries while they are sorted, and then the sweep's frees; [tmp]
   is the sort's second array.  Both are the reclaimer's, like [staged],
   and a reclaimer that takes the phase over from a stale one gets fresh
   ones ({!renew_scratch}).  They grow to the largest phase seen, not to
   [cap] up front: the checker creates a master per schedule, and most
   phases hold a few entries. *)
type t = {
  base : int;
  cap : int;
  staged : int ref;
  mutable scratch : int array;
  mutable tmp : int array;
}

let count_addr t = t.base

let entry_addr t i = t.base + 1 + i

let mark_addr t i = t.base + 1 + t.cap + i

let create ~capacity =
  if capacity < 1 then invalid_arg "Master_buffer.create";
  {
    base = Runtime.alloc_region (1 + (2 * capacity));
    cap = capacity;
    staged = ref 0;
    scratch = [||];
    tmp = [||];
  }

let capacity t = t.cap

let count t = Runtime.read (count_addr t)

let append t p =
  if !(t.staged) >= t.cap then false
  else begin
    Runtime.write (entry_addr t !(t.staged)) p;
    incr t.staged;
    true
  end

(* [t.scratch], holding at least [n] words; grown by doubling, up to
   [cap] unless [n] asks for more. *)
let scratch t n =
  let len = Array.length t.scratch in
  if len < n then begin
    let len = if 2 * len < t.cap then 2 * len else t.cap in
    let len = if len > n then len else n in
    t.scratch <- Array.make len 0;
    t.tmp <- Array.make len 0
  end;
  t.scratch

let drain_from t b = Delete_buffer.drain b ~dst:(entry_addr t 0) ~cap:t.cap t.staged

let publish_sorted t =
  let n = !(t.staged) in
  let a = scratch t n in
  Runtime.read_words (entry_addr t 0) n a;
  Isort.sort_prefix ~tmp:t.tmp a n;
  let n = Isort.dedup_sorted a n in
  (* private sort: ~n log n cycles of local work *)
  Runtime.advance (n * 8);
  Runtime.publish ~entries:(entry_addr t 0) ~marks:(mark_addr t 0) a n;
  t.staged := n;
  Runtime.write (count_addr t) n

let find t key = Runtime.search (entry_addr t 0) (count t) key

let mark t i = Runtime.write (mark_addr t i) 1

let is_marked t i = Runtime.read (mark_addr t i) <> 0

let entry t i = Runtime.read (entry_addr t i)

let sweep ?(ignore_marks = false) t f =
  let n = count t in
  let unmarked = scratch t n in
  (* Pass 1: compact the marked (carried) prefix and collect the frees.
     Nothing is freed until the buffer is consistent again, so a reclaimer
     that dies mid-sweep leaves at worst duplicate entries (deduplicated by
     the next publish) or a bounded leak of this phase's unmarked entries —
     never a double free, never a resurrected entry. *)
  let carry =
    Runtime.sweep ~entries:(entry_addr t 0) ~marks:(mark_addr t 0) ~ignore_marks n unmarked
  in
  t.staged := carry;
  (* The carried prefix is stale until the next publish; hide it. *)
  Runtime.write (count_addr t) 0;
  (* Pass 2: the actual frees, in entry order. *)
  for i = 0 to n - carry - 1 do
    f unmarked.(i)
  done;
  carry

let renew_scratch t =
  t.scratch <- [||];
  t.tmp <- [||]

let bounds t =
  let n = count t in
  if n = 0 then (max_int, min_int)
  else (Runtime.read (entry_addr t 0), Runtime.read (entry_addr t (n - 1)))
