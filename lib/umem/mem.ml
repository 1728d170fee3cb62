type fault_kind =
  | Uaf_read
  | Uaf_write
  | Wild_read
  | Wild_write
  | Double_free
  | Bad_free
  | Out_of_memory
  | Canary_overwrite

exception Fault of fault_kind * int

let fault_to_string = function
  | Uaf_read -> "use-after-free read"
  | Uaf_write -> "use-after-free write"
  | Wild_read -> "wild read"
  | Wild_write -> "wild write"
  | Double_free -> "double free"
  | Bad_free -> "bad free"
  | Out_of_memory -> "out of memory"
  | Canary_overwrite -> "canary overwrite"

let poison = 0x5D5D5D5D5D

(* Per-word allocation states, stored in a byte shadow. *)
let st_unalloc = '\000'
let st_live = '\001'
let st_freed = '\002'

type t = {
  mutable words : int array;
  mutable shadow : Bytes.t;
  mutable hwm : int; (* first unreserved address *)
  capacity_limit : int;
  strict : bool;
  faults : int array; (* indexed by fault kind *)
  mutable on_fault : fault_kind -> int -> unit; (* runs before any raise *)
}

let fault_index = function
  | Uaf_read -> 0
  | Uaf_write -> 1
  | Wild_read -> 2
  | Wild_write -> 3
  | Double_free -> 4
  | Bad_free -> 5
  | Out_of_memory -> 6
  | Canary_overwrite -> 7

let fault_kinds =
  [ Uaf_read; Uaf_write; Wild_read; Wild_write; Double_free; Bad_free; Out_of_memory; Canary_overwrite ]

let create ?(strict = true) ?(capacity_limit = 1 lsl 26) () =
  let cap = 1 lsl 12 in
  {
    words = Array.make cap 0;
    shadow = Bytes.make cap st_unalloc;
    hwm = 1 (* address 0 is the null address *);
    capacity_limit;
    strict;
    faults = Array.make (List.length fault_kinds) 0;
    on_fault = (fun _ _ -> ());
  }

let strict t = t.strict

let size t = t.hwm

let set_fault_hook t f = t.on_fault <- f

let record_fault t kind addr =
  t.faults.(fault_index kind) <- t.faults.(fault_index kind) + 1;
  t.on_fault kind addr;
  if t.strict then raise (Fault (kind, addr))

let grow_to t needed =
  let cap = ref (Array.length t.words) in
  while !cap < needed do
    cap := !cap * 2
  done;
  let cap = min !cap t.capacity_limit in
  let words = Array.make cap 0 in
  Array.blit t.words 0 words 0 t.hwm;
  let shadow = Bytes.make cap st_unalloc in
  Bytes.blit t.shadow 0 shadow 0 t.hwm;
  t.words <- words;
  t.shadow <- shadow

(* Past the limit: one fault, then (non-strict) the null address, whose
   every access faults in turn. *)
let reserve t n =
  assert (n > 0);
  if t.hwm + n > t.capacity_limit then begin
    record_fault t Out_of_memory t.hwm;
    0
  end
  else begin
    if t.hwm + n > Array.length t.words then grow_to t (t.hwm + n);
    let base = t.hwm in
    t.hwm <- t.hwm + n;
    base
  end

let in_range t addr = addr >= 1 && addr < t.hwm

let state t addr = Bytes.unsafe_get t.shadow addr

let mark_live t base n =
  assert (in_range t base && in_range t (base + n - 1));
  Bytes.fill t.shadow base n st_live;
  Array.fill t.words base n 0

let mark_freed t base n =
  assert (in_range t base && in_range t (base + n - 1));
  Bytes.fill t.shadow base n st_freed;
  Array.fill t.words base n poison

let[@inline] is_live t addr = in_range t addr && state t addr = st_live

let is_freed t addr = in_range t addr && state t addr = st_freed

let bad_access t addr ~uaf ~wild = record_fault t (if is_freed t addr then uaf else wild) addr

let read t addr =
  if is_live t addr then Array.unsafe_get t.words addr
  else begin
    bad_access t addr ~uaf:Uaf_read ~wild:Wild_read;
    poison
  end

let write t addr v =
  if is_live t addr then Array.unsafe_set t.words addr v
  else bad_access t addr ~uaf:Uaf_write ~wild:Wild_write

let raw_read t addr = if in_range t addr then Array.unsafe_get t.words addr else poison

let raw_write t addr v = if in_range t addr then Array.unsafe_set t.words addr v

let fault_count t kind = t.faults.(fault_index kind)

let total_faults t = Array.fold_left ( + ) 0 t.faults

let pp_fault_counts ppf count =
  match List.filter (fun k -> count k > 0) fault_kinds with
  | [] -> Fmt.pf ppf "no faults"
  | ks -> List.iter (fun k -> Fmt.pf ppf "%s: %d@ " (fault_to_string k) (count k)) ks
