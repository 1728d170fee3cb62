(* Domain-safe unmanaged heap: the native word store, its checked data
   plane, and {!Ts_umem.Alloc.Make} over that store.  It differs from the
   simulator's store, {!Ts_umem.Mem}, only where real parallelism forces
   it (docs/BACKENDS.md):

   - No growth: another domain could read a stale array mid-swap, so the
     full capacity is allocated up front.
   - Shared words (everything [read]/[write]/[cas]/[faa] reach, block
     headers, zeroing and poisoning) go through the sequentially
     consistent C stubs in words_stubs.c.  Owner-private words (a
     thread's stack, register ring and save areas) take the runtime's
     plain stores to [words]; {!Runtime} documents why every other
     reader is ordered after them.
   - The central lock is a [Mutex]; the live counts and their peaks are
     padded atomics (the event counts are the allocator's per-thread
     rows).
   - Shadow checks are exact in steady state but best-effort at the
     instant of a concurrent transition (the shadow byte is read
     unlocked next to the word access): on a buggy run a fault may be
     attributed one transition late, never missed.  Double-free
     detection is exact: the header's live->freed transition is a CAS. *)

module Mem = Ts_umem.Mem
module Alloc = Ts_umem.Alloc

let poison = Mem.poison

(* Shadow states, one byte per word. *)
let st_unalloc = '\000'
let st_live = '\001'
let st_freed = '\002'

(* SC accesses to [words.(i)] (words_stubs.c).  The stubs do not check
   [i]: every caller below has checked [in_range], walks a reserved
   region or clamps to [capacity]. *)
external word_load : int array -> (int[@untagged]) -> int
  = "ts_par_word_load_byte" "ts_par_word_load"
[@@noalloc]

external word_store : int array -> (int[@untagged]) -> int -> unit
  = "ts_par_word_store_byte" "ts_par_word_store"
[@@noalloc]

external word_cas : int array -> (int[@untagged]) -> int -> int -> bool
  = "ts_par_word_cas_byte" "ts_par_word_cas"
[@@noalloc]

external word_faa : int array -> (int[@untagged]) -> (int[@untagged]) -> int
  = "ts_par_word_fetch_add_byte" "ts_par_word_fetch_add"
[@@noalloc]

external word_search :
  int array -> Bytes.t -> (int[@untagged]) -> (int[@untagged]) -> int -> (int[@untagged])
  = "ts_par_word_search_byte" "ts_par_word_search"
[@@noalloc]

external word_drain :
  int array ->
  Bytes.t ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  (int[@untagged]) = "ts_par_word_drain_byte" "ts_par_word_drain"
[@@noalloc]

external word_read_words :
  int array -> Bytes.t -> (int[@untagged]) -> (int[@untagged]) -> int array -> (int[@untagged])
  = "ts_par_word_read_words_byte" "ts_par_word_read_words"
[@@noalloc]

external word_publish :
  int array ->
  Bytes.t ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  int array ->
  (int[@untagged]) ->
  (int[@untagged]) = "ts_par_word_publish_byte" "ts_par_word_publish"
[@@noalloc]

external word_sweep :
  int array ->
  Bytes.t ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  bool ->
  (int[@untagged]) ->
  int array ->
  (int[@untagged]) = "ts_par_word_sweep_byte" "ts_par_word_sweep"
[@@noalloc]

external next_in_window :
  int array -> (int[@untagged]) -> (int[@untagged]) -> int -> int -> (int[@untagged])
  = "ts_par_next_in_window_byte" "ts_par_next_in_window"
[@@noalloc]

(* The allocator's shared cells: every thread bumps them on every malloc
   and free, so each cell owns its cache line. *)
type 'cell counters = 'cell Alloc.counters = {
  live : 'cell;
  live_w : 'cell;
  peak_live : 'cell;
  peak_w : 'cell;
}

module Store = struct
  type t = {
    words : int array;
    shadow : Bytes.t;
    capacity : int;
    strict : bool;
    lock : Mutex.t; (* the allocator's central lock; guards [hwm] *)
    mutable hwm : int; (* first never-reserved address *)
    faults : int array; (* per {!Mem.fault_index}, bumped with [word_faa] *)
  }

  let record_fault t kind addr =
    ignore (word_faa t.faults (Mem.fault_index kind) 1 : int);
    if t.strict then raise (Mem.Fault (kind, addr))

  let[@inline] in_range t addr = addr > 0 && addr < t.capacity

  let[@inline] state t addr = Bytes.unsafe_get t.shadow addr

  let raw_read t addr = if in_range t addr then word_load t.words addr else poison

  let raw_write t addr v = if in_range t addr then word_store t.words addr v

  let raw_cas t addr expected desired =
    in_range t addr && word_cas t.words addr expected desired

  let reserve t n =
    if t.hwm + n > t.capacity then begin
      record_fault t Out_of_memory t.hwm;
      0
    end
    else begin
      let base = t.hwm in
      t.hwm <- t.hwm + n;
      base
    end

  let is_live t addr = in_range t addr && state t addr = st_live
  let is_freed t addr = in_range t addr && state t addr = st_freed

  let mark_live t base n =
    Bytes.fill t.shadow base n st_live;
    for i = base to base + n - 1 do
      word_store t.words i 0
    done

  let mark_freed t base n =
    (* Poison first, then flip the shadow: a racing reader sees either the
       old live words or (poison, freed) — never (poison, live).  [n] comes
       from a block header; clamp it, since the stores are unchecked. *)
    let n = if n < t.capacity - base then n else t.capacity - base in
    for i = base to base + n - 1 do
      word_store t.words i poison
    done;
    Bytes.fill t.shadow base n st_freed

  let lock t = Mutex.lock t.lock
  let unlock t = Mutex.unlock t.lock

  type cell = int Atomic.t

  let counters () =
    {
      live = Ts_util.Padded.copy (Atomic.make 0);
      live_w = Ts_util.Padded.copy (Atomic.make 0);
      peak_live = Ts_util.Padded.copy (Atomic.make 0);
      peak_w = Ts_util.Padded.copy (Atomic.make 0);
    }

  let add c d = Atomic.fetch_and_add c d + d
  let get = Atomic.get

  let rec raise_to c (v : int) =
    let p = Atomic.get c in
    if v > p && not (Atomic.compare_and_set c p v) then raise_to c v
end

module A = Alloc.Make (Store)

(* [words], [shadow] and [capacity] repeat the store's own fields, so a
   data-plane access is not one pointer further away than the word. *)
type t = { words : int array; shadow : Bytes.t; capacity : int; store : Store.t; alloc : A.t }

let create ?(strict = true) ?(capacity = 1 lsl 21) ~max_threads () =
  let store =
    {
      Store.words = Array.make capacity 0;
      shadow = Bytes.make capacity st_unalloc;
      capacity;
      strict;
      lock = Mutex.create ();
      hwm = 1 (* address 0 is the reserved null address *);
      faults = Array.make (List.length Mem.fault_kinds) 0;
    }
  in
  { words = store.words; shadow = store.shadow; capacity; store; alloc = A.create ~max_threads store }

let fault_count t kind = word_load t.store.faults (Mem.fault_index kind)

let total_faults t = List.fold_left (fun acc kind -> acc + fault_count t kind) 0 Mem.fault_kinds

let pp_faults ppf t = Mem.pp_fault_counts ppf (fault_count t)

(* Data plane: checked, SC.  The fast path is one range and one shadow
   check before the stub. *)

let[@inline] live t addr = addr > 0 && addr < t.capacity && Bytes.unsafe_get t.shadow addr = st_live

let bad_access t addr ~uaf ~wild =
  Store.record_fault t.store (if Store.is_freed t.store addr then uaf else wild) addr

let read t addr =
  if live t addr then word_load t.words addr
  else begin
    bad_access t addr ~uaf:Uaf_read ~wild:Wild_read;
    poison
  end

let write t addr v =
  if live t addr then word_store t.words addr v
  else bad_access t addr ~uaf:Uaf_write ~wild:Wild_write

let cas t addr expected desired =
  if live t addr then word_cas t.words addr expected desired
  else begin
    bad_access t addr ~uaf:Uaf_write ~wild:Wild_write;
    false
  end

let faa t addr delta =
  if live t addr then word_faa t.words addr delta
  else begin
    bad_access t addr ~uaf:Uaf_write ~wild:Wild_write;
    poison
  end

let is_freed t addr = Store.is_freed t.store addr

let search_live t base n key = word_search t.words t.shadow base n key
let drain_live t ring len ~dst ~room = word_drain t.words t.shadow ring len dst room
let read_words_live t base n into = word_read_words t.words t.shadow base n into
let publish_live t ~entries ~marks src n = word_publish t.words t.shadow entries marks src n

let sweep_live t ~entries ~marks ~ignore_marks n unmarked =
  word_sweep t.words t.shadow entries marks ignore_marks n unmarked

(* Owner-private words: the runtime's plain loads and stores. *)

let words t = t.words

(* Allocation *)

let malloc t ~tid n = A.malloc t.alloc ~tid n
let free t ~tid addr = A.free t.alloc ~tid addr
let alloc_region t n = A.alloc_region t.alloc n
let is_block t addr = A.is_block t.alloc addr
let block_size t addr = A.block_size t.alloc addr
let stats t = A.stats t.alloc
let cache_hits t = (stats t).cache_hits
let cache_misses t = (stats t).cache_misses
let peak_live_words t = (stats t).peak_live_words
