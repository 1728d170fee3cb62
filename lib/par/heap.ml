(* Domain-safe unmanaged heap.

   The native twin of {!Ts_umem.Mem} + {!Ts_umem.Alloc}: a fixed-capacity
   word store, a per-word allocation-state shadow for UAF/wild/double-free
   detection, and a TCMalloc-style size-class allocator with per-thread
   caches.

   The word store is one flat [int array].  Every word is an immediate, so
   no store needs a write barrier, and creating the heap is one
   [Array.make].  Words are accessed two ways:

   - Shared words (everything [read]/[write]/[cas]/[faa] reach, allocator
     headers, block zeroing and poisoning) go through the C stubs in
     words_stubs.c: sequentially consistent [__atomic] load, store, CAS
     and fetch-add on the tagged word.  That is the SC memory model the
     simulator steps out op by op.
   - Owner-private words (a thread's shadow stack, register ring, manual
     save area and signal save areas, all permanent [alloc_region]s)
     take the runtime's plain OCaml loads and stores to [words].  Only
     the owning thread writes them; {!Runtime} documents why every other
     reader is ordered after those stores.

   Differences from the sim heap, all forced by real parallelism:

   - No growth.  [Ts_umem.Mem] swaps in a bigger array when it fills;
     another domain could read the stale array mid-swap, so the native
     heap allocates its full capacity up front and faults [Out_of_memory]
     beyond it.
   - Shadow-state checks are exact in steady state but best-effort at
     the instant of a concurrent transition (the shadow byte is read
     unlocked next to the word access).  A correct reclamation scheme
     never races an access with a free of the same block, so on correct
     runs this detects exactly what the sim detects; on buggy runs it
     may attribute a fault one transition late, never miss it entirely.
   - Double-free detection is exact: the header transition live->freed
     is a CAS, so of two racing frees exactly one faults.

   Fault kinds, the [Fault] exception and the poison pattern are shared
   with {!Ts_umem.Mem} so oracles and tests need only one vocabulary. *)

module Mem = Ts_umem.Mem
module Size_class = Ts_umem.Size_class
module Vec = Ts_util.Vec

let poison = Mem.poison

(* Shadow states, one byte per word. *)
let st_unalloc = '\000'
let st_live = '\001'
let st_freed = '\002'

(* Block header (same scheme as Ts_umem.Alloc): one word below the user
   base, magic in the high half, block size in the low half.  The header
   word's shadow stays unallocated so data-plane dereference of it
   faults. *)
let live_magic = 0x1A11 lsl 32
let freed_magic = 0x0F9EE lsl 32
let magic_mask = lnot ((1 lsl 32) - 1)
let size_mask = (1 lsl 32) - 1

let fault_index : Mem.fault_kind -> int = function
  | Uaf_read -> 0
  | Uaf_write -> 1
  | Wild_read -> 2
  | Wild_write -> 3
  | Double_free -> 4
  | Bad_free -> 5
  | Out_of_memory -> 6
  | Canary_overwrite -> 7

let fault_kinds : Mem.fault_kind array =
  [| Uaf_read; Uaf_write; Wild_read; Wild_write; Double_free; Bad_free; Out_of_memory;
     Canary_overwrite |]

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

type t = {
  words : int array;
  shadow : Bytes.t;
  capacity : int;
  strict : bool;
  lock : Mutex.t; (* guards hwm, central lists, large_free, cache rows creation *)
  mutable hwm : int; (* first never-reserved address *)
  central : Vec.t array; (* per size class, user base addresses *)
  caches : Vec.t array option array; (* per tid; row touched only by its owner *)
  large_free : (int, Vec.t) Hashtbl.t;
  cache_cap : int;
  batch : int;
  faults : int array; (* per fault kind, bumped with [word_faa] *)
  mallocs : int Atomic.t;
  frees : int Atomic.t;
  live : int Atomic.t;
  live_w : int Atomic.t;
  peak_live : int Atomic.t;
  peak_w : int Atomic.t;
  hits : int Atomic.t; (* small mallocs served from the caller's magazine *)
  misses : int Atomic.t; (* small mallocs that took the central lock *)
  refills : int Atomic.t; (* batches of fresh blocks carved into central *)
  flushes : int Atomic.t; (* magazine overflows flushed to central, batched *)
  mutable on_fault : (Mem.fault_kind -> int -> unit) option;
}

let create ?(strict = true) ?(capacity = 1 lsl 21) ?(cache_cap = 64) ?(batch = 32)
    ~max_threads () =
  {
    words = Array.make capacity 0;
    shadow = Bytes.make capacity st_unalloc;
    capacity;
    strict;
    lock = Mutex.create ();
    hwm = 1 (* address 0 is the reserved null address *);
    central = Array.init Size_class.count (fun _ -> Vec.create ());
    caches = Array.make max_threads None;
    large_free = Hashtbl.create 16;
    cache_cap;
    batch;
    faults = Array.make (Array.length fault_kinds) 0;
    (* allocator counters are bumped by every thread on every
       malloc/free; keep each on its own cache line so traffic on one
       does not invalidate the others *)
    mallocs = Ts_util.Padded.copy (Atomic.make 0);
    frees = Ts_util.Padded.copy (Atomic.make 0);
    live = Ts_util.Padded.copy (Atomic.make 0);
    live_w = Ts_util.Padded.copy (Atomic.make 0);
    peak_live = Ts_util.Padded.copy (Atomic.make 0);
    peak_w = Ts_util.Padded.copy (Atomic.make 0);
    hits = Ts_util.Padded.copy (Atomic.make 0);
    misses = Ts_util.Padded.copy (Atomic.make 0);
    refills = Ts_util.Padded.copy (Atomic.make 0);
    flushes = Ts_util.Padded.copy (Atomic.make 0);
    on_fault = None;
  }

let set_fault_hook t f = t.on_fault <- Some f

let record_fault t kind addr =
  ignore (word_faa t.faults (fault_index kind) 1 : int);
  (match t.on_fault with Some f -> f kind addr | None -> ());
  if t.strict then raise (Mem.Fault (kind, addr))

let fault_count t kind = word_load t.faults (fault_index kind)

let total_faults t = Array.fold_left (fun acc kind -> acc + fault_count t kind) 0 fault_kinds

let pp_faults ppf t =
  Array.iter
    (fun kind ->
      let n = fault_count t kind in
      if n > 0 then Fmt.pf ppf "%s=%d " (Mem.fault_to_string kind) n)
    fault_kinds

let[@inline] in_range t addr = addr > 0 && addr < t.capacity

let[@inline] state t addr = Bytes.unsafe_get t.shadow addr

(* Data plane: checked, SC. *)

let read t addr =
  if not (in_range t addr) then begin
    record_fault t Wild_read addr;
    poison
  end
  else
    match state t addr with
    | c when c = st_live -> word_load t.words addr
    | c when c = st_freed ->
        record_fault t Uaf_read addr;
        poison
    | _ ->
        record_fault t Wild_read addr;
        poison

let write t addr v =
  if not (in_range t addr) then record_fault t Wild_write addr
  else
    match state t addr with
    | c when c = st_live -> word_store t.words addr v
    | c when c = st_freed -> record_fault t Uaf_write addr
    | _ -> record_fault t Wild_write addr

let cas t addr expected desired =
  if not (in_range t addr) then begin
    record_fault t Wild_write addr;
    false
  end
  else
    match state t addr with
    | c when c = st_live -> word_cas t.words addr expected desired
    | c when c = st_freed ->
        record_fault t Uaf_write addr;
        false
    | _ ->
        record_fault t Wild_write addr;
        false

let faa t addr delta =
  if not (in_range t addr) then begin
    record_fault t Wild_write addr;
    poison
  end
  else
    match state t addr with
    | c when c = st_live -> word_faa t.words addr delta
    | c when c = st_freed ->
        record_fault t Uaf_write addr;
        poison
    | _ ->
        record_fault t Wild_write addr;
        poison

(* Owner-private words: the runtime's plain loads and stores. *)

let words t = t.words

(* Control plane: unchecked, SC (allocator headers). *)

let raw_read t addr = if in_range t addr then word_load t.words addr else poison

let raw_write t addr v = if in_range t addr then word_store t.words addr v

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
  let n = min n (t.capacity - base) in
  for i = base to base + n - 1 do
    word_store t.words i poison
  done;
  Bytes.fill t.shadow base n st_freed

(* [reserve] under [lock]. *)
let reserve_locked t n =
  if t.hwm + n > t.capacity then begin
    Mutex.unlock t.lock;
    record_fault t Out_of_memory t.hwm;
    Mutex.lock t.lock;
    (* non-strict mode: hand out the null address; accesses will fault *)
    0
  end
  else begin
    let base = t.hwm in
    t.hwm <- t.hwm + n;
    base
  end

let alloc_region t n =
  Mutex.lock t.lock;
  let base = reserve_locked t n in
  Mutex.unlock t.lock;
  if base > 0 then mark_live t base n;
  base

(* ------------------------------------------------------------------ *)
(* Size-class allocator                                               *)
(* ------------------------------------------------------------------ *)

let bump_peak counter peak v =
  let v = Atomic.fetch_and_add counter v + v in
  let rec loop () =
    let p = Atomic.get peak in
    if v > p && not (Atomic.compare_and_set peak p v) then loop ()
  in
  loop ()

let carve_locked t block_w =
  let base = reserve_locked t (block_w + 1) in
  if base = 0 then 0 else base + 1

let activate t addr block_w =
  raw_write t (addr - 1) (live_magic lor block_w);
  mark_live t addr block_w

let cache_row t tid =
  match t.caches.(tid) with
  | Some row -> row
  | None ->
      let row = Array.init Size_class.count (fun _ -> Vec.create ~capacity:4 ()) in
      t.caches.(tid) <- Some row;
      row

let malloc t ~tid n =
  if n <= 0 then invalid_arg "Heap.malloc";
  let addr =
    if Size_class.is_small n then begin
      let cls = Size_class.of_size n in
      let cache = (cache_row t tid).(cls) in
      if not (Vec.is_empty cache) then begin
        Atomic.incr t.hits;
        Vec.pop cache
      end
      else begin
        Mutex.lock t.lock;
        let central = t.central.(cls) in
        if Vec.is_empty central then begin
          let block_w = Size_class.size cls in
          for _ = 1 to t.batch do
            let a = carve_locked t block_w in
            if a > 0 then Vec.push central a
          done;
          Atomic.incr t.refills
        end;
        (* Batch refill: move up to half a batch into the magazine so
           the next allocations stay off the lock; keep one for the
           caller. *)
        let take = min (t.batch / 2) (max 0 (Vec.length central - 1)) in
        for _ = 1 to take do
          Vec.push cache (Vec.pop central)
        done;
        let a = if Vec.is_empty central then 0 else Vec.pop central in
        Mutex.unlock t.lock;
        Atomic.incr t.misses;
        a
      end
    end
    else begin
      Mutex.lock t.lock;
      let a =
        match Hashtbl.find_opt t.large_free n with
        | Some lst when not (Vec.is_empty lst) -> Vec.pop lst
        | _ -> carve_locked t n
      in
      Mutex.unlock t.lock;
      a
    end
  in
  if addr > 0 then begin
    let block_w = if Size_class.is_small n then Size_class.size (Size_class.of_size n) else n in
    activate t addr block_w;
    Atomic.incr t.mallocs;
    bump_peak t.live t.peak_live 1;
    bump_peak t.live_w t.peak_w block_w
  end;
  addr

let free t ~tid addr =
  if not (in_range t addr && in_range t (addr - 1)) then record_fault t Bad_free addr
  else begin
    let hdr = raw_read t (addr - 1) in
    let magic = hdr land magic_mask in
    let block_w = hdr land size_mask in
    if magic = live_magic then begin
      (* The live->freed header transition is a CAS: of two racing frees
         of the same block exactly one takes this branch, the other
         faults Double_free below on the freed magic. *)
      if word_cas t.words (addr - 1) hdr (freed_magic lor block_w) then begin
        mark_freed t addr block_w;
        Atomic.incr t.frees;
        ignore (Atomic.fetch_and_add t.live (-1));
        ignore (Atomic.fetch_and_add t.live_w (-block_w));
        if Size_class.is_small block_w && Size_class.size (Size_class.of_size block_w) = block_w
        then begin
          let cls = Size_class.of_size block_w in
          (* Batched flush: once the magazine overflows, move a whole
             batch to central under one lock acquisition — not one
             address per free, which would serialise every free on the
             lock as soon as the cache first filled. *)
          let cache = (cache_row t tid).(cls) in
          Vec.push cache addr;
          if Vec.length cache > t.cache_cap then begin
            Mutex.lock t.lock;
            let central = t.central.(cls) in
            for _ = 1 to t.batch do
              Vec.push central (Vec.pop cache)
            done;
            Mutex.unlock t.lock;
            Atomic.incr t.flushes
          end
        end
        else begin
          Mutex.lock t.lock;
          (match Hashtbl.find_opt t.large_free block_w with
          | Some lst -> Vec.push lst addr
          | None ->
              let lst = Vec.create () in
              Vec.push lst addr;
              Hashtbl.replace t.large_free block_w lst);
          Mutex.unlock t.lock
        end
      end
      else record_fault t Double_free addr
    end
    else if magic = freed_magic then record_fault t Double_free addr
    else record_fault t Bad_free addr
  end

(* ------------------------------------------------------------------ *)
(* Statistics                                                         *)
(* ------------------------------------------------------------------ *)

let size t = t.hwm
let capacity t = t.capacity
let strict t = t.strict
let mallocs t = Atomic.get t.mallocs
let frees t = Atomic.get t.frees
let live_blocks t = Atomic.get t.live
let live_words t = Atomic.get t.live_w
let peak_live_blocks t = Atomic.get t.peak_live
let peak_live_words t = Atomic.get t.peak_w
let cache_hits t = Atomic.get t.hits
let cache_misses t = Atomic.get t.misses
let central_refills t = Atomic.get t.refills
let cache_flushes t = Atomic.get t.flushes
