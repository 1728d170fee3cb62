(** Unmanaged shared heap for the native backend.

    The word store is one flat [int array].  Shared words are accessed
    with sequentially consistent loads, stores, CAS and fetch-add (C
    stubs on the tagged word); a thread's own stack, register ring and
    save areas take plain loads and stores.  A shadow byte per word
    tracks unallocated/live/freed state so use-after-free, double-free
    and wild accesses are detected with the same
    {!Ts_umem.Mem.fault_kind} vocabulary as the simulator's heap.

    Blocks come from {!Ts_umem.Alloc.Make} over this store — the
    simulator's allocator, with a [Mutex] for its central lock and padded
    [Atomic] cells for its live counts and their peaks. *)

type t

val create : ?strict:bool -> ?capacity:int -> max_threads:int -> unit -> t
(** [strict] (default [true]) raises {!Ts_umem.Mem.Fault} on the first
    fault; non-strict records the fault, returns poison on bad reads and
    drops bad writes.  [capacity] is in words and fixed at creation; past
    it, {!malloc} and {!alloc_region} fault [Out_of_memory] once and
    return the null address [0]. *)

(** {1 Faults} *)

val fault_count : t -> Ts_umem.Mem.fault_kind -> int
val total_faults : t -> int
val pp_faults : Format.formatter -> t -> unit

(** {1 Data plane}

    Checked and sequentially consistent. *)

val read : t -> int -> int
val write : t -> int -> int -> unit
val cas : t -> int -> int -> int -> bool
val faa : t -> int -> int -> int
val is_freed : t -> int -> bool

val search_live : t -> int -> int -> int -> int
(** [search_live t base n key]: the binary search of the ascending words
    [\[base, base + n)] for [key] ({!Ts_rt.search_by}) in one C call,
    each probe an SC load behind {!read}'s shadow check.  [-1] when a
    probe is not live: nothing is recorded, and the caller reruns the
    search through {!read} to fault exactly as it does.  Otherwise the
    probe count in the low 7 bits and the found index plus one (0 for a
    miss) above them. *)

(** {2 The reclamation phase's buffer loops}

    {!Ts_rt.drain_by}, {!Ts_rt.read_words_by}, {!Ts_rt.publish_by} and
    {!Ts_rt.sweep_by} over {!read} and {!write}, each one C call of SC
    accesses.  Each checks the shadow byte of every word its loop would
    touch before it touches any: [-1] when one is not live, having
    stored nothing and recorded nothing, so the caller can rerun the
    loop through {!read} and {!write} and fault exactly as it does.
    [-1] too when an array is shorter than [n], or [len <= 0], where the
    reference loop raises. *)

val drain_live : t -> int -> int -> dst:int -> room:int -> int
(** [drain_live t ring len ~dst ~room]: {!Ts_rt.drain_by} with the
    cursor at [dst] and [room] words left.  Returns the pointers moved
    shifted left once, with bit 0 set when the loop read one more slot
    than it moved (the room ran out first). *)

val read_words_live : t -> int -> int -> int array -> int
(** [0] when the words were read. *)

val publish_live : t -> entries:int -> marks:int -> int array -> int -> int
(** [0] when the words were written. *)

val sweep_live : t -> entries:int -> marks:int -> ignore_marks:bool -> int -> int array -> int
(** The carried count. *)

(** {1 Owner-private words}

    Plain (non-atomic) access for words only one thread ever writes: its
    shadow stack, register ring, manual save area and signal save areas.
    Every other reader must be ordered after those stores by its own
    synchronisation ({!Runtime} gives the argument). *)

val words : t -> int array
(** The word store itself, for the runtime's unchecked plain loads and
    stores to owner-private words.  Index [a] is heap address [a]. *)

external next_in_window :
  int array -> (int[@untagged]) -> (int[@untagged]) -> int -> int -> (int[@untagged])
  = "ts_par_next_in_window_byte" "ts_par_next_in_window"
[@@noalloc]
(** [next_in_window (words t) from until lo hi]: the first address in
    [\[from, until)] whose word lies in [\[lo, hi\]], or [until]; [until]
    at once when [hi < lo].  One C call of plain loads, unrolled by 8. *)

(** {1 Allocation}

    As {!Ts_umem.Alloc.S}. *)

val alloc_region : t -> int -> int
val malloc : t -> tid:int -> int -> int
val free : t -> tid:int -> int -> unit
val is_block : t -> int -> bool
val block_size : t -> int -> int

(** {1 Accounting} *)

val stats : t -> Ts_umem.Alloc.stats
val cache_hits : t -> int
val cache_misses : t -> int
val peak_live_words : t -> int
