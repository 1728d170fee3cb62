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

(** {1 Owner-private words}

    Plain (non-atomic) access for words only one thread ever writes: its
    shadow stack, register ring, manual save area and signal save areas.
    Every other reader must be ordered after those stores by its own
    synchronisation ({!Runtime} gives the argument). *)

val words : t -> int array
(** The word store itself, for the runtime's unchecked plain loads and
    stores to owner-private words.  Index [a] is heap address [a]. *)

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
