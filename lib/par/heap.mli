(** Unmanaged shared heap for the native backend.

    The word store is one flat [int array].  Shared words are accessed
    with sequentially consistent loads, stores, CAS and fetch-add (C
    stubs on the tagged word); a thread's own stack, register ring and
    save areas take plain loads and stores.  A shadow byte per word
    tracks unallocated/live/freed state so use-after-free, double-free
    and wild accesses are detected with the same
    {!Ts_umem.Mem.fault_kind} vocabulary as the simulator's heap. *)

type t

val create :
  ?strict:bool ->
  ?capacity:int ->
  ?cache_cap:int ->
  ?batch:int ->
  max_threads:int ->
  unit ->
  t
(** [strict] (default [true]) raises {!Ts_umem.Mem.Fault} on the first
    fault; non-strict records the fault, returns poison on bad reads and
    drops bad writes. [capacity] is in words and fixed at creation.

    Small blocks go through per-thread magazines: fixed-capacity
    per-size-class caches ([cache_cap], default 64) refilled and flushed
    against the central free lists in batches of [batch] (default 32), so
    the central lock is taken once per batch instead of once per call. *)

(** {1 Faults} *)

val set_fault_hook : t -> (Ts_umem.Mem.fault_kind -> int -> unit) -> unit
val fault_count : t -> Ts_umem.Mem.fault_kind -> int
val total_faults : t -> int
val pp_faults : Format.formatter -> t -> unit

(** {1 Data plane}

    Checked and sequentially consistent. *)

val read : t -> int -> int
val write : t -> int -> int -> unit
val cas : t -> int -> int -> int -> bool
val faa : t -> int -> int -> int

val is_live : t -> int -> bool
val is_freed : t -> int -> bool

(** {1 Owner-private words}

    Plain (non-atomic) access for words only one thread ever writes: its
    shadow stack, register ring, manual save area and signal save areas.
    Every other reader must be ordered after those stores by its own
    synchronisation ({!Runtime} gives the argument). *)

val words : t -> int array
(** The word store itself, for the runtime's unchecked plain loads and
    stores to owner-private words.  Index [a] is heap address [a]. *)

(** {1 Allocation} *)

val alloc_region : t -> int -> int
(** Permanent region (stacks, register files, data-structure anchors);
    never freed, never poisoned. *)

val malloc : t -> tid:int -> int -> int
val free : t -> tid:int -> int -> unit

(** {1 Accounting} *)

val size : t -> int
val capacity : t -> int
val strict : t -> bool
val mallocs : t -> int
val frees : t -> int
val live_blocks : t -> int
val live_words : t -> int
val peak_live_blocks : t -> int
val peak_live_words : t -> int

val cache_hits : t -> int
(** Small allocations served from the caller's magazine, lock-free. *)

val cache_misses : t -> int
(** Small allocations that took the central lock.  Hit rate is
    [hits / (hits + misses)]. *)

val central_refills : t -> int
(** Batches of fresh blocks carved into a central free list. *)

val cache_flushes : t -> int
(** Magazine overflows flushed to central, one batch per lock take. *)
