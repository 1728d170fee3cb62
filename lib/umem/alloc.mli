(** TCMalloc-like allocator over {!Mem}.

    The paper's test bed used TCMalloc; this reproduces its structure at the
    level the experiments care about: per-thread caches serve most
    allocations without touching shared state, a central free list per size
    class absorbs cache overflow in batches, and fresh spans are carved from
    a bump pointer.  Every block carries a one-word header (invisible to the
    data plane) used to validate frees; double frees and frees of interior
    pointers are detected and reported through {!Mem.record_fault}.

    The allocator itself is control-plane: the simulator charges a lump cost
    per [malloc]/[free] rather than pricing its internal accesses. *)

type t

val create :
  ?cache_cap:int ->
  ?batch:int ->
  ?sanitize:bool ->
  max_threads:int ->
  Mem.t ->
  t
(** [create ~max_threads mem] builds an allocator with one cache per thread
    id in [0, max_threads).  [cache_cap] (default 64) bounds a per-class
    cache; [batch] (default 32) is the cache<->central transfer size.

    [sanitize] (default [false]) enables heap-sanitizer mode: every block
    carries a trailing canary word (checked on [free], clobbering reports
    {!Mem.Canary_overwrite}) and a per-base allocation generation counter
    ({!generation}) that lets checkers detect ABA reuse — a block freed and
    reallocated at the same address while a stale reference survives.
    Sanitized blocks occupy one extra word, so addresses differ from
    unsanitized runs; keep it off for benchmarks. *)

val malloc : t -> tid:int -> int -> int
(** [malloc t ~tid n] allocates a block of at least [n >= 1] words and
    returns its user base address.  The block is zero-filled and live. *)

val free : t -> tid:int -> int -> unit
(** [free t ~tid addr] releases a block previously returned by {!malloc}.
    Freed words are poisoned and any later data-plane access faults until
    the block is reallocated. *)

val alloc_region : t -> int -> int
(** [alloc_region t n] carves a permanent live region of [n] words (thread
    stacks, register files, global arrays, delete buffers).  Regions are
    never freed and have no header. *)

val block_size : t -> int -> int
(** Usable size (words) of a live block.  @raise Invalid_argument if [addr]
    is not a live block base. *)

val is_block : t -> int -> bool
(** Whether [addr] is the user base of a currently live block. *)

val sanitized : t -> bool

val generation : t -> int -> int
(** [generation t addr] — how many times a block has been handed out at
    user base [addr] (0 if never).  Only tracked in sanitizer mode. *)

(** {1 Statistics} *)

val live_blocks : t -> int

val live_words : t -> int

val peak_live_blocks : t -> int

val peak_live_words : t -> int

val total_mallocs : t -> int

val total_frees : t -> int

val cache_hits : t -> int
(** Small allocations served from the caller's magazine without touching
    the central list. *)

val central_refills : t -> int
(** Batches of fresh blocks carved into a central list. *)

val cache_flushes : t -> int
(** Magazine overflows flushed to a central list, [batch] blocks each. *)

val cache_misses : t -> int
(** Small allocations that had to go to a central list.  Hit rate is
    [hits / (hits + misses)]. *)

val pp_stats : Format.formatter -> t -> unit
