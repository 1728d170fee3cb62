(* The allocator's types and module types, written once: {!Alloc}'s
   implementation and interface both include this file. *)

(** The allocator's shared counter cells: the live counts and their
    peaks.  The event counts of {!stats} live in each thread's magazine
    row instead. *)
type 'cell counters = { live : 'cell; live_w : 'cell; peak_live : 'cell; peak_w : 'cell }

type stats = {
  total_mallocs : int;
  total_frees : int;
  live_blocks : int;
  live_words : int;
  peak_live_blocks : int;
  peak_live_words : int;
  cache_hits : int;  (** small allocations served from the caller's magazine *)
  cache_misses : int;  (** small allocations that went to a central list *)
  central_refills : int;  (** batches of fresh blocks carved into a central list *)
  cache_flushes : int;  (** magazine overflows flushed to a central list *)
}

(** What the allocator needs from a word store. *)
module type STORE = sig
  type t

  val raw_read : t -> int -> int
  (** Unchecked read (headers, canaries); out of range reads {!Mem.poison}. *)

  val raw_write : t -> int -> int -> unit

  val raw_cas : t -> int -> int -> int -> bool
  (** The live-to-freed header transition: of two racing frees exactly
      one wins. *)

  val reserve : t -> int -> int
  (** [n] fresh, unallocated words, called under {!lock}.  When the store
      is exhausted: record one [Out_of_memory] fault, then return [0]. *)

  val mark_live : t -> int -> int -> unit
  val mark_freed : t -> int -> int -> unit
  val is_live : t -> int -> bool

  val record_fault : t -> Mem.fault_kind -> int -> unit
  (** Count a fault; a strict store then raises {!Mem.Fault}. *)

  val lock : t -> unit
  (** The central lock: guards {!reserve}, the central lists and the
      large-block free lists. *)

  val unlock : t -> unit

  type cell

  val counters : unit -> cell counters

  val add : cell -> int -> int
  (** Add, returning the new value. *)

  val get : cell -> int

  val raise_to : cell -> int -> unit
  (** [raise_to c v] sets [c] to [max c v]. *)
end

module type S = sig
  type store
  type t

  val create : ?sanitize:bool -> max_threads:int -> store -> t
  (** One magazine row per thread id in [\[0, max_threads)].

      [sanitize] (default [false]) enables heap-sanitizer mode: every
      block carries a trailing canary word (checked on [free], clobbering
      reports {!Mem.Canary_overwrite}) and a per-base allocation
      generation counter ({!generation}) that lets checkers detect ABA
      reuse.  Sanitized blocks occupy one extra word, so addresses differ
      from unsanitized runs; keep it off for benchmarks. *)

  val malloc : t -> tid:int -> int -> int
  (** A zero-filled live block of at least [n >= 1] words, by its user
      base address; [0] when a non-strict store is exhausted. *)

  val free : t -> tid:int -> int -> unit
  (** Poisons the block; any later data-plane access faults until it is
      reallocated.  A double free or a free of a non-block faults. *)

  val alloc_region : t -> int -> int
  (** A permanent live region of [n] words (thread stacks, register
      files, global arrays): never freed, no header. *)

  val block_size : t -> int -> int
  (** Usable size of a live block.  @raise Invalid_argument otherwise. *)

  val is_block : t -> int -> bool
  (** Whether [addr] is the user base of a live block. *)

  val generation : t -> int -> int
  (** How many times a block has been handed out at user base [addr];
      tracked in sanitizer mode only. *)

  val live_blocks : t -> int

  val stats : t -> stats
  (** The live counts and peaks are shared cells; the event counts are
      summed over the per-thread rows, so they are exact once the
      allocating threads are joined and may lag while they run. *)
end
