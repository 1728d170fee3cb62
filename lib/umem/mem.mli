(** Flat, word-addressable "unmanaged" memory.

    This is the C heap of the reproduction: a growable [int array] indexed by
    word addresses, with a per-word allocation-state shadow.  The shadow is
    what makes memory errors — the whole reason memory reclamation exists —
    *observable events* rather than silent corruption: reading or writing a
    freed word is a use-after-free fault, touching never-allocated memory is a
    wild access, and freed words are filled with a poison pattern.

    Addresses are word indices; address [0] is reserved as the null address
    and is never backed.  See {!Ptr} for the pointer-value encoding used by
    data structures. *)

type t

type fault_kind =
  | Uaf_read      (** read of a freed word *)
  | Uaf_write     (** write to a freed word *)
  | Wild_read     (** read of a never-allocated word *)
  | Wild_write    (** write to a never-allocated word *)
  | Double_free   (** free of a block that is not live *)
  | Bad_free      (** free of an address that is not a block base *)
  | Out_of_memory (** capacity limit exceeded *)
  | Canary_overwrite
      (** a sanitizer canary word was clobbered (control-plane overflow) *)

exception Fault of fault_kind * int
(** Raised on a memory error when the store is strict; the [int] is the
    offending address. *)

val fault_to_string : fault_kind -> string

val poison : int
(** Pattern written into every word of a freed block. *)

val create : ?strict:bool -> ?capacity_limit:int -> unit -> t
(** [create ()] makes an empty store.  [strict] (default [true]) raises
    {!Fault} on memory errors; otherwise faults are only counted and reads of
    bad words return {!poison}.  [capacity_limit] bounds growth (default
    [1 lsl 26] words = 512 MiB worth of 8-byte words). *)

val strict : t -> bool

val size : t -> int
(** Current number of backed words (high-water mark of {!reserve}). *)

val reserve : t -> int -> int
(** [reserve t n] extends the store by [n] fresh words and returns the base
    address of the new range.  The words start in the unallocated state.
    @raise Fault [Out_of_memory] when the limit would be exceeded. *)

(** {1 Allocation state} *)

val mark_live : t -> int -> int -> unit
(** [mark_live t base n] marks [n] words from [base] live and zero-fills
    them. *)

val mark_freed : t -> int -> int -> unit
(** Marks the range freed and poisons it. *)

val is_live : t -> int -> bool

val is_freed : t -> int -> bool

(** {1 Data-plane access (checked)} *)

val read : t -> int -> int

val write : t -> int -> int -> unit

(** {1 Control-plane access (unchecked)} *)

val raw_read : t -> int -> int
(** Reads without state checking; used by allocator metadata, oracles and
    debug printers.  Out-of-range addresses return {!poison}. *)

val raw_write : t -> int -> int -> unit

(** {1 Fault accounting} *)

val fault_count : t -> fault_kind -> int

val total_faults : t -> int

val record_fault : t -> fault_kind -> int -> unit
(** Count (and in strict mode raise) a fault detected by a client, e.g. the
    allocator's double-free check. *)

val set_fault_hook : t -> (fault_kind -> int -> unit) -> unit
(** Install a callback invoked on every fault {e before} the strict-mode
    raise — the heap sanitizer uses it to capture the offending thread and
    reclamation phase while the simulator state is still intact. *)

val pp_faults : Format.formatter -> t -> unit
