(** The master delete buffer a reclamation phase operates on.

    The reclaimer aggregates all per-thread delete buffers here, sorts the
    live prefix, and publishes the count; scanning threads binary-search it
    (shared reads) and set mark words.  Marked entries survive the sweep and
    are carried over into the next phase's prefix. *)

type t

val create : capacity:int -> t

val capacity : t -> int

val count : t -> int
(** Published number of (sorted) entries in the current phase. *)

val append : t -> int -> bool
(** Reclaimer side, before publication: append an entry; [false] if full. *)

val drain_from : t -> Delete_buffer.t -> unit
(** Reclaimer side, before publication: append the delete buffer's
    pointers, oldest first, until it is empty or the master is full
    ({!Delete_buffer.drain}); the rest stays buffered. *)

val publish_sorted : t -> unit
(** Reclaimer side: sort the staged entries (pulling them into private
    memory with {!Ts_rt.read_words}, sorting, writing back with
    {!Ts_rt.publish} — priced accordingly), deduplicate, clear all marks,
    and publish the count. *)

val find : t -> int -> int
(** Scanner side: binary search over the published prefix
    ({!Ts_rt.search}, one shared read per probe); returns the index or
    [-1]. *)

val mark : t -> int -> unit
(** Scanner side: mark entry [i] as still referenced. *)

val is_marked : t -> int -> bool

val entry : t -> int -> int

val sweep : ?ignore_marks:bool -> t -> (int -> unit) -> int
(** Reclaimer side: call [f] on every unmarked entry, in entry order,
    compact the marked ones to the front ({!Ts_rt.sweep}) as the next
    phase's carry-over, reset the staged count to the carry-over size, and
    return the number of entries carried over.  Crash-safe ordering: the
    buffer is made consistent (compacted, count hidden) {e before} the
    first [f] call, so a reclaimer that dies mid-sweep can leak a bounded
    number of entries but never double-free or resurrect one.
    [ignore_marks] (default [false]) treats every entry as unmarked — the
    checker's {e deliberately wrong} sweep used to validate that the
    concurrency checker catches a skipped carry-over. *)

val renew_scratch : t -> unit
(** Give the master fresh private arrays for sorting and sweeping.  A
    reclaimer that takes the phase over from a stale one calls it: the
    stale reclaimer is killed at its next op, but until then may still be
    sorting in the arrays it holds. *)

val bounds : t -> int * int
(** [(lo, hi)] of the published prefix, for the scanner's cheap range
    filter; [(max_int, min_int)] when empty. *)
