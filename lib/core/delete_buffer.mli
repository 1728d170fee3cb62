(** Per-thread delete buffer (§4.2 "Reclamation").

    A single-reader/single-writer circular buffer in unmanaged memory: the
    owning thread pushes retired pointers at the head; the (unique, lock
    protected) reclaimer drains from the tail.  Head and tail are
    monotonically increasing counters, so no flag is needed to distinguish
    full from empty, and under the simulator's sequentially consistent
    memory the slot write happening before the head bump is all the
    synchronisation required. *)

type t

val create : capacity:int -> t
(** Allocates the buffer region (inside the simulator). *)

val capacity : t -> int

val push : t -> int -> bool
(** Owner side.  [push t p] appends pointer value [p]; returns [false]
    (without writing) when the buffer is full. *)

val size : t -> int
(** Owner-or-reclaimer estimate of current occupancy. *)

val drain : t -> (int -> bool) -> unit
(** Reclaimer side.  [drain t f] feeds buffered pointers to [f] in FIFO
    order and consumes them; stops early (leaving the rest buffered) when
    [f] returns [false]. *)
