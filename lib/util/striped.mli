(** Striped counters: a shared count that concurrent bumpers do not
    serialise on.

    One line-isolated atomic cell per domain slot.  {!add} bumps the
    calling domain's cell; {!sum} adds every cell.  Two domains whose
    ids share a slot still count exactly (the cell is atomic), they
    only share its cache line.  No backend op is involved: the slot
    comes from the OCaml domain id, not from {!Ts_rt.self}, so a bump is
    never a scheduling point of the simulator. *)

type t

val create : unit -> t

val add : t -> int -> unit
(** [add t n] adds [n] to the calling domain's cell. *)

val sum : t -> int
(** The total of every cell.  Exact once the bumpers are joined; read
    while they run it may miss bumps still in flight. *)
