(** TCMalloc-like allocator, written once over a word store.

    The paper's test bed used TCMalloc; this reproduces its structure at the
    level the experiments care about: per-thread magazines serve most
    allocations without touching shared state, a central free list per size
    class absorbs magazine overflow in batches, and fresh spans are carved
    from the store.  Every block carries a one-word header (invisible to the
    data plane) used to validate frees.

    {!Make} builds the allocator over any {!STORE}.  This module is its
    simulator instance over {!Mem}; [Ts_par.Heap] is the native one.  The
    allocator is control-plane: the simulator charges a lump cost per
    [malloc]/[free] rather than pricing its internal accesses. *)

include module type of struct
  include Alloc_intf
end

val cache_cap : int
(** Magazine bound per (thread, size class): 64 blocks. *)

val batch : int
(** Blocks per magazine refill or flush, and per central refill: 32. *)

module Make (Store : STORE) : S with type store = Store.t

include S with type store = Mem.t
