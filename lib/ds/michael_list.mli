(** Lock-free sorted linked list (Harris 2001, in Michael's 2002
    hazard-pointer-compatible formulation) — the paper's first benchmark
    structure and the bucket list of its hash table.

    Nodes are [key; value; next(+mark bit); padding…] blocks in unmanaged
    memory.  Logical deletion sets the mark bit in [next]; traversals unlink
    marked nodes and [retire] them through the reclamation scheme.  Every
    hop protects the new node ([Smr.protect], a fence under hazard
    pointers, free elsewhere) and re-validates [prev.next == cur] before
    trusting it — the discipline that makes the traversal safe under every
    scheme in the repository, ThreadScan included.

    The list is also usable as a bucket: all operations exist in a variant
    taking an explicit head-cell address. *)

val node_words : padding:int -> int
(** Size of a node block given extra [padding] words (the paper pads list
    nodes to 172 bytes ≈ 19 extra words to fight false sharing). *)

val create : smr:Ts_smr.Smr.t -> ?padding:int -> ?retire_early:bool -> unit -> Set_intf.t
(** A standalone list with its own head cell.  [padding] defaults to 0.
    [retire_early] (default false) seeds a deliberate bug for the
    analyzer's test suite: [remove] retires the node right after marking
    it, while the predecessor still links to it — the
    retire-before-unlink transition the {!Ts_analyze} lifecycle automaton
    must flag. *)

(** {1 Bucket interface} — operations on a list hanging off an arbitrary
    head cell (used by {!Hash_table}).  These do NOT bracket themselves
    with [op_begin]/[op_end]; the caller does. *)

val insert_at : smr:Ts_smr.Smr.t -> padding:int -> head:int -> int -> int -> bool

val insert_node_at :
  smr:Ts_smr.Smr.t -> padding:int -> head:int -> int -> int -> int * bool
(** Like {!insert_at} but returns [(node, inserted)] where [node] is the
    pointer to the (new or already-present) node with that key.  Used by
    {!Split_hash} to install bucket dummy nodes, which are never retired —
    holding the returned pointer is only safe for such immortal nodes. *)

val remove_at : smr:Ts_smr.Smr.t -> ?retire_early:bool -> head:int -> int -> bool

val contains_at : smr:Ts_smr.Smr.t -> head:int -> int -> bool

val to_list_at : head:int -> (int * int) list

val check_at : head:int -> unit
