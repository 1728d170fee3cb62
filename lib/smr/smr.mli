(** Scheme-neutral interface to safe-memory-reclamation schemes.

    Every reclaimer in the repository — ThreadScan and all the baselines the
    paper evaluates against — is packaged as a value of type {!t}.  Data
    structures are written once against this interface; the scheme decides
    what each hook costs:

    - Leaky and ThreadScan make every hook except [retire] free — that is
      the paper's "automatic" property: the data structure only hands nodes
      to [retire].
    - Hazard pointers pay a store + fence in [protect] on every traversal
      step.
    - Epoch-based schemes pay two counter writes per operation in
      [op_begin]/[op_end].

    All hooks implicitly act on the calling simulated thread
    ({!Ts_rt.self}). *)

type counters = private {
  mutable retired : int;  (** snapshot: nodes handed to [retire] *)
  mutable freed : int;  (** snapshot: nodes actually released to the allocator *)
  mutable cleanups : int;  (** snapshot: reclamation phases / scans executed *)
  retired_by : Ts_util.Striped.t;
  freed_by : Ts_util.Striped.t;
  cleanups_by : Ts_util.Striped.t;
}
(** The scheme's counters: three striped counts ({!Ts_util.Striped}),
    bumped through {!add_retired}, {!add_freed} and {!add_cleanups}.
    Read them with {!retired}, {!freed}, {!cleanups} and
    {!outstanding}.  The three mutable fields are only a snapshot of
    the sums, rewritten at every {!add_cleanups} and when [flush]
    returns; between those points they lag. *)

exception Neutralized
(** Raised inside a data-structure operation whose thread was neutralized
    by a scheme's signal handler (DEBRA+): the handler already unpinned
    the thread, so the operation must restart from its
    {!Ts_ds.Set_intf.wrap} bracket {e without} calling [op_end]. *)

(** When may a thread legally touch a word of a retired-but-not-freed
    block?  Declared by the scheme so analysis tools (the lifecycle
    sanitizer) need no per-scheme special cases. *)
type retired_access =
  | Invisible
      (** readers are invisible by design: any access is legal until the
          free (ThreadScan, leaky, StackTrack, Hyaline) *)
  | Protected_slots  (** only while a protect slot covers the block *)
  | In_op  (** only between [op_begin] and [op_end] (epoch family, DEBRA+) *)

type t = {
  name : string;
  thread_init : unit -> unit;
      (** Must be called by each participating thread before its first
          operation (registers the thread with the scheme). *)
  thread_exit : unit -> unit;
      (** Must be called by each participating thread after its last
          operation. *)
  op_begin : unit -> unit;  (** Start of a data-structure operation. *)
  op_end : unit -> unit;  (** End of a data-structure operation. *)
  protect : slot:int -> int -> int;
      (** [protect ~slot p] announces that the calling thread is about to
          dereference pointer [p]; returns [p].  [slot] distinguishes the
          hand-over-hand positions (prev/cur/next).  No-op for schemes with
          invisible readers. *)
  release : slot:int -> unit;  (** Clears a protection slot. *)
  retire : int -> unit;
      (** [retire p] hands an unlinked node to the scheme.  [p] is a pointer
          value ({!Ts_umem.Ptr}); tag bits are ignored.  The scheme frees the
          node once it can prove no thread still holds a reference. *)
  flush : unit -> unit;
      (** Drive reclamation to quiescence.  Called after all worker threads
          have exited, from the coordinating thread; afterwards every
          reclaimable retired node must have been freed. *)
  counters : counters;
  extras : unit -> (string * int) list;
      (** Scheme-specific statistics (signals sent, phases, marked nodes…). *)
  retired_access : retired_access;
      (** The scheme's contract for touching retired-but-unfreed blocks. *)
}

val make :
  name:string ->
  ?thread_init:(unit -> unit) ->
  ?thread_exit:(unit -> unit) ->
  ?op_begin:(unit -> unit) ->
  ?op_end:(unit -> unit) ->
  ?protect:(slot:int -> int -> int) ->
  ?release:(slot:int -> unit) ->
  ?flush:(unit -> unit) ->
  ?extras:(unit -> (string * int) list) ->
  ?retired_access:retired_access ->
  retire:(counters -> int -> unit) ->
  unit ->
  t
(** Builds a scheme with no-op defaults for the omitted hooks (and
    [Invisible] retired-access semantics).  [retire] receives the shared
    counters record (and must bump [retired] itself, which keeps
    accounting decisions inside the scheme). *)

val pp : Format.formatter -> t -> unit
(** One-line summary: name plus counters and extras. *)

(** {1 Counters}

    A scheme bumps its counters through {!add_retired}, {!add_freed}
    and {!add_cleanups}, never by field assignment.  A bump is one
    atomic add on the calling domain's cell of a striped counter: it
    takes no lock and is no backend operation, so on the simulator it is
    not a scheduling point and on native domains concurrent retire and
    free paths neither serialise nor lose updates.  A bump is no
    happens-before edge either.

    The accessors sum the cells.  They are exact once the bumping
    threads are joined (a crashed thread's bumps count too), which is
    when the leak oracle ([outstanding = retired - freed]) reads them.
    Read mid-run from another domain, as the chaos monitor and tsperf's
    garbage sampler do, a sum may miss bumps still in flight. *)

val add_retired : counters -> int -> unit
val add_freed : counters -> int -> unit

val add_cleanups : counters -> int -> unit
(** Also rewrites the snapshot fields of {!counters}. *)

val retired : t -> int
val freed : t -> int
val cleanups : t -> int

val outstanding : t -> int
(** [retired - freed], reading [freed] first, so a mid-run read never
    comes out negative. *)
