(** Deterministic SplitMix64 pseudo-random number generator.

    Every source of randomness in the repository goes through this module so
    that a run is a pure function of its seed.  The generator is the standard
    SplitMix64 of Steele, Lea and Flood, truncated to OCaml's 63-bit [int]. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] makes a fresh generator.  Equal seeds yield equal
    streams. *)

val copy : t -> t
(** Independent copy that will produce the same future stream. *)

val raw_state : t -> int64
(** The exact internal state word, for snapshotting / state digests. *)

val set_raw_state : t -> int64 -> unit
(** Rewind the generator to a state previously read with {!raw_state}. *)

val split : t -> t
(** [split t] derives a statistically independent child generator and
    advances [t].  Used to give each simulated thread its own stream. *)

val next : t -> int
(** Next raw 63-bit non-negative value. *)

val below : t -> int -> int
(** [below t n] is uniform in [\[0, n)].  Requires [n > 0]. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform in [\[lo, hi\]] inclusive. *)

val bool : t -> bool

val float : t -> float
(** Uniform in [\[0, 1)]. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)
