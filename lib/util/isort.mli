(** Sorting and searching over [int array] prefixes.

    The master delete buffer is a fixed array with a live prefix; these
    helpers work on that prefix in place. *)

val sort_prefix : ?tmp:int array -> int array -> int -> unit
(** [sort_prefix a n] sorts [a.(0) .. a.(n-1)] ascending (in place; an
    LSD radix sort that allocates an [n]-word scratch array, or uses
    [tmp]'s first [n] words when given, leaving them unspecified).
    @raise Invalid_argument if [n] exceeds the length of [a], or, when
    [n > 1], that of [tmp], or [tmp] is [a]. *)

val binary_search : int array -> int -> int -> int
(** [binary_search a n key] returns the index of [key] within the sorted
    prefix [a.(0) .. a.(n-1)], or [-1] when absent. *)

val dedup_sorted : int array -> int -> int
(** [dedup_sorted a n] compacts consecutive duplicates in the sorted prefix
    and returns the new prefix length. *)
