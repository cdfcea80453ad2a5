(** A table numbering non-negative [int] keys: the first key interned
    gets 0, the next new one 1, and so on.  It is the sparse discovery's
    state index (dense rank to sparse index,
    [Cr_semantics.Space.discover]) and the distinct α-images of a
    refinement's sweep.  Open addressing over one flat [int array]: an
    {!intern} or a {!find} hashes no boxed value and allocates nothing
    unless the table grows. *)

type t

val create : int -> t
(** [create expected]: an empty table sized for [expected] keys (it
    grows past them). *)

val count : t -> int
(** The number of keys interned so far. *)

val intern : t -> int -> int
(** [intern t k] (for [k >= 0]): the number bound to [k], binding
    {!count} first when [k] is new. *)

val find : t -> int -> int
(** The number bound to [k], or [-1] when [k] is unbound or negative. *)

val keys : t -> int array
(** Every key, at the position of its number (before any {!renumber}). *)

val renumber : t -> (int -> int) -> unit
(** [renumber t f] rebinds every key [k] from its number [v] to
    [f v]. *)
