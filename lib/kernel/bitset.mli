(** Packed boolean masks over [Bytes], operated on 64 bits at a time.

    Used by the CSR checker kernels for reachable sets, converged regions
    and subgraph restrictions.  The backing store is padded to whole
    8-byte words and the unused trailing bits are kept zero, so {!count},
    {!equal} and the set operations ({!union}, {!inter}, {!diff},
    {!complement}) are word-wide, and {!iter_set_bits} skips empty words
    whole.

    {!set}/{!clear} are read-modify-writes of one byte, but the bulk
    operations touch whole words: concurrent writers must own disjoint
    {e word} ranges, i.e. parallel chunk boundaries over a shared bitset
    must be multiples of 64. *)

type t

val create : int -> t
(** All-false mask of the given length. *)

val full : int -> t
(** All-true mask of the given length. *)

val length : t -> int

val copy : t -> t
(** Fresh mask with the same bits. *)

val get : t -> int -> bool
val set : t -> int -> unit
val clear : t -> int -> unit

val count : t -> int
(** Number of set bits (SWAR popcount per word). *)

val iter_set_bits : t -> (int -> unit) -> unit
(** [iter_set_bits t f] applies [f] to the indices of the set bits in
    ascending order.  Zero words cost one comparison; nonzero words are
    peeled bit-by-bit with a count-trailing-zeros step. *)

val members : t -> int list
(** Indices of the set bits, ascending. *)

val complement : t -> t
(** Fresh mask with every bit flipped. *)

val union : t -> t -> t
(** Word-wise [lor] into a fresh mask.  Raises [Invalid_argument] when
    the lengths differ (likewise {!inter}, {!diff}, {!union_into}). *)

val inter : t -> t -> t
(** Word-wise [land] into a fresh mask. *)

val diff : t -> t -> t
(** [diff a b]: bits set in [a] but not in [b], in a fresh mask. *)

val union_into : into:t -> t -> unit
(** In-place word-wise [lor] — the deterministic merge step for
    per-chunk masks produced by a parallel sweep. *)

val of_bool_array : bool array -> t
val to_bool_array : t -> bool array

val equal : t -> t -> bool
