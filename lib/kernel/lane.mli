(** Fixed-width integer lanes in [Bytes]: the half-width store of the
    CSR graphs ({!Csr}), the α-tables
    ([Cr_semantics.Abstraction.tabulate]), the settle pass's lane
    ({!Cr_checker.Paths.settle}) and the read/write-set codes of
    [Cr_lint.Rwsets].

    A lane of [u] bytes holding value [k] sits at byte offset [u * k]
    and is read and written in native byte order.  The primitives are
    declared here, once, as [external]s: the compiler expands an
    external at the call site (a single load or store), where a call to
    a function of another module stays a call under [-opaque].  Hot
    loops therefore read a four-byte lane as
    [Int32.to_int (Lane.get32u b (4 * k))], usually through a one-line
    [[@inline]] helper local to their own module.  None of them checks
    bounds.

    A four-byte lane is read signed: it holds any value in
    [[-2^31, 2^31)], so indices and offsets up to {!max_lanes} as well as
    small negative markers. *)

external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external get32u : Bytes.t -> int -> int32 = "%caml_bytes_get32u"
external set32u : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32u"
external get16u : Bytes.t -> int -> int = "%caml_bytes_get16u"
external set16u : Bytes.t -> int -> int -> unit = "%caml_bytes_set16u"

val max_lanes : int
(** [2^31 - 1]: the largest count of four-byte lanes a graph may hold,
    and so the largest state and edge count; every index and offset
    below it fits a lane. *)

val create : int -> Bytes.t
(** [create n]: [n] four-byte lanes, uninitialised.  Only the pages a
    caller writes become resident, so a reservation that is never
    filled costs address space, not memory. *)

val make : int -> int -> Bytes.t
(** [make n v]: [n] four-byte lanes, each holding [v]. *)

val length : Bytes.t -> int
(** The number of four-byte lanes a store holds (its bytes over 4). *)

val of_array : int array -> Bytes.t
(** One lane per element, in order; every element must fit a lane. *)

val to_array : Bytes.t -> int array
(** Every lane of the store, in order. *)

val get : Bytes.t -> int -> int
(** [get b k]: four-byte lane [k], for code off the hot path (a call per
    read under [-opaque]). *)

val set : Bytes.t -> int -> int -> unit
(** [set b k v]: writes [v] to four-byte lane [k]. *)
