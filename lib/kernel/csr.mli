(** Compressed sparse row adjacency: a flat [targets] store plus a
    [row_ptr] store, both in four-byte {!Lane}s.

    Row [i] occupies offsets [row_ptr.(i), row_ptr.(i+1)) of [targets];
    rows are sorted ascending and deduplicated (the {!Explicit}
    construction invariant).  This is the shared graph type of every
    checker kernel; {!Explicit} stores its transition relation in this
    form and hands it out as a zero-copy view.

    A graph holds at most {!Lane.max_lanes} ([2^31 - 1]) states and as
    many edges, so every index and offset fits a lane.  Either store may
    run past its last lane in use ([row_ptr] past lane [num_states],
    [targets] past lane [num_edges]); that slack is uninitialised and
    nothing reads it.

    Lives in [Cr_kernel], shared by the semantics compiler and every
    checker kernel. *)

type t

val num_states : t -> int
val num_edges : t -> int

val degree : t -> int -> int
(** Out-degree of a state: O(1). *)

val row : t -> int -> int array
(** Copy of one successor row (allocates; prefer {!iter_row}/{!kth} in
    hot loops). *)

val kth : t -> int -> int -> int
(** [kth t i k] is the [k]-th successor of [i] (0-based); raises
    [Invalid_argument] outside the row. *)

val iter_row : t -> int -> (int -> unit) -> unit
val iter_edges : t -> (int -> int -> unit) -> unit

val mem : t -> int -> int -> bool
(** Edge membership by binary search in the sorted row: O(log degree). *)

type source = { states : int; reader : unit -> int -> (int -> unit) -> unit }
(** A graph's successors without a stored graph: the interface of the
    passes that need each state's row once (the settle pass, the
    stabilization sweep).  [reader ()] makes a reader with private
    scratch, one per domain, and [read i f] calls [f j] on every
    successor [j] of state [i] in ascending order, each once: the row
    {!row} would copy.  [Explicit.source] gives a compiled graph's,
    which reads its CSR once that is built and otherwise re-runs the
    compile's emitter on the state. *)

val source : t -> source
(** The source that reads this graph's rows. *)

val of_rows : int array array -> t
(** Flatten per-state rows (each sorted, deduplicated). *)

val unsafe_of_lanes : states:int -> row_ptr:Bytes.t -> targets:Bytes.t -> t
(** Adopt raw lane stores without copying or checking.  The caller owns
    the full invariant: [row_ptr] holds at least [states + 1] lanes,
    nondecreasing from 0 to the edge count [m], [targets] at least [m]
    lanes, and every row is sorted ascending and deduplicated.  Lanes
    past those may hold anything.  For the compile's and the sparse
    discovery's constructions only. *)

val transpose : t -> t
(** Predecessor graph; rows stay sorted. *)

val filter : t -> (int -> int -> bool) -> t
(** [filter t keep] is the subgraph of the edges [(i, j)] with [keep i j]
    (same states; rows keep their sorted order).  [keep] is called
    twice per edge. *)

val restrict : t -> Bitset.t -> t
(** Subgraph induced by the masked states (rows of unmasked states are
    empty, surviving rows keep only masked targets). *)

val equal : t -> t -> bool
(** Same states, row pointers and targets, compared over the lanes in
    use only. *)

val row_ptr : t -> Bytes.t
(** The raw offset lanes: lane [i] is where row [i] starts, lane
    [num_states] the edge count.  Read them with {!Lane.get32u} (lane
    [k] at byte [4 * k]).  Read-only: exposed for allocation-free
    kernels; mutating it is undefined behaviour. *)

val targets : t -> Bytes.t
(** The raw flat edge lanes, lanes [0 .. num_edges - 1] in use.
    Read-only, as {!row_ptr}. *)
