(** Compressed sparse row adjacency: flat [targets] + [row_ptr] arrays.

    Row [i] occupies offsets [row_ptr.(i), row_ptr.(i+1)) of [targets];
    rows are sorted ascending and deduplicated (the {!Explicit}
    construction invariant).  This is the shared graph type of every
    checker kernel; {!Explicit} stores its transition relation in this
    form and hands it out as a zero-copy view.

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
(** [kth t i k] is the [k]-th successor of [i] (0-based, no bounds
    check beyond the array's own). *)

val iter_row : t -> int -> (int -> unit) -> unit
val iter_edges : t -> (int -> int -> unit) -> unit

val mem : t -> int -> int -> bool
(** Edge membership by binary search in the sorted row: O(log degree). *)

val of_rows : int array array -> t
(** Flatten per-state rows (each sorted, deduplicated). *)

val unsafe_of_raw : row_ptr:int array -> targets:int array -> t
(** Adopt raw arrays without copying or checking.  The caller owns the
    full invariant: [row_ptr] has length n+1 and is nondecreasing from 0
    to [Array.length targets], and every row is sorted ascending and
    deduplicated.  For internal flat-merge constructions only. *)

val to_rows : t -> int array array
(** Inverse of {!of_rows} (copies every row). *)

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

val row_ptr : t -> int array
(** The raw offset array (length [num_states + 1]).  Read-only: exposed
    for allocation-free kernels; mutating it is undefined behaviour. *)

val targets : t -> int array
(** The raw flat edge array.  Read-only, as {!row_ptr}. *)
