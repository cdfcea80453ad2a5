(** Strongly connected components (iterative Tarjan over a CSR graph)
    and cycle queries.

    Graphs here never contain self-loops (explicit systems drop them), so a
    state lies on a cycle iff its component has at least two states.  To
    ask about a subgraph induced by a mask, compute over
    {!Cr_kernel.Csr.restrict}. *)

type t = {
  component : int array;  (** state index -> component id *)
  count : int;  (** number of components *)
  sizes : int array;  (** component id -> size *)
}

val compute : Cr_kernel.Csr.t -> t
(** Components numbered in Tarjan completion order; the DFS starts
    from states in ascending order and visits each row's successors in
    their sorted order, so the numbering is a function of the graph. *)

val on_cycle : t -> int -> bool
(** Is the state on some cycle? *)

val edge_on_cycle : t -> int -> int -> bool
(** Are both endpoints in the same component (so the edge closes a
    cycle)? *)
