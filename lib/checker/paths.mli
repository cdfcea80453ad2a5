(** BFS shortest paths over CSR graphs, and the forward pass that
    settles which states reach a set and how long a run can stay among
    them, over a successor source ({!Cr_kernel.Csr.source}). *)

type oracle
(** The BFS distance rows of a fixed batch of sources over a fixed
    graph, computed once; read-only afterwards, so domains may share
    it. *)

val oracle : succ:Cr_kernel.Csr.t -> sources:int array -> oracle
(** BFS from every source in [sources], one entry per upcoming query
    (duplicates expected; each distinct source is searched once).
    Distinct sources are searched in parallel through [Par] (one chunk
    at CR_JOBS = 1); the hit/miss accounting matches querying the batch
    in order through a memo, so merged counters are CR_JOBS-invariant. *)

val distance : oracle -> src:int -> dst:int -> int
(** BFS distance from [src] to [dst], or [-1] when unreachable.  A pure
    lookup.  Raises [Invalid_argument] when [src] was not in the
    oracle's batch. *)

val shortest_path : succ:Cr_kernel.Csr.t -> src:int -> dst:int -> int list option
(** One shortest path, inclusive of endpoints ([src = dst] gives [[src]]). *)

type settled = {
  reaches : Cr_kernel.Bitset.t;  (** the states that reach [bad], inclusive *)
  depth : Bytes.t option;
      (** [None] when a cycle lies among [reaches]; otherwise one
          four-byte {!Cr_kernel.Lane} per state (state [i]'s at byte
          [4 * i]): for a state of [reaches], the most transitions a run
          can take while it stays in [reaches] (the one that leaves
          counts), and 0 elsewhere *)
  terminal : int option;
      (** the least state of [reaches] with no successor: the least
          state of [bad] with an empty row *)
}

val settle : succ:Cr_kernel.Csr.source -> bad:Cr_kernel.Bitset.t -> settled
(** One forward Tarjan pass that reads each state's row once, from a
    successor source ({!Cr_kernel.Csr.source} of a stored graph, or
    [Cr_semantics.Explicit.source], which need not build one): no
    transpose, and one resident four-byte lane per state (after
    Pearce's space-efficient SCC algorithm): each state's DFS number,
    lowered in place to its low-link, then a settled mark carrying its
    depth, then — after one final pass — its depth, which is the lane
    returned.  The Tarjan stack and the DFS frames are four more lanes,
    uninitialised until the search goes that deep, and the rows of the
    states on the DFS path sit on an edge stack that grows as deep as
    the search goes.  When [bad] is a stabilization check's bad seeds,
    [reaches] is the complement of the converged region, the largest
    depth is the exact worst-case convergence time, and [terminal] a
    deadlock outside it.  Raises [Invalid_argument] when the mask's
    length is not the source's state count. *)
