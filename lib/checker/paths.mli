(** BFS shortest paths and DAG longest paths over CSR graphs. *)

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

exception Cyclic

val longest_within : succ:Cr_kernel.Csr.t -> mask:Cr_kernel.Bitset.t -> int array
(** [longest_within ~succ ~mask] gives, for each masked state, the maximum
    number of consecutive transitions that remain inside the masked region
    starting there.  Raises {!Cyclic} if the masked subgraph has a cycle.
    This is the exact worst-case convergence time when [mask] is the set of
    illegitimate states of a stabilizing system. *)
