(** Refinement checkers — the paper's Section 2 relations, decided on
    explicit finite-state systems.

    All checkers accept an optional α-table [alpha] (from
    {!Cr_semantics.Abstraction.tabulate}, or [Registry.refining]'s rank
    sweep): one four-byte lane per concrete state holding the abstract
    index of its image.  It defaults to the identity (shared state
    space).  Each checker raises [Invalid_argument], naming itself, when
    the table's lane count is not [c]'s state count: every later read is
    an unchecked lane load.  Stuttering of the abstract image is treated
    as the paper's "τ steps": images are compared modulo consecutive
    repetition (DESIGN.md, section 2).

    The checkers are sound: [holds = true] implies the trace-theoretic
    relation.

    Verdicts are memoized in a content-addressed {!Cr_kernel.Memo} keyed
    ({!Check_cache.key}) on the relation, both systems' exact structure,
    the abstraction and the fairness tables — disable with [CR_CACHE=0],
    audit with [CR_CACHE_PARANOID=1].  Classification is chunked under
    [CR_JOBS] ({!Cr_kernel.Par}) with job-count-independent results. *)

type edge_class =
  | Stutter  (** the abstract image does not move *)
  | Exact  (** image edge is a transition of the abstract system *)
  | Compression of int
      (** images joined by a shortest abstract path of this length >= 2:
          the concrete system drops [length - 1] abstract states *)

type failure =
  | Initial_not_initial of int
  | Init_edge_not_exact of int * int
  | Edge_unmatched of int * int
  | Compression_on_cycle of int * int
  | Stutter_cycle of int
  | Terminal_not_terminal of int
  | Non_exact_on_cycle of int * int

val failure_state : failure -> int
(** The concrete state a failure is anchored at (the source of the
    failing edge, or the failing state itself). *)

val pp_failure :
  'c Cr_semantics.Explicit.t ->
  'a Cr_semantics.Explicit.t ->
  Format.formatter ->
  failure ->
  unit

type stats = {
  edges : int;
  exact : int;
  stutter : int;
  compressions : int;
  max_dropped : int;
}

type report = {
  holds : bool;
  stats : stats;
  failures : failure list;
      (** at most ten failures: the newest edge and stutter-cycle
          failures first (newest first), then the leading initial and
          the leading terminal failures (ascending).  Only these are
          kept while checking: a failing edge allocates nothing. *)
  total_failures : int;
      (** every failure found, [failures] or not: one per failed check
          of an edge or a state (an edge that fails two checks counts
          twice); [holds] iff it is 0.  {!pp_report} says "showing k of
          n" whenever [failures] is the shorter list *)
  concrete : string;
  abstract : string;
  relation : string;
  cost : Cr_obs.Obs.snapshot option;
      (** telemetry counters moved by this check on the calling domain
          ([Some] only while {!Cr_obs.Obs.tracking} — e.g. under
          [CR_STATS], [CR_TRACE], or the CLI's [--stats]) *)
}

val pp_report : Format.formatter -> report -> unit

type classified = {
  graph : Cr_kernel.Csr.t;  (** the concrete CSR the classes are for *)
  cls : edge_class option array;
      (** per-edge class at the edge's CSR offset, in
          [Explicit.iter_edges] order; [None] marks an unmatched edge *)
}

val iter_classified : classified -> (int -> int -> edge_class option -> unit) -> unit
(** Iterate the classified edges in order, walking [graph]'s rows:
    [f src dst class]. *)

val classify :
  alpha:Bytes.t ->
  c:'c Cr_semantics.Explicit.t ->
  a:'a Cr_semantics.Explicit.t ->
  classified * stats
(** Classify every concrete transition against the abstract system:
    one class per edge of [c]'s CSR, which the result carries.  One code
    path for every job count: a chunked
    stutter/exact sweep, one batched BFS oracle over the abstract graph
    for the remaining edges, and a chunked resolve against it.  A
    non-stutter, non-exact edge is [Some (Compression d)] when the
    abstract BFS distance between its images is [d >= 2], [None]
    (unmatched) otherwise. *)

val init_refinement :
  ?alpha:Bytes.t ->
  c:'c Cr_semantics.Explicit.t ->
  a:'a Cr_semantics.Explicit.t ->
  unit ->
  report
(** [[C ⊑ A]_init] — every computation of [c] from an initial state is a
    computation of [a]. *)

val everywhere_refinement :
  ?alpha:Bytes.t ->
  c:'c Cr_semantics.Explicit.t ->
  a:'a Cr_semantics.Explicit.t ->
  unit ->
  report
(** [[C ⊑ A]] — every computation of [c] is a computation of [a]. *)

val convergence_refinement :
  ?alpha:Bytes.t ->
  ?fair:Fair.tables ->
  c:'c Cr_semantics.Explicit.t ->
  a:'a Cr_semantics.Explicit.t ->
  unit ->
  report
(** [[C ⪯ A]] — the paper's convergence refinement: init-refinement plus
    every computation of [c] is a convergence isomorphism of some
    computation of [a].  With [?fair] (action tables for [c]) the
    computations of [c] are restricted to weakly fair ones. *)

val everywhere_eventually_refinement :
  ?alpha:Bytes.t ->
  ?fair:Fair.tables ->
  c:'c Cr_semantics.Explicit.t ->
  a:'a Cr_semantics.Explicit.t ->
  unit ->
  report
(** The more permissive relation of Section 7: an arbitrary finite prefix
    followed by a computation of [a]. *)
