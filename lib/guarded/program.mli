(** Guarded-command programs: the substrate for every system in the paper.

    A program is a set of guarded actions over a {!Layout}; its semantics
    is the finite automaton whose transitions are all state-changing
    firings of enabled actions (interleaving / serial daemon). *)

type state = Layout.state

type t

val make :
  name:string ->
  layout:Layout.t ->
  actions:Action.t list ->
  initial:(state -> bool) ->
  t

val name : t -> string
val layout : t -> Layout.t
val actions : t -> Action.t list
val initial : t -> state -> bool
val rename : string -> t -> t
val with_initial : (state -> bool) -> t -> t

val with_actions : Action.t list -> t -> t
(** Replace the action list (e.g. to test daemon order-sensitivity by
    reordering). *)

val procs : t -> int list
(** The distinct owning processes (>= 0) of the actions, sorted; global
    wrapper actions (proc -1) are not listed. *)

val same_layout : t -> t -> bool

val box : ?name:string -> t -> t -> t
(** The paper's [] operator: union of the action sets over a common
    layout; initial states come from the left operand. *)

val box_list : ?name:string -> t -> t list -> t
(** [box_list base [w1; w2; ...]] = [base [] w1 [] w2 [] ...]. *)

val box_priority : ?name:string -> t -> t -> t * (Action.t -> bool)
(** Composition where the wrapper's actions preempt the base program.
    Returns the combined program and the wrapper predicate; pass the
    latter to {!to_system}/{!to_explicit} as [priority_of]. *)

val enabled_actions : t -> state -> Action.t list

val firings : t -> state -> (Action.t * state) list
(** All (action, successor) pairs at a state; no-op firings dropped. *)

val step : t -> state -> state list

val to_system :
  ?priority_of:(Action.t -> bool) -> t -> state Cr_semantics.System.t

val to_explicit :
  ?priority_of:(Action.t -> bool) ->
  ?space:Cr_semantics.Space.engine ->
  t ->
  state Cr_semantics.Explicit.t
(** Compile to the explicit graph through a {!Cr_semantics.Space}
    engine.  The default [Dense] engine enumerates the full product
    space through the layout's mixed-radix rank/unrank; [Sparse]
    materializes only the fragment reachable from the initial states
    (frontier BFS hash-consing dense ranks into a compact index) —
    sound for every init-anchored query because the fragment is closed
    under successors, and the scaling move for refine/graybox checks
    whose dense space will not fit.  Callers that honour the [CR_SPACE]
    override resolve it via {!Cr_semantics.Space.resolve}; this
    function itself never reads the environment.

    Either way the per-state loop iterates actions directly (guard,
    effect, rank) with no intermediate firing lists, and is
    domain-chunked under the [CR_JOBS] contract of {!Cr_kernel.Par} —
    identical output for every job count.

    Compiles are memoized in a process-wide
    {!Cr_semantics.Compile_cache} keyed by a content-addressed
    fingerprint (execution mode, layout, per-action metadata, and a
    semantic successor probe over up to 256 evenly spread states) plus
    an engine tag, so dense and sparse graphs can never alias; the
    sparse key also folds the seed-rank set, since a sparse graph
    depends on its BFS roots.  On a dense hit the cached graph is
    re-targeted to this program's name and initial predicate.
    [CR_COMPILE_CACHE=0] disables the cache. *)

val compile_fingerprint : ?priority_of:(Action.t -> bool) -> t -> string
(** The content-addressed cache key {!to_explicit} would use for this
    program (diagnostics and tests): a digest of the execution mode,
    layout, action metadata and the semantic successor probe. *)

val clear_compile_cache : unit -> unit
(** Empty the process-wide compile cache (tests and benchmarks that need
    cold-compile behaviour or counter isolation). *)

val synchronous_step : t -> state -> state option
(** One synchronous (distributed-daemon) step: every process with an
    enabled action fires simultaneously, guards reading the old state and
    the declared [writes] merged.  [None] at fixpoints. *)

val to_system_synchronous : t -> state Cr_semantics.System.t
(** The (deterministic) synchronous semantics as a system. *)

val to_explicit_synchronous :
  ?space:Cr_semantics.Space.engine -> t -> state Cr_semantics.Explicit.t
(** Explicit graph of the synchronous semantics; chunked, memoized and
    space-routed like {!to_explicit} (the cache key's mode tag keeps the
    two semantics of one program distinct). *)

val reachable_from : t -> state list -> unit Layout.Tbl.t
(** All states reachable from the seeds under the program's transitions,
    domain-invalid successors included. *)

val with_initial_closure : seeds:state list -> t -> t
(** Replace the initial states by the (lazily computed) reachability
    closure of [seeds] — the orbit of canonical legitimate
    configurations.  The closure doubles as the program's initial-state
    enumerator, so the sparse engine of {!to_explicit} seeds its BFS
    from it directly instead of scanning Sigma for the predicate. *)

val pp : Format.formatter -> t -> unit
