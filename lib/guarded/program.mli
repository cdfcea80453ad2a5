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
(** Raises [Invalid_argument], naming the action, on a slot outside
    [layout]. *)

val name : t -> string
val layout : t -> Layout.t
val actions : t -> Action.t list
val initial : t -> state -> bool
val rename : string -> t -> t
val with_initial : (state -> bool) -> t -> t

val with_actions : Action.t list -> t -> t
(** Replace the action list (e.g. to test daemon order-sensitivity by
    reordering).  Raises [Invalid_argument] like {!make}. *)

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
    latter to {!to_explicit} as [priority_of]. *)

val firings : t -> state -> (Action.t * state) list
(** All (action, successor) pairs at a state; no-op firings dropped. *)

val step : t -> state -> state list

val to_explicit :
  ?priority_of:(Action.t -> bool) ->
  ?roots:int array ->
  ?space:Cr_semantics.Space.engine ->
  t ->
  state Cr_semantics.Explicit.t
(** Compile to the explicit graph through a {!Cr_semantics.Space}
    engine.  The default [Dense] engine sweeps the full product space in
    mixed-radix rank order over one scratch state
    ({!Layout.iter_range}), appending each state's sorted successor
    ranks straight into the graph, and never holds the states
    themselves; [Sparse]
    materializes only the fragment reachable from the initial states
    (a frontier BFS that numbers dense ranks compactly and builds the
    CSR as it goes, {!Cr_semantics.Space.discover}) —
    sound for every init-anchored query because the fragment is closed
    under successors, and the scaling move for refine/graybox checks
    whose dense space will not fit.  Callers that honour the [CR_SPACE]
    override resolve it via {!Cr_semantics.Space.resolve}; this
    function itself never reads the environment.

    Where a sparse discovery starts:
    - [?roots] (dense ranks, {!Layout.rank}; any order, duplicates
      allowed) replaces the initial states as the seed set and leaves
      the initial predicate alone: the graph is the forward closure of
      the roots, with the program's own initial states marked in it.
      This is how a refinement compiles the spec's α-closure.  The
      dense engine ignores [roots].
    - Otherwise a program whose initial states are the closure of
      {!closure_seeds} under its own actions, compiled without
      [priority_of], is discovered from those seeds alone: the result
      is the closure itself, renumbered in ascending rank (the order a
      discovery from the whole closure gives) and marked initial
      throughout without forcing the predicate.  Boxed programs
      ({!box}, {!box_priority}), {!with_actions}, [priority_of] and
      {!to_explicit_synchronous} step by another relation than the one
      the closure was taken over, so they seed from the whole closure.
    - Otherwise the initial states themselves: a closure program's
      whole closure, anything else found by one predicate scan over
      Sigma.

    Either way the per-state loop builds no state: per action a guard
    test, then the successor's rank from the state's own plus
    [(v - s.(x)) * weight x] per assignment [x := v], each [v] checked
    against its domain.  It is
    domain-chunked under the [CR_JOBS] contract of {!Cr_kernel.Par} —
    identical output for every job count (the guards and right-hand
    sides may run on several domains at once).  The compile does not
    evaluate the initial predicate: the graph keeps it and sweeps it on
    the first use of its initial states
    ({!Cr_semantics.Explicit.initials}), so a stabilization check, which
    never reads them, never calls it.

    Raises {!Cr_semantics.Space.Too_large} before any work when the
    engine cannot index the layout: [Dense] past [2^31 - 1] states or
    past [2^31 - 1] reserved edge lanes (one per action per state, one
    per state under the synchronous semantics), either engine once
    {!Layout.num_states} saturates (ranks no longer fit an [int]).  A
    sparse discovery raises it past [2^31 - 1] discovered states or
    edges.

    Compiles are not memoized: every call builds a fresh graph of this
    program, so no two programs can share a graph by a colliding key.
    A caller that asks several questions of one program compiles it
    once and passes the graph along.  A step that leaves Sigma raises
    only from a state the compile visits.

    Every compile is one [compile] span whose fields give the engine,
    the state and transition counts and the product-space size; a
    sparse compile also gives [seeds] ([initial], [closure] or
    [roots]). *)

val clear_compile_cache : unit -> unit
(** A no-op: there is no compile cache, and no verdict memo either.
    Kept only because [scenario_bench/replay.ml] resets every cache
    before a measured run (as it calls the no-op
    [Cr_core.Check_cache.clear_all]). *)

val synchronous_step : t -> state -> state option
(** One synchronous (distributed-daemon) step: every process with an
    enabled action fires simultaneously, guards reading the old state and
    the assigned slots merged.  [None] at fixpoints. *)

val to_explicit_synchronous :
  ?space:Cr_semantics.Space.engine -> t -> state Cr_semantics.Explicit.t
(** Explicit graph of the synchronous semantics; chunked and
    space-routed like {!to_explicit}. *)

val action_tables : t -> state Cr_semantics.Explicit.t -> int array array
(** [tables.(a).(i)]: where action [a] (by position in {!actions})
    leads from state [i] of a compile of the program, by rank delta;
    [-1] where it is disabled, a no-op, or leaves the graph. *)

val reachable_from : t -> state list -> unit Layout.Tbl.t
(** All states reachable from the seeds under the program's transitions,
    domain-invalid successors included. *)

val with_initial_closure : seeds:state list -> t -> t
(** Replace the initial states by the (lazily computed) reachability
    closure of [seeds] — the orbit of canonical legitimate
    configurations.  The sparse engine of {!to_explicit} seeds its BFS
    from [seeds] (see {!closure_seeds}) or from the closure instead of
    scanning Sigma for the predicate.  The closure is computed once, on
    first use (one [closure] span with a [states] field), under a lock,
    so the predicate is safe to call from several domains. *)

val closure_seeds : t -> state list option
(** [Some seeds] when the initial states are the closure of [seeds]
    under the program's own action list: a {!with_initial_closure}
    program whose actions {!box} or {!with_actions} have not replaced
    since.  A sparse {!to_explicit} without [priority_of] then
    discovers the closure from [seeds] alone. *)

val closure_states : t -> state list option
(** [Some states] when the initial states are a {!with_initial_closure}
    closure, {!box}ed or not: its domain-valid states in ascending rank,
    the set (and order) a predicate sweep over Sigma finds, enumerated
    from the closure instead.  [None] for any other initial predicate. *)

val initial_states : t -> state list
(** The initial states in ascending rank: {!closure_states} for a
    closure program, else one sweep of the initial predicate over
    Sigma.  The seeds of lint's exact reachable set and of flow's init
    abstraction. *)

val pp : Format.formatter -> t -> unit
