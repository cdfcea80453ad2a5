(** Explicit, integer-indexed transition graphs.

    This is the workhorse representation used by the model checker and the
    refinement checkers.  States are indices [0..num_states-1]; the
    transition relation is stored as one flat {!Csr} graph whose rows are
    sorted ascending ({!csr} hands it out as a zero-copy view).  Self-loops
    are removed on construction: a step whose effect is the identity is
    stuttering and generates no transition (DESIGN.md, section 2).

    A system does not store its states.  It keeps the {!Space} it was
    compiled over: {!state}/{!find} go through the space's index
    bijection, and {!iter_states} sweeps it in index order — over a
    guarded-command layout an odometer advancing one scratch state, so a
    dense compile of the full product space holds at most its graph.
    Full-space consumers should sweep rather than call {!state} once per
    index.

    {!of_space} keeps its emitter, and the CSR is built from it on first
    use by an edge reader ({!csr}, {!successors}, {!has_edge},
    {!is_terminal}, {!num_transitions}, ...): one streamed pass,
    domain-chunked under the [CR_JOBS] contract of {!Par}.  It reserves
    [num_states * max_degree] four-byte target lanes, uninitialised,
    and splits the index range into contiguous chunks; each sweeps its
    range and writes its sorted, deduplicated rows straight into the
    targets from its own offset, and the gaps between chunks are then
    closed in place.  The targets are held once, and the reserved tail
    past the last edge is never written.  Row i depends only on i, so
    the result is identical for every job count (default 1 = the
    sequential path).  Until then {!source} reads a row by running the
    emitter on the state itself, so a pass that needs each row once (a
    stabilization check that holds) never builds the graph.  The sparse
    engine's discovery builds its CSR as it goes, and {!of_sparse}
    adopts it; {!box}, {!of_system} and {!of_edge_lists} build theirs
    at once.  A graph holds at most
    [2^31 - 1] states and as many reserved edge lanes
    ({!Cr_kernel.Lane.max_lanes}).

    Three parts are computed lazily, each once: the successor CSR, as
    above ({!succ_forced}); the initial states, swept from the kept
    predicate on the first {!is_initial}, {!initial_mask} or {!initials}
    call (a stabilization check never reads them); and the predecessor
    rows, on the first {!predecessors} or {!pred_csr} call (no checker
    on the verify or refine path needs them). *)

exception Unknown_state of string
(** Raised when a successor function escapes the enumerated state space, or
    {!find} is applied to a state outside Sigma. *)

type 'a t

val of_space :
  name:string ->
  space:'a Space.t ->
  max_degree:int ->
  step:(unit -> 'a -> int -> (int -> unit) -> unit) ->
  is_initial:('a -> bool) ->
  pp_state:(Format.formatter -> 'a -> unit) ->
  'a t
(** A graph over a {!Space} whose rows come from [step]: kept, and run
    by {!source} per row or by the streamed build on first use of the
    CSR.  [step () s i emit] must call [emit j] on the index of every
    successor of the state [s] at index [i] (in any order; duplicates
    and [j = i] are dropped when a row is read), at most [max_degree]
    times besides [j = i] (more raises [Invalid_argument]), reading [s]
    without retaining it, and raise {!Unknown_state} on a step that
    escapes the space.  The targets reserve [max_degree] lanes per
    state: past {!Cr_kernel.Lane.max_lanes} in all, or past that many
    states, this raises {!Space.Too_large} at once.  The [unit ->]
    stage is a per-reader factory, so an implementation may allocate
    private scratch.  [step] may run on several domains at once, and
    raises where a row is read.  [is_initial] is not called here: it
    is kept, and swept over the space (reading each state without
    retaining it) on the first use of the initial states, possibly on
    two domains at once.  The dense guarded-command engine passes its
    successor-rank emitter, run over the layout's odometer or on a
    state unranked into scratch. *)

val of_sparse :
  name:string ->
  'a Space.sparse ->
  is_initial:('a -> bool) ->
  pp_state:(Format.formatter -> 'a -> unit) ->
  'a t
(** The sparse engine's compile: the CSR its discovery BFS built
    ({!Space.discover}) is adopted as it is, over the discovered space,
    with no second pass over the states.  [is_initial] is kept, as for
    {!of_space}. *)

val of_system : 'a System.t -> 'a t
(** Compile a symbolic system.  Raises [Invalid_argument] on duplicate
    states in the enumeration and {!Unknown_state} if [step] escapes it. *)

val of_edge_lists :
  name:string ->
  states:'a array ->
  pp_state:(Format.formatter -> 'a -> unit) ->
  is_initial:('a -> bool) ->
  succ_lists:int list array ->
  'a t
(** Low-level constructor from adjacency lists (indices). *)

val name : _ t -> string
val num_states : _ t -> int
val num_transitions : _ t -> int
val state : 'a t -> int -> 'a
(** The state at an index, produced by the space (for the dense engine a
    fresh {!Cr_guarded.Layout.unrank}).  Raises [Invalid_argument] out of
    range. *)

val iter_states : 'a t -> (int -> 'a -> unit) -> unit
(** [iter_states t f] calls [f i (state t i)] for every index in
    ascending order, without allocating a state per index where the
    space allows (the dense engine advances one scratch state in place).
    [f] must neither retain nor mutate the state it is given. *)

val find : 'a t -> 'a -> int
val find_opt : 'a t -> 'a -> int option

val rank_index : _ t -> (int -> int) option
(** The graph's own rank index, when its space is keyed by a layout's
    dense ranks (every {!Cr_guarded.Program} compile): the index of the
    state of a given rank, [-1] when the graph does not hold it;
    allocation-free.  The identity on a dense compile, the discovery's
    key table on a sparse one; [None] for a graph over an enumeration
    held in memory.  {!Abstraction.tabulate}'s rank route. *)

val successors : _ t -> int -> int array
(** Copy of one successor row.  Hot loops should use {!csr} (zero-copy)
    or {!out_degree}/{!successor} instead. *)

val csr : _ t -> Cr_kernel.Csr.t
(** The internal transition CSR, shared without copying, built on first
    use; every edge reader of this interface but {!source} forces it.
    This is what the checker kernels consume; treat it as read-only. *)

val source : _ t -> Cr_kernel.Csr.source
(** The graph's successors for a pass that reads each row once: the
    CSR's rows once it is built ({!Cr_kernel.Csr.source}), and
    otherwise a reader per domain that runs the kept emitter on the
    state (for the dense engine unranked into the reader's scratch,
    allocating nothing) and yields the row the CSR will hold.  Never
    forces the CSR. *)

val succ_forced : _ t -> bool
(** Has the successor CSR been built yet?  (Introspection for tests and
    telemetry, like {!pred_forced}.) *)

val out_degree : _ t -> int -> int
(** Number of successors of a state: O(1), no allocation. *)

val successor : _ t -> int -> int -> int
(** [successor t i k] is the [k]-th successor of state [i] (0-based):
    O(1), no allocation. *)

val pred_csr : _ t -> Cr_kernel.Csr.t
(** The predecessor CSR (transpose of {!csr}), forced on first use and
    cached as for {!predecessors}; shared without copying. *)

val predecessors : _ t -> int -> int array
(** Predecessor row of a state.  The transpose of the successor arrays is
    computed on the first call and cached ({!pred_forced}); the benign
    first-force race between domains recomputes the same deterministic
    value. *)

val pred_forced : _ t -> bool
(** Has the predecessor transpose been computed yet?  (Introspection for
    tests and telemetry; {!box} and {!all_initial} preserve
    laziness.) *)

val is_initial : _ t -> int -> bool
(** Membership in the initial states.  The first use of {!is_initial},
    {!initial_mask} or {!initials} sweeps the initial predicate over
    every state, once; the benign first-force race between domains
    sweeps twice to the same value. *)

val initial_mask : _ t -> Cr_kernel.Bitset.t
(** The initial states as a packed mask, shared without copying (the
    seed set of {!Cr_checker.Reach}); treat it as read-only. *)

val initials : _ t -> int array
(** The initial states, ascending, shared without copying. *)

val is_terminal : _ t -> int -> bool
val has_edge : _ t -> int -> int -> bool
(** Binary search over the sorted successor row: O(log branching). *)

val iter_edges : _ t -> (int -> int -> unit) -> unit
val fold_edges : _ t -> (int -> int -> 'acc -> 'acc) -> 'acc -> 'acc

val pp_state : 'a t -> Format.formatter -> int -> unit
val state_to_string : 'a t -> int -> string

val same_states : 'a t -> 'a t -> bool
(** Do both systems enumerate the same Sigma in the same order? *)

val same_transitions : 'a t -> 'a t -> bool
(** {!same_states} and identical transition relations (used for the
    paper's "the above system is equal to Dijkstra's ..." claims). *)

val box : ?name:string -> 'a t -> 'a t -> 'a t
(** Union of transition relations over a shared enumeration; initial states
    are those of the left operand.  Raises {!Space.Too_large} before it
    allocates when the two edge counts together pass
    {!Cr_kernel.Lane.max_lanes}. *)

val all_initial : 'a t -> 'a t
(** Every state initial, the full mask set at once without a sweep (a
    closure-seeded sparse compile, whose states are its initial set);
    the graph, the space and the predecessor transpose are shared. *)
