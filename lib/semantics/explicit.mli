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
    dense compile of the full product space holds only its graph and its
    initial mask.  Full-space consumers should sweep rather than call
    {!state} once per index.

    Every constructor is one streamed pass ({!of_space}), domain-chunked
    under the [CR_JOBS] contract of {!Par}: the index range is split into
    contiguous chunks, each sweeping its range and appending its sorted,
    deduplicated rows to its own edge blocks, and the chunks are
    concatenated in order into the CSR.  Row i depends only on i, so the
    result is identical for every job count (default 1 = the sequential
    path).  Predecessor rows are computed lazily, on the first
    {!predecessors} call — refinement classification never needs
    them. *)

exception Unknown_state of string
(** Raised when a successor function escapes the enumerated state space, or
    {!find} is applied to a state outside Sigma. *)

type 'a t

val of_space :
  name:string ->
  space:'a Space.t ->
  step:(unit -> 'a -> int -> (int -> unit) -> unit) ->
  is_initial:('a -> bool) ->
  pp_state:(Format.formatter -> 'a -> unit) ->
  'a t
(** Compile over a {!Space} in one streamed pass.  [step () s i emit]
    must call [emit j] on the index of every successor of the state [s]
    at index [i] (in any order; duplicates and [j = i] are dropped here),
    reading [s] without retaining it, and raise {!Unknown_state} on a
    step that escapes the space; the [unit ->] stage is a per-chunk
    factory, so an implementation may allocate private scratch.  [step]
    and [is_initial] may run on several domains at once.  The dense
    guarded-command engine passes its successor-rank emitter over the
    layout's odometer; the sparse engine replays the rows its discovery
    BFS computed. *)

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
val rename : string -> 'a t -> 'a t
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
val successors : _ t -> int -> int array
(** Copy of one successor row.  Hot loops should use {!csr} (zero-copy)
    or {!out_degree}/{!successor} instead. *)

val csr : _ t -> Cr_kernel.Csr.t
(** The internal transition CSR, shared without copying.  This is what
    every checker kernel consumes; treat it as read-only. *)

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
    tests and telemetry; {!box} and {!with_initials} preserve
    laziness.) *)

val is_initial : _ t -> int -> bool

val initial_mask : _ t -> Cr_kernel.Bitset.t
(** The initial states as a packed mask, shared without copying (the
    seed set of {!Cr_checker.Reach}); treat it as read-only. *)

val initials : _ t -> int array
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
    are those of the left operand. *)

val with_initials : 'a t -> ('a -> bool) -> 'a t
(** Replace the initial-state predicate: one {!iter_states} sweep; the
    graph, the space and the predecessor transpose are shared. *)
