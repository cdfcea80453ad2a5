(** Pluggable state-space engines for explicit compilation.

    A space is the indexing substrate an explicit compile runs over: a
    bijection between a contiguous index range [0 .. size - 1] and the
    states the compile will materialize.  Two engines implement it:

    - {e dense} — the full product space in mixed-radix rank order
      (every valid state gets an index, reachable or not), never
      materialized: its states are produced on demand by index and by
      range sweeps over one scratch state;
    - {e sparse} — only the fragment reachable from the initial states,
      discovered by a frontier BFS ({!discover}) that hash-conses each
      state under its dense rank into a compact index.

    Full-space checks (the concrete side of a stabilization check,
    whole-space lint facts) are dense by construction; init-anchored
    queries only ever look at the reachable fragment and default to
    sparse: the refinement premise of the graybox theorems (DESIGN.md
    section 2), and the spec side of a stabilization check, which reads
    the spec only through its legitimate orbit.
    [CR_SPACE=dense|sparse|auto] overrides the per-call default. *)

type engine = Dense | Sparse

val engine_name : engine -> string
(** ["dense"] / ["sparse"] — journal and CLI spelling. *)

type choice = Auto | Forced of engine

val choice_of_string : string -> choice option
(** Parses ["dense"], ["sparse"], ["auto"] (case-insensitive, trimmed);
    [None] on anything else. *)

val env_choice : unit -> choice
(** The [CR_SPACE] override: [Auto] when unset or set to [auto]; a
    malformed value also yields [Auto], with a one-line warning on
    stderr (printed once per process). *)

val resolve : ?choice:choice -> default:engine -> unit -> engine
(** The engine a call site should use: [choice] (default
    {!env_choice}) unless [Auto], in which case the caller's
    [default]. *)

exception Too_large of string
(** Raised, with a one-line message, when a compile is asked for a space
    its engine cannot index: a dense space with more states than an
    array can hold, or a layout whose ranks overflow an [int]. *)

(** The first-class space interface.  [state_of_index]/[index_of_state]
    are mutually inverse between [0 .. size - 1] and the carried state
    set; [index_of_state] is [None] on states outside it (for the dense
    engine: outside Sigma; for sparse: also anything unreachable).
    [iter_range lo hi f] calls [f i (state_of_index i)] for
    [i = lo .. hi - 1] in order; the state may be a scratch value that
    the next call overwrites, so [f] must neither retain nor mutate it.
    Disjoint ranges may be swept from different domains. *)
module type S = sig
  type state

  val size : int
  val state_of_index : int -> state
  val index_of_state : state -> int option
  val iter_range : int -> int -> (int -> state -> unit) -> unit
end

type 'a t = (module S with type state = 'a)

val size : 'a t -> int

val dense :
  size:int ->
  state_of_index:(int -> 'a) ->
  index_of_state:('a -> int option) ->
  iter_range:(int -> int -> (int -> 'a -> unit) -> unit) ->
  unit ->
  'a t
(** The full-space engine over a caller-supplied rank/unrank pair and
    range sweep (e.g. {!Cr_guarded.Layout.iter_range}, or [Array] access
    for an enumeration held in memory). *)

(** Result of a sparse discovery: the space itself plus the successor
    rows the BFS computed on the way (over sparse indices, sorted
    ascending, deduplicated, self-loops dropped) — the compile reuses
    them instead of stepping every state a second time.  [keys.(i)] is
    the dense key of sparse index [i]: the sparse↔dense bijection. *)
type 'a sparse = { space : 'a t; rows : int array array; keys : int array }

val discover :
  state_of_key:(int -> 'a) ->
  key_of_state:('a -> int) ->
  step:(unit -> 'a -> int -> (int -> unit) -> unit) ->
  seed_keys:int array ->
  unit ->
  'a sparse
(** Frontier BFS over dense keys.  [key_of_state] must be injective on
    Sigma, non-negative on it ([-1] outside Sigma — e.g.
    [Layout.checked_rank]); [state_of_key] its inverse.  [step () s k
    emit] calls [emit] on the dense key of every successor of [s] (own
    key [k] excluded, i.e. self-loops dropped at the source), raising if
    a step escapes Sigma; the [unit ->] stage is a per-chunk factory so
    implementations may allocate private scratch.  [seed_keys] (sorted,
    deduplicated) are the BFS roots.

    Discovery order — and therefore the index assignment — is
    deterministic: seeds in the given order, then successors in
    (frontier order, emission order).  Frontier expansion is
    domain-chunked under the [CR_JOBS] contract of {!Cr_kernel.Par}
    exactly like the dense row build, and the merge is sequential, so
    the result is byte-identical for every job count. *)
