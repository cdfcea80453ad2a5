(** Finite computation prefixes and the paper's sequence-level notions
    (subsequences, convergence isomorphism — Section 2). *)

type path = int list
(** A sequence of state indices of some {!Explicit.t}. *)

val is_path : _ Explicit.t -> path -> bool
(** Consecutive states are related by transitions. *)

val is_computation : _ Explicit.t -> path -> bool
(** A nonempty path ending in a terminal state (a complete, finite, maximal
    computation). *)

val stutter_normalize : path -> path
(** Collapse consecutive duplicate states (used on abstraction images;
    DESIGN.md section 2, "τ steps"). *)

val is_subsequence : sub:path -> of_:path -> bool

val is_convergence_isomorphism : candidate:path -> of_:path -> bool
(** [candidate] is a subsequence of [of_] with the same first and last
    states — the paper's convergence isomorphism, on finite sequences. *)

val omissions : candidate:path -> of_:path -> int option
(** Number of states of [of_] dropped by the greedy embedding of
    [candidate]; [None] when not a subsequence. *)

val bounded_computations : _ Explicit.t -> start:int -> depth:int -> path list
(** All maximal paths from [start], truncated at [depth] states. *)

val random_walk :
  _ Explicit.t -> rng:Random.State.t -> start:int -> max_len:int -> path
(** Uniformly random successor walk; stops at terminal states. *)
