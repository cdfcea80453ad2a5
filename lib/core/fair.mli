(** Weak fairness: exact detection of weakly-fair divergent runs on finite
    systems (per-SCC Streett-style check).

    A run is weakly fair when every action that is continuously enabled is
    eventually taken.  An SCC carries a weakly-fair infinite run iff every
    action enabled at all of its states has a transition staying inside it
    — see the implementation commentary for the argument.  Used by
    {!Stabilize.stabilizing_to} and {!Refine.convergence_refinement} via
    their [?fair] parameter. *)

type tables = int array array
(** [next.(action).(state)] = successor state index, or [-1] when the
    action is disabled (or a no-op) there. *)

type analysis = {
  component : int array;
  fair : bool array;
  sccs : int list list;
}

val enabled : tables -> int -> int -> bool

val analyze :
  tables -> succ:Cr_kernel.Csr.t -> mask:Cr_kernel.Bitset.t -> analysis
(** SCCs of the subgraph induced by [mask], with fair-admissibility.  A
    run diverges fairly inside [mask] iff [sccs] is nonempty. *)

val edge_on_fair_cycle : analysis -> int -> int -> bool
(** Is the edge inside some fair-admissible SCC? *)

val tables_of :
  'a Cr_semantics.Explicit.t -> (('a -> bool) * ('a -> 'a)) list -> tables
(** Compile per-action (guard, effect) pairs into an action table over an
    explicit system's state indices, in one
    {!Cr_semantics.Explicit.iter_states} sweep under a [fair.tables]
    span.  Neither may retain the state it is given.  An action counts
    as disabled where its guard is false, where its effect is a no-op
    (the successor's index is the state's own) and where the successor
    lies outside the system. *)
