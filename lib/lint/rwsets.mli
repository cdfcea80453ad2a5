(** Exact per-action read/write-set inference by finite differencing.

    Domains are finite, so dependence on a slot is decided by perturbing
    the slot over its domain and watching the guard's value and the
    assigned values.  All sets are exact w.r.t. the program semantics:
    reads are compared only across enabled states, and an assigned slot
    whose value always equals its input is neither read nor written.

    Cost per action: one allocation-free {!Layout.iter_states} sweep
    that calls the guard once per state and each right-hand side once
    per enabled state, keeping one byte (the guard bit) and four (the
    result's rank, the state's own moved by the assigned values) per
    state and collecting the exact write set W from the values that
    differ from their inputs; results outside the layout keep their
    post-states in a side table.  Nothing after the sweep evaluates the
    action.  Each enabled result gets a code for its W-tuple, written
    over its rank: one byte while at most 255 tuples occur, wider only
    when more do.  Outside W every slot passes through, so two results
    on a line of a slot outside W write the same values iff their codes
    are equal.  Guard reads, effect reads and copy sources are then
    compares of contiguous byte runs, eight bytes at a time; only a slot
    in W keeps a per-pair pass-through test.  A slot the action does not
    read costs one scan of the codes. *)

open Cr_guarded

type info = {
  action : Action.t;
  enabled_states : int;  (** states where the guard holds *)
  firing_states : int;
      (** enabled states where the assignment is not a no-op *)
  writes : int list;  (** exact write set *)
  guard_reads : int list;  (** slots the guard's value depends on *)
  effect_reads : int list;  (** slots the written values depend on *)
  copy_sources : int list;
      (** when [writes = [w]]: slots [r <> w] whose value [w] is assigned
          on every enabled state — the signature of an atomic read step *)
  invalid_witness : Layout.state option;
      (** an enabled state whose assignment leaves the layout's domains *)
}

val of_action : Layout.t -> Action.t -> info
(** Raises [Invalid_argument] on a layout of more than [2^31 - 1]
    states, which no rank lane holds (lint and flow stop far below, at
    their exact budget). *)

val of_program : Program.t -> info list

val reads : info -> int list
(** Union of guard and effect reads, sorted. *)

val pp : Format.formatter -> Layout.t * info -> unit
