(** Exact per-action read/write-set inference by finite differencing.

    Domains are finite, so dependence on a slot is decided by perturbing
    the slot over its domain and watching the guard's value and the
    effect's written values.  All sets are exact w.r.t. the program
    semantics: reads are compared only across enabled states, and a slot
    the effect merely passes through is neither read nor written.

    Cost per action: one allocation-free {!Layout.iter_states} sweep
    that calls the guard once per state and the effect once per enabled
    state, keeping one byte (the guard bit) and one word (the result's
    {!Layout.checked_rank}) per state; results outside the layout keep
    their arrays in a side table.  The differencing then compares
    integers only: for a slot outside the write set, two enabled states
    that differ only there write the same values iff their results'
    ranks differ by exactly as much as their own ranks do (every other
    non-written slot passes through, and rank is a bijection on valid
    states).  Write slots and copy sources compare rank digits. *)

open Cr_guarded

type info = {
  action : Action.t;
  enabled_states : int;  (** states where the guard holds *)
  firing_states : int;  (** enabled states where the effect is not a no-op *)
  writes : int list;  (** exact write set *)
  guard_reads : int list;  (** slots the guard's value depends on *)
  effect_reads : int list;  (** slots the written values depend on *)
  copy_sources : int list;
      (** when [writes = [w]]: slots [r <> w] with [effect(s).(w) = s.(r)]
          on every enabled state — the signature of an atomic read step *)
  invalid_witness : Layout.state option;
      (** an enabled state whose effect leaves the layout's domains *)
}

val of_action : Layout.t -> Action.t -> info

val of_program : Program.t -> info list

val reads : info -> int list
(** Union of guard and effect reads, sorted. *)

val pp : Format.formatter -> Layout.t * info -> unit
