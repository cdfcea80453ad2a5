(** Abstract interpretation of guarded-command programs over per-slot
    domains ({!Dom}).

    The engine abstracts a set of states as one {!Dom.t} per layout slot
    (a cartesian, non-relational abstraction) and localizes each
    action's transfer function with its exact {!Cr_lint.Rwsets} support:
    a guard is exactly a function of its guard-read slots, and assigned
    values among enabled states are exactly a function of the
    effect-read and written slots (the finite-differencing theorems
    behind [Rwsets]).  A transfer therefore enumerates only the product
    of the abstract values over that support, with every other slot
    pinned to an arbitrary representative — the only loss of precision
    is the cartesian abstraction itself.

    The full space (every slot at ⊤, the right start for
    self-stabilization, where any state is a possible fault outcome)
    needs no fixpoint of its own: a transfer under ⊤ is enabled exactly
    where [Rwsets] found an enabled state, and leaves the domains exactly
    where it found an invalid witness.  The one analysis run is {b from
    the initial states} — the least fixpoint of [σ0 ⊔ post] where σ0
    abstracts them, by chaotic iteration, one transfer per action per
    round.  The result over-approximates every value reachable in
    fault-free executions, so "guard unsatisfiable over the fixpoint" is
    a sound {e definite} dead-from-init verdict, obtained without the
    exact reachable closure.

    Findings (reported with {!Cr_lint.Lint.finding} keys):

    - [D1], [U1], [S1]: lint's own {!Cr_lint.Lint.check_domains} and
      {!Cr_lint.Lint.check_liveness}, so a fact renders the same in both
      audits.  The init fixpoint is the dead-from-init pre-filter (U1
      info, abstract); flow builds no exact closure, so it claims no
      exact dead-from-init verdict.  An init-dead action that only
      stutters is S1, as in lint.
    - [F2] (warning, abstract): a violating combination lies under the
      init fixpoint — the domain violation may occur from fault-free
      values.
    - [F3] constant slot: never written by any live action (info,
      exact), or held at a single value by the init fixpoint — constant
      throughout every fault-free execution (info, abstract).

    Init-fixpoint claims are suppressed (conservatively) if any transfer
    during the fixpoint produced an invalid state:
    [Program.reachable_from] keeps even domain-invalid successors, so
    the per-slot abstraction only covers the true closure when every
    propagated output stayed inside the layout.

    Programs whose state space exceeds [exact_budget] are not analyzed
    at all ({!degraded} reports) — the exact [Rwsets] support pass is
    the substrate of the localization, and it is a full-space pass. *)

open Cr_guarded
open Cr_lint

type fact = {
  info : Rwsets.info;
      (** exact read/write sets; [enabled_states = 0] is dead in the
          full space *)
  init_enabled : bool option;
      (** enabled under the init fixpoint; [None] when the init analysis
          is unavailable or its definite claims are suppressed *)
  init_invalid : Layout.state option;
      (** a state under the init fixpoint whose assignment leaves the
          layout (abstract: the state itself may be unreachable) *)
}

type t = {
  program : Program.t;
  layout : Layout.t;
  num_states : int;
  degraded : bool;
      (** state space over budget: no facts, no findings, no rank *)
  facts : fact list;  (** per action, in program order; [] if degraded *)
  init_seed : Dom.t array option;  (** σ0: the initial-state abstraction *)
  init_state : Dom.t array option;  (** lfp of σ0 ⊔ post *)
  init_rounds : int;  (** chaotic-iteration rounds to the fixpoint *)
  init_sound : bool;
      (** no domain violation during the fixpoint — the precondition
          for definite init claims *)
  findings : Lint.finding list;
      (** the flow battery: D1, U1/S1, F2, F3 (or B1) *)
}

val analyze : ?exact_budget:int -> Program.t -> t
(** Run the init fixpoint and the flow finding battery.  [exact_budget]
    bounds the state-space size for the [Rwsets] substrate pass and
    per-transfer support products (default
    {!Cr_lint.Lint.default_exact_budget}); beyond it the result is
    {!degraded} with lint's B1 finding ({!Cr_lint.Lint.over_budget}). *)

val init_dead : t -> string -> bool
(** [init_dead t label]: did the init fixpoint definitely prove the
    action's guard unsatisfiable in all fault-free executions?  Always
    [false] when degraded or when init claims are suppressed.  This is
    the [?init_dead] pre-filter of {!Cr_lint.Lint.run}. *)

val errors : t -> int
(** Error-severity flow findings. *)

val lint :
  ?allow:string list ->
  ?exact_budget:int ->
  Program.t ->
  Lint.report * t
(** Lint v2: one [Rwsets] pass feeds both the exact battery and the
    flow engine; flow's init fixpoint pre-filters the exact
    reachable-closure check ([init_dead]), and its F2/F3 findings are
    merged into the report (its D1 and U1/S1 come from the same checks
    as the report's own).  On a degraded program the report contains
    just the B1 finding. *)

val pp_state : Layout.t -> Format.formatter -> Dom.t array -> unit
(** Print an abstract state as [{slot=⊤ slot={0,2} ...}]. *)

val pp_summary : Format.formatter -> t -> unit
