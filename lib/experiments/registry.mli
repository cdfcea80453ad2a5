(** Named registry of the systems built in this repository, for the
    crcheck CLI and the examples. *)

open Cr_guarded

type entry = {
  name : string;
  describe : string;
  program : int -> Program.t;
  spec : int -> Program.t;
  alpha : int -> (Layout.state, Layout.state) Cr_semantics.Abstraction.t;
  converged : int -> Layout.state -> bool;
  render : int -> Layout.state -> string;
  lint_allow : string list;
      (** lint checks to downgrade for this system (see {!Cr_lint.Lint}):
          the abstract neighbour-writing models allowlist [P1] *)
}

val entries : entry list
val find : string -> entry option
val names : unit -> string list

val explicit : entry -> int -> Layout.state Cr_semantics.Explicit.t
(** The entry's program at ring size [n], compiled through
    {!Program.to_explicit} (and thus the process-wide compile cache). *)

val init_explicit : entry -> int -> Layout.state Cr_semantics.Explicit.t
(** The entry's program compiled through the init-anchored (sparse,
    reachable-only) engine — {!Cr_semantics.Space.resolve} with default
    [Sparse], so [CR_SPACE] can force either engine.  This is what
    {!refinements} checks against: per DESIGN.md section 2 the
    refinement premise only quantifies over the fragment reachable from
    the initial states, which the sparse engine materializes exactly. *)

val spec_explicit : entry -> int -> Layout.state Cr_semantics.Explicit.t
(** The entry's specification over its full product space (dense
    engine): what {!refinements} checks against, since a refinement's
    concrete images may land anywhere in the spec's space. *)

val id_alpha : int -> (Layout.state, Layout.state) Cr_semantics.Abstraction.t
(** The identity abstraction, for systems over their spec's own layout
    (btr, btr-wrapped, utr and the abstract wrapper compositions). *)

val stabilizing :
  alpha:(Layout.state, Layout.state) Cr_semantics.Abstraction.t ->
  Layout.state Cr_semantics.Explicit.t ->
  Program.t ->
  ?fair:Cr_core.Fair.tables ->
  ?stutter:[ `Allow | `Forbid ] ->
  unit ->
  Cr_core.Stabilize.report
(** [stabilizing ~alpha c spec]: is the compiled system [c] stabilizing
    to [spec] through [alpha]?  The one route for that question.
    Staged: applied to [~alpha c spec], it compiles the spec's
    legitimate orbit (the fragment reachable from its initial states;
    sparse unless [CR_SPACE] forces an engine) and tabulates [alpha]
    against it with [~partial:true]; the returned checker is
    {!Cr_core.Stabilize.stabilizing_to} with [?fair] and [?stutter]
    passed through, and can be asked again without rebuilding either.
    The report is the one the full dense spec gives, memoized in the
    verdict cache ({!Cr_core.Check_cache}): one entry per question. *)

val stabilization :
  ?ep:Layout.state Cr_semantics.Explicit.t ->
  entry ->
  int ->
  ?fair:Cr_core.Fair.tables ->
  ?stutter:[ `Allow | `Forbid ] ->
  unit ->
  Cr_core.Stabilize.report
(** {!stabilizing} for the entry at ring size [n]: its program over the
    full space ([ep], default {!explicit}; stabilization quantifies over
    all of Sigma_C) against its spec through its α. *)

val refinements :
  ?ep:Layout.state Cr_semantics.Explicit.t ->
  ?spec:Layout.state Cr_semantics.Explicit.t ->
  entry ->
  int ->
  (string * Cr_core.Refine.report) list
(** The four refinement relations ("init" / "everywhere" / "convergence"
    / "ee") for the entry at ring size [n], through the same cache.
    The concrete system is compiled with {!init_explicit}, so under the
    default (sparse) engine the relations quantify over the
    init-reachable fragment — the graybox premise of DESIGN.md
    section 2.  [CR_SPACE=dense] restores full-space quantification.
    A caller that already holds these compiles passes them as [ep]
    ({!init_explicit}) and [spec] ({!spec_explicit}), which spares a
    second build of the program and its initial-state closure. *)
