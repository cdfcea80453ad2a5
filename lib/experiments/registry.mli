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

val legit_explicit : entry -> int -> Layout.state Cr_semantics.Explicit.t
(** The entry's specification over its legitimate orbit only: the
    fragment reachable from its initial states, compiled by the sparse
    engine ({!Cr_semantics.Space.resolve} with default [Sparse], so
    [CR_SPACE=dense] restores the full spec).  What {!stabilization}
    checks against: a stabilization verdict reads the spec only through
    that orbit (see {!Cr_core.Stabilize.stabilizing_to}). *)

val stabilization :
  ?ep:Layout.state Cr_semantics.Explicit.t ->
  ?spec:Layout.state Cr_semantics.Explicit.t ->
  ?alpha:int array ->
  ?fair:Cr_core.Fair.tables ->
  entry ->
  int ->
  Cr_core.Stabilize.report
(** [stabilizing_to] for the entry at ring size [n]: the program over
    its full space ({!explicit}; stabilization quantifies over all of
    Sigma_C) against the spec's legitimate orbit ({!legit_explicit}),
    through the partial α-table
    ({!Cr_semantics.Abstraction.tabulate} [~partial:true]).  The report
    is the one the full dense spec gives.  Routed through the
    process-wide verdict memo ({!Cr_core.Check_cache}): every driver
    asking the same registry question shares one computed verdict.  A
    caller that already holds these passes them as [ep], [spec] and
    [alpha], which spares re-targeting the cached compiles and a second
    tabulation. *)

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
