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
(** Same for the entry's specification (always dense: the abstract
    specs are small and their graphs are shared full-space). *)

val alpha_table : entry -> int -> int array
(** The entry's abstraction tabulated between program and spec at ring
    size [n]. *)

val stabilization :
  ?fair:Cr_core.Fair.tables -> entry -> int -> Cr_core.Stabilize.report
(** [stabilizing_to] for the entry at ring size [n].  Routed through the
    process-wide {!Cr_core.Check_cache}: every driver asking the same
    registry question shares one computed verdict. *)

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
