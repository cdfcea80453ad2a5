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
    {!Program.to_explicit}: a fresh graph on every call. *)

val init_explicit : entry -> int -> Layout.state Cr_semantics.Explicit.t
(** The entry's program compiled through the init-anchored (sparse,
    reachable-only) engine — {!Cr_semantics.Space.resolve} with default
    [Sparse], so [CR_SPACE] can force either engine.  This is what
    {!refinements} checks: per DESIGN.md section 2 the refinement
    premise only quantifies over the fragment reachable from the
    initial states, which the sparse engine materializes exactly. *)

val id_alpha :
  (int -> Layout.t) ->
  int ->
  (Layout.state, Layout.state) Cr_semantics.Abstraction.t
(** [id_alpha layout n]: the identity abstraction, for systems over
    their spec's own layout [layout n] (btr, btr-wrapped, utr and the
    abstract wrapper compositions), ranked by
    {!Layout.checked_rank} in that layout. *)

val stabilizing :
  alpha:(Layout.state, Layout.state) Cr_semantics.Abstraction.t ->
  Layout.state Cr_semantics.Explicit.t ->
  Program.t ->
  ?fair:Cr_core.Fair.tables ->
  unit ->
  Cr_core.Stabilize.report
(** [stabilizing ~alpha c spec]: is the compiled system [c] stabilizing
    to [spec] through [alpha], modulo τ-steps?  The one route for that
    question.  Staged: applied to [~alpha c spec], it compiles the
    spec's legitimate orbit (the fragment reachable from its initial
    states; sparse unless [CR_SPACE] forces an engine) and tabulates
    [alpha] against it with [~partial:true]; the returned checker is
    {!Cr_core.Stabilize.stabilizing_to} with [?fair] passed through,
    and can be asked again without rebuilding either.
    The report is the one the full dense spec gives. *)

val stabilization :
  ?ep:Layout.state Cr_semantics.Explicit.t ->
  entry ->
  int ->
  ?fair:Cr_core.Fair.tables ->
  unit ->
  Cr_core.Stabilize.report
(** {!stabilizing} for the entry at ring size [n]: its program over the
    full space ([ep], default {!explicit}; stabilization quantifies over
    all of Sigma_C) against its spec through its α. *)

(** The four refinement checkers of one (concrete system, spec, α)
    question, and the compiled spec fragment they check against
    ([abstract], e.g. for {!Cr_core.Refine.pp_failure}). *)
type refiners = {
  abstract : Layout.state Cr_semantics.Explicit.t;
  init : unit -> Cr_core.Refine.report;
  everywhere : unit -> Cr_core.Refine.report;
  convergence : ?fair:Cr_core.Fair.tables -> unit -> Cr_core.Refine.report;
  ee : ?fair:Cr_core.Fair.tables -> unit -> Cr_core.Refine.report;
}

val refining :
  alpha:(Layout.state, Layout.state) Cr_semantics.Abstraction.t ->
  Layout.state Cr_semantics.Explicit.t ->
  Program.t ->
  refiners
(** [refining ~alpha c spec]: the refinement relations between the
    compiled system [c] and [spec] through [alpha] —
    {!Cr_core.Refine.init_refinement}, [everywhere_refinement],
    [convergence_refinement] and [everywhere_eventually_refinement],
    the last two with [?fair] passed through.  The one route for a
    guarded-command refinement question.  Staged: applied to
    [~alpha c spec], it makes one α sweep over [c] that ranks every
    image (by [alpha]'s own rank when it carries one, building no
    image; else by {!Layout.checked_rank} of the image) into a
    four-byte lane per state, compiles the spec from the distinct ranks
    as {!Program.to_explicit} [?roots] (their forward closure, the
    α-closure; sparse unless [CR_SPACE] forces the dense spec) and
    rewrites each lane to its image's index there.  Refine reads the
    spec only at α-images and along paths from them, so every report is
    the one the full dense spec gives.  Raises
    {!Cr_semantics.Abstraction.Not_total} when an image is not a state
    of the spec's layout. *)

val relations : refiners -> (string * Cr_core.Refine.report) list
(** The four reports, labelled "init" / "everywhere" / "convergence" /
    "ee" (crcheck refine's rows). *)

val refinements : entry -> int -> (string * Cr_core.Refine.report) list
(** {!relations} of the entry at ring size [n]: its program compiled
    with {!init_explicit} against its spec, through {!refining}.  Under
    the default (sparse) engine the relations quantify over the
    init-reachable fragment — the graybox premise of DESIGN.md
    section 2; [CR_SPACE=dense] restores full-space quantification. *)
