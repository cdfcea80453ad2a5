(** A static-analysis pass over guarded-command programs.

    Infers exact read/write sets per action ({!Rwsets}) and runs a
    battery of keyed checks over them:

    - [W2] (warning): an assigned slot is never changed by any firing
      (a slot no assignment names cannot change, so there is no
      undeclared write to report).
    - [P1] (error; info when ["P1"] is allowlisted): a slot is written
      by actions of two or more distinct processes — a locality
      violation for concrete systems, intentional for the paper's
      abstract neighbour-writing models.
    - [G1] (warning): two actions of one process both fire at some state
      with different synchronous-merge results, making
      {!Cr_guarded.Program.synchronous_step}'s first-enabled choice
      order-dependent.
    - [D1] (error): an assigned value can leave its slot's domain.
    - [U1] (warning / info): dead action — never enabled in the full
      state space (warning), or live but never enabled from the initial
      states (info).
    - [S1] (warning): stuttering-only action — enabled somewhere, but
      every firing is a no-op.
    - [I1] (info): interference pair — a process reads a slot another
      process writes, unless the reader is an atomic read step (a
      verbatim copy of one remote slot into a private slot), the shape
      the rw_atomicity refinement uses to eliminate the hazard.
    - [L1] (error): duplicate action labels across a box composition.
    - [B1] (info): the state space exceeds the exact-analysis budget;
      no check ran (degraded, not wrong).

    Since lint v2 every finding carries a {!provenance} tag.  The
    abstract interpreter ({!Cr_flow.Flow}) reports D1, U1/S1 and B1
    through {!check_domains}, {!check_liveness} and {!over_budget}, so a
    fact renders the same in both audits; its own keys are F2 (abstract
    only) and F3.  It injects definite abstract verdicts into {!run} via
    [init_dead], so exact enumeration only runs where the abstract
    verdict is inconclusive. *)

open Cr_guarded

type severity = Error | Warning | Info

val severity_string : severity -> string

type provenance = Exact | Abstract
    (** [Exact]: established by full enumeration.  [Abstract]: a
        definite verdict derived from a sound over-approximation
        (the Cr_flow fixpoints) without visiting concrete states. *)

val provenance_string : provenance -> string

type finding = {
  key : string;
  severity : severity;
  provenance : provenance;
  program : string;
  action : string;  (** ["-"] for program-level findings *)
  message : string;
}

type report = {
  program_name : string;
  findings : finding list;
  infos : Rwsets.info list;  (** inferred read/write sets, per action *)
}

val default_exact_budget : int
(** Default [exact_budget] for {!run}: the largest state-space size the
    exact passes (Rwsets differencing, reachable closure, G1 fallback)
    will attempt. *)

val finding :
  Program.t -> provenance -> string -> severity -> string -> string -> finding
(** [finding p provenance key severity action message]: a finding about
    program [p]; [action] is ["-"] for a program-level finding. *)

val over_budget : exact_budget:int -> Program.t -> finding option
(** The [B1] finding when the program has more than [exact_budget]
    states: the read/write-set inference every check rests on is a
    full-space pass, so neither audit starts it. *)

val check_domains : Program.t -> Rwsets.info -> finding list
(** [D1] for one action: an enabled state whose assignment leaves the
    layout (the [invalid_witness] of its {!Rwsets.info}). *)

val check_liveness :
  Program.t ->
  init_dead:(string -> bool) ->
  live_from_init:(Action.t -> bool) ->
  Rwsets.info ->
  finding list
(** [U1]/[S1] for one action: dead in the full space (U1 warning), else
    stuttering-only (S1), else dead from the initial states (U1 info) —
    [Abstract] when [init_dead label] (the flow init fixpoint proved
    it), else [Exact] when [live_from_init action] (the exact
    reachable-closure test) is false.  Flow passes [fun _ -> true]: it
    builds no closure and claims nothing exact from the initial
    states. *)

val run :
  ?allow:string list ->
  ?exact_budget:int ->
  ?infos:Rwsets.info list ->
  ?init_dead:(string -> bool) ->
  Program.t ->
  report
(** Run every check.  [allow] downgrades the named checks where an
    allowlist applies (currently [P1], for abstract neighbour-writing
    systems).  The reachable-from-initial variant of U1 forces the
    program's initial-state closure, built lazily and only when some
    action needs the exact fallback.
    Programs with more than [exact_budget] states get the single
    {!over_budget} finding instead of the exact battery.  [infos]
    supplies precomputed read/write sets (so a caller that already ran
    {!Rwsets.of_program} — e.g. the flow engine — avoids the second
    full-space pass).
    [init_dead label = true] asserts that the abstract init fixpoint
    proved the action's guard unsatisfiable over all fault-free
    reachable values: {!run} then emits the U1 info finding with
    [Abstract] provenance and skips the exact closure for it. *)

val merge : report -> finding list -> report
(** Append findings (e.g. the flow engine's F2/F3) and re-sort into the
    canonical key order. *)

val sort_findings : finding list -> finding list

val errors : report -> int
(** Number of error-severity findings. *)

val find_key : string -> report -> finding list

val pp_finding : Format.formatter -> finding -> unit
(** Prints [KEY severity program action message]. *)

val json_escape : string -> string
(** {!Cr_obs.Obs.json_escape}: JSON string-body escaping, shared with the
    flow artifact emitter. *)

val artifact_header : version:int -> n:int -> string
(** The provenance header fields of a findings artifact —
    [version/tool/tool_version/git_rev/cr_jobs/n], without braces —
    matching the bench/journal convention. *)

val finding_to_json : finding -> string

val report_to_json : ?entry:string -> report -> string

val reports_to_json : n:int -> (string * report) list -> string
(** The [crcheck lint --json] artifact (version 2: provenance header +
    per-finding provenance): one object per audited registry entry;
    well-formed per {!Cr_obs.Json_check}. *)
