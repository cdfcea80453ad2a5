(** Bridges between guarded-command programs and the core checkers. *)

open Cr_guarded

val fair_tables :
  Program.t -> Layout.state Cr_semantics.Explicit.t -> Cr_core.Fair.tables
(** Action tables for the weak-fairness checker
    ({!Program.action_tables}, under a [fair.tables] span).  Only sound
    for plain (non-priority) compilations of the same program. *)
