(* Bridges between guarded-command programs and the core checkers. *)

open Cr_guarded

(* Action tables for the weak-fairness checker.  Only meaningful for
   plain (non-priority) compilations: under wrapper priority a suppressed
   base action would be misreported as enabled. *)
let fair_tables (p : Program.t) (e : Layout.state Cr_semantics.Explicit.t) :
    Cr_core.Fair.tables =
  Cr_obs.Obs.span "fair.tables" (fun () -> Program.action_tables p e)
