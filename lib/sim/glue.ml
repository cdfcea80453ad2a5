(* Bridges between guarded-command programs and the core checkers. *)

open Cr_guarded

(* Action tables for the weak-fairness checker.  Only meaningful for
   plain (non-priority) compilations: under wrapper priority a suppressed
   base action would be misreported as enabled. *)
let fair_tables (p : Program.t) (e : Layout.state Cr_semantics.Explicit.t) :
    Cr_core.Fair.tables =
  Cr_core.Fair.tables_of e
    (List.map (fun a s -> Action.fire a s) (Program.actions p))

(* Compile a program and tabulate an abstraction against a compiled
   specification in one go. *)
let compile_with_alpha ~(abstraction : (Layout.state, 'a) Cr_semantics.Abstraction.t)
    (p : Program.t) (spec : 'a Cr_semantics.Explicit.t) =
  let e = Program.to_explicit p in
  let alpha = Cr_semantics.Abstraction.tabulate abstraction e spec in
  (e, alpha)
