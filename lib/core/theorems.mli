(** The paper's theorems as runnable checks on concrete instances.

    Because the refinement checkers are sound but not complete, a failed
    premise yields {!Vacuous}; {!Refuted} would indicate a genuine
    counterexample (and a bug in either the checkers or the theory).

    The abstractions are α-tables ({!Cr_semantics.Abstraction.tabulate}:
    one four-byte lane per concrete state), the identity when omitted;
    Theorems 0 and 1 compose [alpha_ab] after [alpha_ca] lane by lane
    for the conclusion. *)

type verdict = Witnessed | Vacuous | Refuted

val theorem_0 :
  ?alpha_ca:Bytes.t ->
  ?alpha_ab:Bytes.t ->
  c:'c Cr_semantics.Explicit.t ->
  a:'a Cr_semantics.Explicit.t ->
  b:'b Cr_semantics.Explicit.t ->
  unit ->
  verdict
(** [[C ⊑ A]] and A stabilizing to B => C stabilizing to B. *)

val theorem_1 :
  ?alpha_ca:Bytes.t ->
  ?alpha_ab:Bytes.t ->
  c:'c Cr_semantics.Explicit.t ->
  a:'a Cr_semantics.Explicit.t ->
  b:'b Cr_semantics.Explicit.t ->
  unit ->
  verdict
(** [[C ⪯ A]] and A stabilizing to B => C stabilizing to B. *)

val theorem_3 :
  box:
    ('a Cr_semantics.Explicit.t ->
    'a Cr_semantics.Explicit.t ->
    'a Cr_semantics.Explicit.t) ->
  c:'a Cr_semantics.Explicit.t ->
  a:'a Cr_semantics.Explicit.t ->
  w:'a Cr_semantics.Explicit.t ->
  unit ->
  verdict
(** Graybox wrapping: [[C ⪯ A]] and (A [] W) stabilizing to A =>
    (C [] W) stabilizing to A. *)

val theorem_5 :
  box:
    ('a Cr_semantics.Explicit.t ->
    'a Cr_semantics.Explicit.t ->
    'a Cr_semantics.Explicit.t) ->
  c:'a Cr_semantics.Explicit.t ->
  a:'a Cr_semantics.Explicit.t ->
  w:'a Cr_semantics.Explicit.t ->
  w':'a Cr_semantics.Explicit.t ->
  unit ->
  verdict
(** Graybox with independently refined wrapper: [[C ⪯ A]], (A [] W)
    stabilizing to A and [[W' ⪯ W]] => (C [] W') stabilizing to A. *)

val strength_chain :
  ?alpha:Bytes.t ->
  c:'c Cr_semantics.Explicit.t ->
  a:'a Cr_semantics.Explicit.t ->
  unit ->
  bool
(** everywhere => convergence => everywhere-eventually => init refinement,
    as decided by the checkers on this instance. *)
