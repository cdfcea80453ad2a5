(** The paper's token-ring derivation chain as runnable experiments
    (DESIGN.md E4-E13).  Each function model-checks one claim; see
    EXPERIMENTS.md for the expected verdicts under the different
    execution models. *)

open Cr_guarded

type wrapped_verdicts = {
  n : int;
  states : int;
  union : bool;  (** stabilizes under the unconstrained daemon *)
  fair : bool;  (** stabilizes under a weakly fair daemon *)
  priority : bool;  (** stabilizes with preemptive wrappers *)
  worst_priority : int option;
      (** exact worst-case recovery under the preemptive model *)
}

val theorem6 : int -> wrapped_verdicts
(** E4: (BTR [] W1 [] W2) stabilizing to BTR. *)

val lemma9 : int -> wrapped_verdicts
(** E7: (BTR₃ [] W1'' [] W2') stabilizing to BTR via α₃. *)

val theorem11_c2w : int -> wrapped_verdicts
(** E8: (C2 [] W1'' [] W2') stabilizing to BTR. *)

val theorem13 : int -> wrapped_verdicts
(** E9: (C3 [] W1'' [] W2') stabilizing to BTR. *)

type direct = {
  n : int;
  states : int;
  legitimate : int;
  holds : bool;
  worst_case : int option;
}

val theorem8_c1 : int -> direct
(** E6: C1 stabilizing to BTR (unconstrained daemon). *)

val theorem8_dijkstra4 : int -> direct
(** E6: Dijkstra's 4-state ring stabilizing to BTR. *)

val theorem11_dijkstra3 : int -> direct
(** E8: Dijkstra's 3-state ring stabilizing to BTR. *)

val lemma7 : int -> Cr_core.Refine.report
(** E5: [C1 ⪯ BTR] via α₄. *)

val lemma10 : int -> Cr_core.Refine.report
(** E8: the strict same-state-space reading of Lemma 10 (holds at N=2,
    refuted from N=3 — see EXPERIMENTS.md). *)

val lemma12 : ?fairness:bool -> int -> Cr_core.Refine.report
(** E9: the strict reading of Lemma 12, [C3 ⪯ BTR] (refuted — token
    crossings compress on weakly fair cycles). *)

type wrapper_relations = {
  w1''_init : bool;
  w1''_everywhere : bool;  (** the paper notes this is false *)
  w1''_convergence : bool;
  w1''_ee : bool;
  global_w1'_priority_stabilizes : bool;
}

val wrapper_refinement : int -> wrapper_relations
(** Section 5.1: how the local W1'' relates to the global W1', and
    whether the global-wrapper composition also stabilizes. *)

val rewriting_claims : int -> bool * bool * bool
(** E10: (merged display = Dijkstra-3, aggressive variant = Dijkstra-3,
    C2 [] W2' = C2), as transition-graph equalities. *)

val wrapper_vacuity : int -> bool * bool
(** Section 4.1: W1' and W2' are vacuous on every 4-state configuration. *)

val kstate_stabilizes : n:int -> k:int -> Cr_core.Stabilize.report
(** E11: K-state stabilizing to UTR. *)

val kstate_minimal_k : int -> int
(** The least stabilizing K for a ring 0..n (exact). *)

val kstate_checks :
  n:int -> k:int -> Cr_core.Stabilize.report * Cr_core.Refine.report
(** E11's two questions of one compile of K-state: {!kstate_stabilizes}
    and [Kstate ⪯ UTR [] W1u [] W2u]. *)

val utr_wrapped_stabilization : int -> bool * bool
(** E11: (UTR [] W1u [] W2u) stabilizing to UTR — (unfair, preemptive). *)

val compression_witness :
  int ->
  ((int * int) * (int * int) * int list) option
(** E12: a token-losing C1 transition, its abstract endpoints, and the
    BTR path it compresses ((concrete edge), (abstract images), path). *)

val stutter_witness : int -> Layout.state option
(** E13: an illegitimate C3 state where an enabled action is a τ-step. *)
