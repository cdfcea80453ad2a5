(** Extension experiments beyond the paper's text (DESIGN.md E16-E18). *)

open Cr_guarded

type sync_verdict = {
  name : string;
  n : int;
  stabilizes : bool;
  witness_cycle : Layout.state list option;
}

val sync_dijkstra3 : int -> sync_verdict
(** E16: Dijkstra-3 under the fully synchronous daemon. *)

val sync_dijkstra4 : int -> sync_verdict
val sync_kstate : int -> sync_verdict

type rw_verdict = {
  n : int;
  states : int;
  stabilizes_unfair : bool;
  stabilizes_fair : bool;
  init_refines_dijkstra3 : bool;
  fault_free_coherent_tokens : bool;
}

val rw_experiment : int -> rw_verdict
(** E17: read/write atomicity refinement of Dijkstra-3 — fault-free
    refinement survives, stabilization does not. *)

type hitting_row = {
  system : string;
  n : int;
  worst_exact : int;
  expected_worst : float;
  expected_mean : float;
}

val hitting_dijkstra3 : int -> hitting_row
(** E18: exact expected recovery under the uniform random daemon. *)

val hitting_dijkstra4 : int -> hitting_row
val hitting_kstate : int -> hitting_row
