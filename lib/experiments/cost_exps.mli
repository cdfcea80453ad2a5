(** E14: convergence cost of the derived stabilizing systems — exact
    worst case (adversarial daemon) plus Monte-Carlo mean under a random
    daemon, both measured to the checker's converged region. *)

type row = {
  system : string;
  n : int;
  states : int;
  worst_case : int;
  mean_random : float;
  max_random : int;
}

val dijkstra3_row : ?samples:int -> int -> row
val dijkstra4_row : ?samples:int -> int -> row
val c1_row : ?samples:int -> int -> row
val kstate_row : ?samples:int -> int -> row

val new3_priority_row : ?samples:int -> int -> row
(** The priority-composed new 3-state system; simulated on the explicit
    graph (preemption changes the enabled set). *)
