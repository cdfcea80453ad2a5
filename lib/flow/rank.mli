(** Convergence-stair analysis over the slot write-dependency graph.

    Every live action (enabled somewhere in the full space) contributes edges
    [r -> w] for each slot [w] it exactly writes and each slot [r] it
    reads ([r <> w]; a self-dependency is recorded separately).  The
    graph is condensed with {!Cr_checker.Scc}, and components are
    layered by longest path over the condensation DAG: a component's
    slots can only converge once every layer below it has — the static
    skeleton of the paper's staircase derivations.

    When every component is a singleton ([acyclic]), the layering is a
    true per-slot convergence stair.  The ring protocols bundled here
    condense instead into one cyclic component per token ring — an
    honest reflection of the paper's proofs, which argue convergence of
    the ring globally (via token counts), not slot-wise; their stair
    lives at the predicate level, below the slot granularity. *)

open Cr_guarded

type t = {
  num_slots : int;
  edges : (int * int) list;  (** cross-slot dependencies [r -> w] *)
  self_deps : int list;  (** slots written by an action that reads them *)
  comp_of : int array;  (** slot -> component id *)
  components : int array array;  (** component id -> member slots *)
  layer_of : int array;  (** component id -> layer (0 = converges first) *)
  layers : int array array;  (** layer -> component ids *)
  acyclic : bool;  (** every component is a singleton *)
}

val of_flow : Flow.t -> t option
(** [None] when the flow analysis was degraded (no exact read/write
    sets, hence no dependency graph). *)

val depth : t -> int
(** Number of layers. *)

val pp : Layout.t -> Format.formatter -> t -> unit
(** One line per layer: [layer 0: {c.0 c.1 c.2}* c.3 ...] — a [*] marks
    a cyclic component (braces group its slots). *)
