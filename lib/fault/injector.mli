(** Transient-fault models: state perturbations for simulation and the
    fault transition relation as a guarded program for model checking. *)

open Cr_guarded

val corrupt_slot :
  rng:Random.State.t -> Layout.t -> Layout.state -> slot:int -> Layout.state
(** Corrupt one variable to a uniformly random *different* value. *)

val corrupt_one : rng:Random.State.t -> Layout.t -> Layout.state -> Layout.state
(** Corrupt one uniformly chosen (non-pinned) variable. *)

val corrupt_k :
  rng:Random.State.t -> Layout.t -> Layout.state -> k:int -> Layout.state

val randomize : rng:Random.State.t -> Layout.t -> Layout.state
(** An arbitrary state — the paper's unrestricted transient fault. *)

val faults : Layout.t -> Program.t
(** The fault transition relation (one action per slot/value), for
    explicit-state exploration of fault spans. *)
