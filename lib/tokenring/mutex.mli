(** The mutual-exclusion service view of the token rings: safety (at most
    one privilege), liveness (every process acts infinitely often in
    converged behaviour), and the paper's I4 (equal token-direction
    frequency), all decided exactly on the Good region. *)

open Cr_guarded

type verdict = { safety : bool; liveness : bool; processes : int }

val acting_process :
  Program.t -> Layout.state -> Layout.state -> int option
(** The process of an action generating this transition. *)

val check :
  privileged:(Layout.state -> int -> bool) ->
  num_procs:int ->
  Program.t ->
  good:Cr_kernel.Bitset.t ->
  Layout.state Cr_semantics.Explicit.t ->
  verdict

val i4_equal_frequency :
  int ->
  Program.t ->
  to_tokens:(Layout.state -> Btr.state) ->
  good:Cr_kernel.Bitset.t ->
  Layout.state Cr_semantics.Explicit.t ->
  bool
(** I4 on every Good cycle: middle processes receive ↑ and ↓ tokens
    equally often. *)
