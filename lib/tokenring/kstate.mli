(** Dijkstra's K-state token ring (unidirectional), with the token-level
    abstraction into {!Utr} states.  Self-stabilizing iff K > N. *)

open Cr_guarded

type state = Layout.state

val layout : n:int -> k:int -> Layout.t
val c : state -> int -> int
val has_token : int -> state -> int -> bool
val to_tokens : int -> state -> Utr.state
val alpha : n:int -> k:int -> (state, Utr.state) Cr_semantics.Abstraction.t
(** α_K: {!to_tokens}, ranked in UTR's layout by the weights of the
    token slots held. *)

val token_count : int -> state -> int
val initial : int -> state -> bool
val program : n:int -> k:int -> Program.t
