(** The 4-state solution of the BTR problem (paper, Section 4): the
    concrete system C1, Dijkstra's 4-state token ring, and the Section 4
    mapping as an abstraction function into {!Btr} token states. *)

open Cr_guarded

type state = Layout.state

val layout : int -> Layout.t
(** Per process: a boolean [c.j] and a boolean [up.j]; [up.0 = true] and
    [up.N = false] are pinned. *)

val c : int -> state -> int -> int
val up : int -> state -> int -> bool

val to_tokens : int -> state -> Btr.state
(** The Section 4 mapping from (c, up) states to token states. *)

val alpha : int -> (state, Btr.state) Cr_semantics.Abstraction.t
(** α₄: {!to_tokens}, ranked in BTR's layout by the weights of the token
    slots held. *)

val token_count : int -> state -> int

val one_token : int -> state -> bool
(** States mapping to a unique token. *)

val canonical : int -> state
(** Canonical legitimate configuration (image: the token ↓t.(N-1)); the
    concrete systems' initial states are its reachability orbit. *)

val c1 : int -> Program.t
(** The paper's C1: refinement of BTR_4 to the concrete execution model
    (own-state writes only).  Lemma 7: [C1 ⪯ BTR]. *)

val dijkstra4 : int -> Program.t
(** Dijkstra's 4-state stabilizing ring — (C1 [] W1' [] W2') with relaxed
    guards (end of Section 4). *)

val w1'_guard : int -> state -> bool

val w1'_vacuous : int -> state -> bool
(** Section 4.1: W1' is trivial — wherever its guard holds, ↑t.N already
    holds.  True at every state. *)

val w2'_vacuous : int -> state -> bool
(** Section 4.1: W2' is trivial — no state maps to both ↑t.j and ↓t.j at
    one process.  True at every state. *)
