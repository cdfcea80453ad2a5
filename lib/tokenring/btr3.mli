(** The 3-state implementation of BTR (paper, Section 5): the abstract
    BTR_3, the wrappers W1'/W1''/W2', the concrete C2, and Dijkstra's
    3-state token ring. *)

open Cr_guarded

type state = Layout.state

val layout : int -> Layout.t
(** One mod-3 counter [c.j] per process. *)

val c : state -> int -> int
val p1 : int -> int
(** ⊕1 (mod 3) *)

val m1 : int -> int
(** ⊖1 (mod 3) *)

val has_up : int -> state -> int -> bool
(** ↑t.j ≡ c.(j-1) = c.j ⊕ 1 *)

val has_dn : int -> state -> int -> bool
(** ↓t.j ≡ c.(j+1) = c.j ⊕ 1 *)

val to_tokens : int -> state -> Btr.state

val token_rank : int -> state -> int
(** [token_rank n s] is [Layout.rank (Btr.layout n) (to_tokens n s)],
    summed from the token slots' weights without building the token
    state.  It reads the counters [c.0 .. c.N] (slots [0 .. N]) alone,
    so it also ranks any state whose first [N + 1] slots are those
    counters. *)

val alpha : int -> (state, Btr.state) Cr_semantics.Abstraction.t
(** α₃: {!to_tokens}, ranked by {!token_rank}. *)

val token_count : int -> state -> int

val one_token : int -> state -> bool
(** States mapping to a unique token. *)

val canonical : int -> state
(** Canonical legitimate configuration (image: ↑t.1); the concrete
    systems' initial states are its reachability orbit. *)

val top_action : int -> Action.t
(** [c.(N-1) = c.N⊕1 → c.N := c.(N-1)⊕1] — shared by BTR_3, C2, C3. *)

val bottom_action : int -> Action.t
(** [c.1 = c.0⊕1 → c.0 := c.1⊕1] — shared by all 3-state systems. *)

val btr3 : int -> Program.t
(** BTR_3: the mapped system in the abstract execution model (mid
    processes write a neighbour's counter when passing a token). *)

val w1_global : int -> Program.t
(** W1': the mapped creation wrapper (global guard). *)

val w1_local : int -> Program.t
(** W1'': the local approximation of W1' at process N
    ([c.(N-1) = c.0 ∧ c.N ≠ c.(N-1)⊕1 → c.N := c.(N-1)⊕1]). *)

val w2' : int -> Program.t
(** W2': co-located token pairs are deleted ([c.j := c.(j-1)]). *)

val c2 : int -> Program.t
(** C2: the concrete-model refinement of BTR_3 (Section 5.2). *)

val dijkstra3 : int -> Program.t
(** Dijkstra's 3-state stabilizing token ring (final display of
    Section 5.2). *)

val merged : int -> Program.t
(** The pre-simplification merged display of (C2 [] W1'' [] W2');
    mechanically equal to {!dijkstra3} (checked in the test suite). *)

val btr3_wrapped : int -> Program.t
(** (BTR_3 [] W1'' [] W2'), union semantics — Lemma 9's subject. *)

val c2_wrapped : int -> Program.t
(** (C2 [] W1'' [] W2'), union semantics — Lemma 10 / Theorem 11. *)

val btr3_wrapped_priority : int -> Program.t * (Action.t -> bool)
val c2_wrapped_priority : int -> Program.t * (Action.t -> bool)
