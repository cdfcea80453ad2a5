(** Reachability kernels over CSR graphs, marking packed bitsets.

    An explicit system hands out its graph and its predecessor graph as
    zero-copy views ({!Cr_semantics.Explicit.csr},
    {!Cr_semantics.Explicit.pred_csr}); these kernels walk them
    directly. *)

val forward : succ:Cr_kernel.Csr.t -> seeds:int list -> Cr_kernel.Bitset.t
(** States reachable from [seeds] (inclusive). *)

val backward : succ:Cr_kernel.Csr.t -> seeds:int list -> Cr_kernel.Bitset.t
(** States that can reach some member of [seeds] (inclusive).
    Transposes internally; prefer {!backward_of_explicit} when the
    system's stored transpose is available. *)

val backward_of_explicit :
  _ Cr_semantics.Explicit.t -> seeds:int list -> Cr_kernel.Bitset.t
(** Backward reachability over the stored predecessor CSR (no
    transposition pass). *)

val reachable_from_initial : _ Cr_semantics.Explicit.t -> Cr_kernel.Bitset.t
(** States reachable from the initial states — for a specification [A]
    these are the "legitimate" states used by the stabilization checker. *)
