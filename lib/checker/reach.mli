(** Reachability kernels over CSR graphs, marking packed bitsets.

    An explicit system hands out its graph as a zero-copy view
    ({!Cr_semantics.Explicit.csr}); these kernels walk it directly. *)

val forward :
  succ:Cr_kernel.Csr.t -> seeds:Cr_kernel.Bitset.t -> Cr_kernel.Bitset.t
(** States reachable from the [seeds] mask (inclusive), in a fresh mask.
    Raises [Invalid_argument] when the mask's length is not the graph's
    state count. *)

val backward :
  succ:Cr_kernel.Csr.t -> seeds:Cr_kernel.Bitset.t -> Cr_kernel.Bitset.t
(** States that can reach some member of [seeds] (inclusive).
    Transposes internally; {!Paths.settle} answers the same question in
    one forward pass. *)

val reachable_from_initial : _ Cr_semantics.Explicit.t -> Cr_kernel.Bitset.t
(** States reachable from the initial states — for a specification [A]
    these are the "legitimate" states used by the stabilization checker. *)
