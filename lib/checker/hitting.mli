(** Exact expected hitting times under a uniformly random daemon (value
    iteration on the induced Markov chain). *)

val expected :
  ?epsilon:float ->
  ?max_iter:int ->
  ?pred:Cr_kernel.Csr.t ->
  succ:Cr_kernel.Csr.t ->
  target:Cr_kernel.Bitset.t ->
  unit ->
  float array
(** [expected ~succ ~target ()].(i) is the expected number of steps from
    [i] to the target set when successors are chosen uniformly;
    [infinity] when the target is unreachable (or a non-target deadlock
    is hit surely).  [?pred] takes the system's stored predecessor CSR
    to skip the transposition. *)

val max_finite : float array -> float
val mean_finite : float array -> float
