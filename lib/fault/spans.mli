(** Fault spans: reachability under a bounded number of transient faults
    interleaved with program execution, and the recovery cost from each
    span (extension experiment E19). *)

open Cr_guarded

val min_faults :
  succ:Cr_kernel.Csr.t ->
  fault_succ:int array array ->
  sources:int list ->
  int array
(** 0-1 BFS: minimal number of fault transitions needed to reach each
    state from the sources ([-1] = unreachable).  Program transitions
    come from the system's CSR; fault rows are ad-hoc arrays. *)

type row = {
  k : int;
  span : int;
  worst_recovery : int;
  expected_recovery : float;
}

val analyze :
  ?max_k:int ->
  Program.t ->
  Layout.state Cr_semantics.Explicit.t ->
  Cr_core.Stabilize.report ->
  row list
(** [analyze p e r]: the program [p], its compiled graph [e] and its
    stabilization verdict [r] (whose converged region is the k = 0
    source set).  One row per fault budget k = 0, 1, ... until the span
    saturates (or [max_k]).  Raises [Invalid_argument] if [r] does not
    hold. *)
