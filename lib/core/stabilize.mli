(** Stabilization checker (exact on finite systems).

    [C] is stabilizing to [A] iff every computation of [C] has a suffix
    that is a suffix of some computation of [A] starting at an initial
    state of [A], modulo τ-steps (see {!stabilizing_to}).

    The converged region Good (the states that reach no bad seed) is
    decided in one forward pass over [C]'s graph
    ({!Cr_checker.Paths.settle}), which also gives the recovery depths;
    no transpose of [C] is built, and [C]'s initial states are never
    read.  No verdict is memoized: every call runs the check.  The
    bad-seed sweep is domain-chunked under [CR_JOBS] with a
    job-count-independent result. *)

type report = {
  holds : bool;
  concrete : string;
  abstract : string;
  legitimate : int;  (** states of [A] reachable from its initial states *)
  good : int;  (** converged region of [C] *)
  states : int;
  worst_case_recovery : int option;
      (** exact worst-case number of transitions before the converged
          region is entered (when stabilizing) *)
  bad_cycle : int list option;  (** witness cycle that never converges *)
  bad_terminal : int option;  (** witness deadlock outside the converged region *)
  good_mask : Cr_kernel.Bitset.t;  (** the converged region *)
  cost : Cr_obs.Obs.snapshot option;
      (** telemetry counters moved by this check on the calling domain
          ([Some] only while {!Cr_obs.Obs.tracking} — e.g. under
          [CR_STATS], [CR_TRACE], or the CLI's [--stats]) *)
}

val pp_report : Format.formatter -> report -> unit

val stabilizing_to :
  ?alpha:Bytes.t ->
  ?fair:Fair.tables ->
  c:'c Cr_semantics.Explicit.t ->
  a:'a Cr_semantics.Explicit.t ->
  unit ->
  report
(** Decide "C is stabilizing to A", optionally through an α-table
    ({!Cr_semantics.Abstraction.tabulate}: one four-byte lane per state
    of [c]; the identity by default).  Raises [Invalid_argument] naming
    this check when the table's lane count is not [c]'s state count or
    a lane lies outside [[-1, |Sigma_A|)]
    ({!Cr_semantics.Abstraction.check_table} [~partial:true]): every
    later read is an unchecked lane load.  With [?fair] (action
    tables for [c]), divergence is checked over weakly-fair computations
    only; [worst_case_recovery] is [None] when recovery is finite but
    unbounded.

    A transition of [c] whose image does not move (a τ-step) is
    acceptable inside the legitimate states L, but a state on a cycle of
    them whose image is not an [a]-terminal is a bad seed; that cycle
    test runs only when some τ-step was accepted.

    The verdict reads [a] only through its legitimate states L (those
    reachable from I_A).  So [a] may be any successor-closed fragment of
    the spec that contains I_A — e.g. a sparse compile of the spec — with
    [alpha] from {!Cr_semantics.Abstraction.tabulate} [~partial:true]:
    an entry [< 0] (image outside the fragment) counts as outside L.  The
    report is then the one the full spec with a total [alpha] gives. *)

val self_stabilizing : 'a Cr_semantics.Explicit.t -> report
(** [self_stabilizing a] = [stabilizing_to ~c:a ~a ()]. *)
