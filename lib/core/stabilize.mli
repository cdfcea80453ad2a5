(** Stabilization checker (exact on finite systems).

    [C] is stabilizing to [A] iff every computation of [C] has a suffix
    that is a suffix of some computation of [A] starting at an initial
    state of [A].

    Verdicts are memoized in a content-addressed {!Cr_kernel.Memo}
    keyed by {!Check_cache.key} ([CR_CACHE=0] disables,
    [CR_CACHE_PARANOID=1] audits every hit); the bad-seed sweep is domain-chunked under [CR_JOBS] with a
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
  good_mask : bool array;  (** per-state membership in the converged region *)
  cost : Cr_obs.Obs.snapshot option;
      (** telemetry counters moved by this check on the calling domain
          ([Some] only while {!Cr_obs.Obs.tracking} — e.g. under
          [CR_STATS], [CR_TRACE], or the CLI's [--stats]) *)
}

val pp_report : Format.formatter -> report -> unit

val stabilizing_to :
  ?alpha:int array ->
  ?fair:Fair.tables ->
  ?stutter:[ `Allow | `Forbid ] ->
  c:'c Cr_semantics.Explicit.t ->
  a:'a Cr_semantics.Explicit.t ->
  unit ->
  report
(** Decide "C is stabilizing to A", optionally through a tabulated
    abstraction.  With [?fair] (action tables for [c]), divergence is
    checked over weakly-fair computations only; [worst_case_recovery] is
    [None] when recovery is finite but unbounded.  [?stutter:`Allow]
    compares the converged suffix modulo τ-steps (default [`Forbid]).

    The verdict reads [a] only through its legitimate states L (those
    reachable from I_A).  So [a] may be any successor-closed fragment of
    the spec that contains I_A — e.g. a sparse compile of the spec — with
    [alpha] from {!Cr_semantics.Abstraction.tabulate} [~partial:true]:
    an entry [< 0] (image outside the fragment) counts as outside L.  The
    report is then the one the full spec with a total [alpha] gives. *)

val self_stabilizing : 'a Cr_semantics.Explicit.t -> report
(** [self_stabilizing a] = [stabilizing_to ~c:a ~a ()]. *)
