(** Verdict keys for the content-addressed checker memos.

    {!Refine} and {!Stabilize} each memoize whole reports in a
    {!Cr_kernel.Memo} named [check] (counters [check.cache.hits] /
    [check.cache.misses]), so experiment tables that ask the same
    question twice — e.g. the registry's direct-stabilization and
    wrapper tables over the same pair — share one check.  This module
    builds their keys.

    A cached report keeps the [cost] snapshot of the original (miss)
    run: that is what the verdict cost to establish. *)

val key :
  relation:string ->
  alpha:int array ->
  fair:int array array option ->
  c:_ Cr_semantics.Explicit.t ->
  a:_ Cr_semantics.Explicit.t ->
  string
(** The memo key of one verdict question: [relation] (a readable tag
    that must separate every check variant), both system names, and a
    double-FNV fingerprint ({!Cr_kernel.Memo.Fp}) of both systems' exact
    transition structure and initial states, the abstraction table and
    the fairness tables (or their absence, distinctly). *)

val clear_all : unit -> unit
(** {!Cr_kernel.Memo.clear_all}: drop every memoized verdict — and,
    since there is one memo implementation, every memoized compile too
    (test/bench support). *)
