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
  c_initials:bool ->
  alpha:Bytes.t ->
  fair:int array array option ->
  c:_ Cr_semantics.Explicit.t ->
  a:_ Cr_semantics.Explicit.t ->
  string
(** The memo key of one verdict question: [relation] (a readable tag
    that must separate every check variant), both system names, and a
    double-FNV fingerprint ({!Cr_kernel.Memo.Fp}) of both systems' exact
    transition structure, the α-table (its lanes as ints, after their
    count), the fairness tables
    (or their absence, distinctly) and the initial states the verdict
    reads.  Those are always [a]'s, and [c]'s when [c_initials]:
    {!Refine} reads them ([c_initials:true]); {!Stabilize} quantifies
    over every state of [c] and does not ([c_initials:false]), so its
    key neither forces [c]'s lazy initial sweep nor tells apart two
    graphs that differ only in their initial states. *)

val clear_all : unit -> unit
(** {!Cr_kernel.Memo.clear_all}: drop every memoized verdict, the only
    values any memo holds (test/bench support). *)
