(** Checker telemetry, one stream: domain-safe named counters,
    histograms, timed spans and run-journal events, with a [CR_STATS]
    human summary, a [CR_TRACE] Chrome-trace export and a [CR_JOURNAL]
    JSONL journal.

    Collection is on exactly when one of those sinks is configured (or
    {!force_enable}/{!force_collect} is called); when off every
    operation short-circuits on one branch, so instrumented hot paths
    stay within noise of the uninstrumented checker.  Nothing is opened
    or forked at startup.

    Each OCaml domain accumulates into private storage; {!merged_snapshot}
    combines domains deterministically ([Sum] counters add, [Max] counters
    take the maximum), so merged totals are invariant under the [CR_JOBS]
    fan-out.

    A closed {!span} is the one timing record: it feeds the [CR_STATS]
    span table and the [CR_TRACE] export and, with a journal open, is
    one journal line.  Journal lines are JSON objects stamped with run
    provenance — monotonic [seq], [ts_us] since process start, emitting
    [dom], git [rev], effective [jobs] — and the stream opens with a
    [journal.open] header (seq 0) recording every [CR_*] environment
    override.  The journal file opens (appending) on its first line;
    an unwritable path is reported once on stderr and otherwise
    ignored. *)

type kind =
  | Sum  (** additive; merged across domains by summation *)
  | Max  (** high-water mark; merged across domains by maximum *)

type counter

val counter : ?kind:kind -> string -> counter
(** Register a named counter (call once, at module initialization).
    Names should be globally unique, [module.metric]-style. *)

val tracking : unit -> bool
(** Is collection currently enabled? *)

val stats_enabled : unit -> bool
(** Should human-readable cost summaries be printed ([CR_STATS] set, or
    {!force_enable} called)? *)

val force_enable : unit -> unit
(** Turn on collection and summaries regardless of the environment
    (used by the [--stats] CLI flag). *)

val force_collect : unit -> unit
(** Turn on collection only (counters and spans accumulate, but nothing
    is printed unless the caller asks). *)

val incr : counter -> unit
val add : counter -> int -> unit

val record_max : counter -> int -> unit
(** Raise a [Max] counter to [v] if [v] is larger. *)

type histogram

val histogram : string -> histogram
(** Register a named log-bucketed histogram (call once, at module
    initialization).  Bucket 0 holds the value 0; bucket [k >= 1] holds
    values in [[2^(k-1), 2^k)].  Exact count, total and max ride along,
    so only the quantile estimates are quantized. *)

val observe : histogram -> int -> unit
(** Record one observation (negatives clamp to 0).  No-op unless
    collection is enabled.  Per-domain storage; merging sums bucket
    counts, so merged aggregates depend only on the observation
    multiset — identical for every [CR_JOBS] when the observations
    are. *)

type hstats = {
  count : int;
  total : int;
  max_value : int;
  buckets : int array;
}

val quantile : hstats -> float -> int
(** [quantile h q] estimates the [q]-quantile ([0 < q <= 1]) as the
    inclusive upper bound of the bucket where the cumulative count
    reaches [q * count], clamped to the exact maximum. *)

val mean : hstats -> float

val merged_histograms : unit -> (string * hstats) list
(** Histograms merged across every domain, sorted by name; empty ones
    omitted.  Raises [Invalid_argument] while a worker domain is live. *)

type field =
  | S of string
  | I of int
  | B of bool
  | F of float  (** non-finite floats render as [null] *)
  | Snap of (string * int) list
      (** a cost snapshot, rendered as a nested object of integers *)

val span :
  ?fields:('a -> (string * field) list) -> string -> (unit -> 'a) -> 'a
(** [span name f] runs [f] and, when tracking, records a timed span.
    With a journal open the closed span is also one line: [ev] = [name],
    [dur_us], then [fields] of [f]'s result (none if [f] raised).  Spans
    nest; re-raises any exception of [f] after closing the span. *)

val last_span_us : unit -> float
(** Duration of the span most recently closed on the calling domain
    (0 when none). *)

val event : string -> (string * field) list -> unit
(** [event ev fields] appends one decision line to the journal.  No-op
    (one branch) unless a journal is configured. *)

val set_journal_path : string option -> unit
(** Test hook: close any open journal, override (or clear, with [None])
    the [CR_JOURNAL] path, and restart sequence numbers at 0 so the next
    line opens a fresh stream with its own header.  Collection follows
    the new configuration. *)

val git_rev : unit -> string
(** The short git revision stamped on journal lines ("unknown" outside
    a git checkout), resolved on first use.  Also the provenance of the
    bench, lint and flow artifact headers. *)

val jobs_env : unit -> int
(** Parsed value of [CR_JOBS]; 1 when unset, the recommended domain
    count when set to 0.  A malformed or negative value also yields 1,
    with a one-line warning on stderr (printed once per process). *)

val json_escape : string -> string
(** Escape a string for a JSON string literal (no surrounding quotes). *)

type span_event = {
  sname : string;
  ts_us : float;  (** microseconds since process start *)
  dur_us : float;
  depth : int;  (** span-nesting depth at entry *)
  tid : int;  (** OCaml domain id *)
}

val events : unit -> span_event list
(** All recorded spans, sorted by (domain, start time).  Raises
    [Invalid_argument] while a worker domain is live (see
    {!workers_add}). *)

val now_us : unit -> float
(** Microseconds since an arbitrary process-local epoch (the clock spans
    use); cheap enough to bracket individual chunks. *)

val workers_add : int -> unit
(** Move the live-worker count by [k].  [Par] calls this around its
    domain fan-outs; the merging entry points ({!events},
    {!merged_snapshot}, {!merged_histograms}) refuse to run while the
    count is nonzero instead of silently racing with worker writes. *)

type snapshot = (string * int) list
(** Counter values, sorted by name; zero entries omitted. *)

val merged_snapshot : unit -> snapshot
(** Counters merged across every domain seen so far.  Raises
    [Invalid_argument] while a worker domain is live (e.g. call between
    checker calls, never from inside a [Par] fan-out). *)

val diff : before:snapshot -> after:snapshot -> snapshot
(** Counter movement between two snapshots of the same scope: [Sum]
    counters subtract, [Max] counters report the new high-water mark. *)

type gc_cost = {
  minor_words : int;
  major_words : int;
  minor_collections : int;
  major_collections : int;
  top_heap_words : int;
}
(** Allocation accounting from [Gc.quick_stat]: cheap to capture (no
    heap walk), per-domain word counters on OCaml 5, so a span-scoped
    delta on one domain prices that domain's own allocations. *)

val gc_now : unit -> gc_cost

val gc_delta : before:gc_cost -> after:gc_cost -> gc_cost
(** Word and collection counters subtract; [top_heap_words] reports the
    high-water mark of [after]. *)

val domain_cost : (unit -> 'a) -> 'a * snapshot option
(** [domain_cost f] runs [f]; when tracking, also the movement of the
    calling domain's counters plus its [gc.*] allocation delta, as one
    name-sorted snapshot.  Both parts are domain-local, so the cost is
    deterministic even while sibling work runs on other domains. *)

val reset : unit -> unit
(** Zero all counters and drop all spans (test support). *)

val pp_snapshot : Format.formatter -> snapshot -> unit

val pp_histograms : Format.formatter -> (string * hstats) list -> unit
(** One row per histogram: count, mean, p50/p90/p99 estimates, max. *)

val write_trace : string -> unit
(** Write every recorded span as a Chrome [chrome://tracing] / Perfetto
    trace-event JSON array, one track per OCaml domain. *)
