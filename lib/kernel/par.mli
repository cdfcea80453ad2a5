(** Deterministic fan-out for independent work items, served by a
    persistent domain pool.

    Work items are claimed from an atomic index counter and each result
    lands in its own preallocated slot, so the merged output equals the
    sequential map regardless of the job count or scheduling.  The job
    count defaults to the [CR_JOBS] environment variable (default 1 —
    fully sequential, no domain involved; 0 means
    [Domain.recommended_domain_count ()]).  Nested calls from inside a
    parallel region run sequentially: the outer fan-out already
    occupies the cores.

    The first parallel call spawns [jobs - 1] worker domains and parks
    them on a condition variable; later calls are a broadcast handoff
    (the pool grows if a call wants more workers, never shrinks).  An
    [at_exit] hook joins every worker, so the process exits with no
    lingering domains.  Maps over fewer than 4 items skip the handoff
    and run on the calling domain.

    A fan-out never occupies more busy domains than
    [Domain.recommended_domain_count ()]: on OCaml 5 every minor
    collection synchronizes all running domains, so busy domains beyond
    the core count only add stop-the-world latency.  Chunk geometry and
    algorithm selection still follow the requested job count, so output
    is identical (the merge is slot-based); requests above the cap
    count in [par.task.capped].  [CR_PAR_CAP] overrides the cap (tests
    and CI use it to exercise the pool on small hosts).

    Hosted in [Cr_kernel], below both [Cr_semantics] (whose
    explicit-state compiler chunks state spaces across domains) and
    [Cr_checker] (whose sweep kernels fan out the same way). *)

val jobs_env : unit -> int
(** Parsed value of [CR_JOBS]; 1 when unset, the recommended domain
    count when set to 0.  A malformed or negative value also yields 1,
    with a one-line warning on stderr (printed once per process). *)

val current_jobs : unit -> int
(** The job count a parameterless {!map} would use right now: 1 inside a
    parallel region, else the {!with_jobs} override, else {!jobs_env}. *)

val with_jobs : int -> (unit -> 'a) -> 'a
(** [with_jobs k f] runs [f] with the job count forced to [k] in this
    domain (benchmarks and tests; no environment mutation).  The
    previous override is restored even if [f] raises. *)

val map : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map f xs = List.map f xs], computed on [jobs] domains.  [f] must not
    rely on shared mutable state.  If [f] raises on any item, the
    exception of the lowest-index failing item is re-raised on the
    caller after the sweep drains — the one the sequential map would
    raise, whatever the scheduling. *)

val map_array : ?jobs:int -> ('a -> 'b) -> 'a array -> 'b array
(** Array analogue of {!map}. *)

val pool_size : unit -> int
(** Number of worker domains currently parked in the pool (0 before the
    first parallel call and after {!shutdown_pool}). *)

val shutdown_pool : unit -> unit
(** Join every pool worker and empty the pool.  Idempotent; the next
    parallel call respawns workers.  Runs automatically [at_exit]. *)
