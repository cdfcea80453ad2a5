(** Content-addressed, single-flight memo tables.

    One implementation serves every cache of the checker: compiled
    explicit graphs ([compile], owned by [Cr_guarded.Program]) and
    refinement/stabilization verdicts ([check], owned by
    [Cr_core.Refine] and [Cr_core.Stabilize]).  Keys are fingerprints
    the caller builds (usually with {!Fp}); values are whatever the
    caller computes.

    Lookups are single-flight across domains: concurrent requesters of a
    missing key block while one domain computes, then count a hit — so
    the [<name>.cache.hits]/[<name>.cache.misses] counters are invariant
    under the [CR_JOBS] fan-out, like every other [Cr_obs] counter.
    Blocked time lands in the [<name>.cache.wait_us] histogram, and the
    run journal records [<name>.cache.hit]/[miss]/[wait] events carrying
    the key.

    Environment switches: [CR_CACHE=0] disables every memo (each call
    computes); [CR_CACHE_PARANOID=1] (a test mode) recomputes on every
    hit and asserts the cached value is [same] as the fresh one. *)

type 'v t

val create : name:string -> 'v t
(** A fresh memo reporting under [name], registered with {!clear_all}.
    Intended to be called once per owning module at initialization;
    memos that share a name share their counters. *)

val bypass : (unit -> 'b) -> 'b
(** Run with every memo disabled in the calling domain (benchmarks and
    tests that need a guaranteed fresh computation). *)

val find :
  'v t -> key:(unit -> string) -> same:('v -> 'v -> bool) -> (unit -> 'v) -> 'v * bool
(** [find t ~key ~same f] returns the value memoized under [key ()], or
    runs [f], stores its result and returns it.  The key is only built
    when memos are enabled.  The flag tells whether [f] ran: when it is
    [true] the value is the one [f] just returned (a miss, a disabled
    memo, or a paranoid re-check that passed), when it is [false] it is
    the stored value.  [same cached fresh] is the paranoid-mode
    comparison.  If [f] raises, the error propagates and nothing is
    stored. *)

val clear : _ t -> unit
(** Drop every completed entry (test/bench support; in-flight
    computations publish normally). *)

val clear_all : unit -> unit
(** {!clear} every memo created so far. *)

(** Double-FNV rolling fingerprints: two independent 63-bit folds
    (~126 bits) over native ints, for building keys. *)
module Fp : sig
  type t

  val create : unit -> t
  val add_int : t -> int -> unit

  val add_int_array : t -> int array -> unit
  (** Folds the length, then every element. *)

  val to_hex : t -> string
end
