(** Variable layouts for guarded-command programs.

    A layout fixes the (ordered) set of named variables and their finite
    domains [0..dom-1]; a program state is an [int array] indexed by
    variable slot.  A domain of size 1 encodes a variable fixed at 0 —
    used for the undefined/pinned tokens of the paper's ring systems. *)

type t

type state = int array

val make : (string * int) list -> t
(** [make [(name, dom); ...]].  Raises [Invalid_argument] on duplicate
    names or empty domains. *)

val num_vars : t -> int
val dom : t -> int -> int
val var_name : t -> int -> string

val slot : t -> string -> int
(** Slot index of a variable name.  Raises [Invalid_argument] if absent. *)

val num_states : t -> int
(** Product of the domain sizes, saturating at [max_int]: a layout with
    [max_int] or more states reports [max_int], so budget guards such as
    [num_states t > budget] hold on it instead of seeing a wrapped
    count. *)

val states_string : int -> string
(** A state count for messages: ["N states"], or ["more than N states"]
    when {!num_states} saturated at [max_int]. *)

val rank : t -> state -> int
(** Mixed-radix index of a valid state, in [0 .. num_states - 1]; slot 0
    is the least significant digit, matching the {!enumerate} order.
    O(num_vars) integer arithmetic; unchecked (see {!checked_rank}). *)

val unrank : t -> int -> state
(** Inverse of {!rank}: the state at a given index. *)

val unrank_into : t -> int -> state -> unit
(** [unrank_into t k s] writes {!unrank}[ t k] into [s] (of the
    layout's length), allocating nothing. *)

val checked_rank : t -> state -> int
(** The validity test (the layout's length, every slot in its domain)
    and {!rank} fused into one allocation-free pass: the rank of a valid
    state, [-1] otherwise. *)

val weight : t -> int -> int
(** Mixed-radix digit weight of a slot: the rank stride between two
    states differing by exactly one in that slot.  Supports slot-line
    iteration in analyses (e.g. read-set inference by finite
    differencing). *)

val enumerate : t -> state list
(** All states, in mixed-radix order (slot 0 fastest). *)

val iter_states : t -> (int -> state -> unit) -> unit
(** [iter_states t f] calls [f rank state] for every state in
    {!enumerate} order, advancing one shared scratch array in place —
    no per-state allocation, for full-space analysis passes.  [f] must
    not retain the state (copy it if needed). *)

val iter_range : t -> lo:int -> hi:int -> (int -> state -> unit) -> unit
(** {!iter_states} restricted to the ranks [lo .. hi - 1]: one {!unrank}
    at [lo], then the same in-place odometer.  Disjoint ranges may be
    swept by different domains (each has its own scratch state). *)

val hash : state -> int
(** Non-negative hash of a whole state, valid or not.  It folds every
    slot, unlike the polymorphic [Hashtbl.hash], which stops after 10
    fields and so collides on all states of a wider layout that agree on
    their first 10 slots. *)

module Tbl : Hashtbl.S with type key = state
(** Hash tables keyed by whole states, hashed with {!hash} and compared
    slot by slot. *)

val pp_state : t -> Format.formatter -> state -> unit
(** Prints [{x=0 y=1 ...}], hiding fixed (domain-1) variables. *)
