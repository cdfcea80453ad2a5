(** Abstraction functions relating a concrete state space to an abstract
    one (Section 2.3 of the paper): total mappings from Sigma_C onto
    Sigma_A.

    A tabulated abstraction — an {e α-table} — is a store of four-byte
    {!Cr_kernel.Lane}s, one per concrete state: lane [i] holds the
    abstract index of the image of concrete state [i] ([-1] for an
    image outside a compiled fragment, see {!tabulate}).  It is the one
    table format of [Cr_core]'s checkers ([Stabilize], [Refine],
    [Theorems], [Check_cache]). *)

type ('c, 'a) t

val make : name:string -> ?rank:('c -> int) -> ('c -> 'a) -> ('c, 'a) t
(** [make ~name ?rank apply].  When the images are states of a
    guarded-command layout, [rank s] may give the image's rank in that
    layout ({!Cr_guarded.Layout.rank} of [apply s], or [-1] when
    [apply s] is not a state of the layout) without building the image;
    it must agree with [apply] on every state, and the abstract graphs
    it is tabulated against must be compiled over that layout. *)

val identity : ?name:string -> ?rank:('a -> int) -> unit -> ('a, 'a) t
val name : (_, _) t -> string
val apply : ('c, 'a) t -> 'c -> 'a

val rank : ('c, 'a) t -> ('c -> int) option
(** The image's rank, when the abstraction carries one. *)

val compose : ?name:string -> ('b, 'a) t -> ('c, 'b) t -> ('c, 'a) t
(** [compose outer inner]; it carries a rank when [outer] does. *)

exception Not_total of string

val not_total : ('c, _) t -> 'c Explicit.t -> int -> target:string -> exn
(** The {!Not_total} for concrete state [i] of [c], whose image is not a
    state of [target]: ["abstraction NAME: image of concrete state S not
    a state of TARGET"]. *)

val tabulate :
  ?partial:bool -> ('c, 'a) t -> 'c Explicit.t -> 'a Explicit.t -> Bytes.t
(** [tabulate alpha c a] is the α-table of [alpha] from [c] into [a].
    Raises {!Not_total} if some image is not a state of [a] (the mapping
    must be total).  With [~partial:true] ([a] is a compiled fragment of
    the abstract space, e.g. a sparse compile of its legitimate orbit)
    such an image maps to [-1] instead.

    One sweep over [c].  When [alpha] carries a rank and [a] a rank
    index ({!Explicit.rank_index}), each state's image is looked up by
    rank, allocation-free: no abstract state is built.  Otherwise each
    image is built with [apply] and found with {!Explicit.find_opt}. *)

val is_onto : Bytes.t -> num_abstract:int -> bool
(** Surjectivity of an α-table. *)

val identity_table : int -> Bytes.t
(** The α-table [0, 1, ..., n - 1]. *)

val check_length : who:string -> Bytes.t -> _ Explicit.t -> unit
(** Raises [Invalid_argument], naming [who], unless the α-table has one
    lane per state of the concrete system.  The checkers read α-tables
    through unchecked lane loads, so each checks this once at entry. *)
