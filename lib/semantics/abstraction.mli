(** Abstraction functions relating a concrete state space to an abstract
    one (Section 2.3 of the paper): total mappings from Sigma_C onto
    Sigma_A. *)

type ('c, 'a) t

val make : name:string -> ('c -> 'a) -> ('c, 'a) t
val identity : ?name:string -> unit -> ('a, 'a) t
val name : (_, _) t -> string
val apply : ('c, 'a) t -> 'c -> 'a
val compose : ?name:string -> ('b, 'a) t -> ('c, 'b) t -> ('c, 'a) t

exception Not_total of string

val tabulate :
  ?partial:bool -> ('c, 'a) t -> 'c Explicit.t -> 'a Explicit.t -> int array
(** [tabulate alpha c a] is the index table [t] with [t.(i)] the abstract
    index of the image of concrete state [i].  Raises {!Not_total} if some
    image is not a state of [a] (the mapping must be total).  With
    [~partial:true] ([a] is a compiled fragment of the abstract space,
    e.g. a sparse compile of its legitimate orbit) such an image maps to
    [-1] instead. *)

val is_onto : int array -> num_abstract:int -> bool
(** Surjectivity of a tabulated abstraction. *)

val identity_table : int -> int array
