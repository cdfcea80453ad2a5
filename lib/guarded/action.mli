(** Guarded commands: [guard -> x1, ..., xk := e1, ..., ek].

    The assignment is parallel: every right-hand side reads the
    pre-state, and the assigned slots are the action's writes.  A
    firing whose every assigned value equals the pre-state's is a no-op
    (stuttering), which generates no transition. *)

type state = Layout.state

type t = private {
  label : string;
  proc : int;  (** owning process, [-1] for global wrappers *)
  guard : state -> bool;
  assign : (int * (state -> int)) array;
      (** slot and right-hand side, in the order given to {!make} *)
}

val make :
  label:string ->
  ?proc:int ->
  guard:(state -> bool) ->
  assign:(int * (state -> int)) list ->
  unit ->
  t
(** Raises [Invalid_argument], naming the action, when a slot is
    assigned twice.  {!Program.make} checks the slots against a
    layout. *)

val label : t -> string
val proc : t -> int

val writes : t -> int list
(** The assigned slots, in assignment order. *)

val enabled : t -> state -> bool

val fire : t -> state -> state option
(** [None] when the guard is false or the assignment is a no-op; else
    the post-state, the only state a firing copies. *)
