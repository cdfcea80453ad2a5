(** Compatibility alias: the run journal is part of {!Obs}. *)

val git_rev : unit -> string
(** {!Obs.git_rev}. *)
