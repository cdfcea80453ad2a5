(** Registry-wide abstract-interpretation audit (backs
    [crcheck flow --all]). *)

type row = {
  entry : Registry.entry;
  flow : Cr_flow.Flow.t;
  rank : Cr_flow.Rank.t option;
  verdict : bool option;
      (** the registry stabilization verdict, cross-checked when the
          state space has at most 2^17 states *)
}

val audit_entry : n:int -> Registry.entry -> row

val audit : ?n:int -> unit -> row list
(** Flow-analyze every registry system's program at ring size [n]
    (default 3). *)

val total_errors : row list -> int
(** Error-severity flow findings across the audit. *)

val to_json : n:int -> row list -> string
(** The [crcheck flow --all --json] artifact: provenance header plus
    one object per system with findings, stair, and verdict. *)

val pp_row : Format.formatter -> row -> unit
(** Full per-system report: summary, findings, stair layers, verdict. *)

val pp_summary : Format.formatter -> row list -> unit
(** One line per system. *)
