(** Printing of every experiment table (DESIGN.md / EXPERIMENTS.md);
    shared by the table harness [bench/main.exe] (the ring sizes
    EXPERIMENTS.md reports, through [ns_direct] and [ns_kstate]) and
    [crcheck experiments]. *)

val all :
  ?ns:int list -> ?ns_direct:int list -> ?ns_kstate:int list -> unit -> unit
(** Print every table, sweeping ring sizes over [ns] (default 2..4).
    [ns_direct] (default [ns]) is the sweep for the cheap direct
    stabilization tables (E4, E6 and the Theorem 11 direct check), which
    scale to larger rings than the refinement tables; [ns_kstate]
    (default [ns]) is the sweep for the K-state minimality table (E11),
    whose state spaces grow as (N+1)^(N+1).

    Independent per-N rows are computed with the [CR_JOBS] domain fan-out
    (default 1); the printed output is identical for any job count. *)

val table_fig1 : unit -> unit
val table_vm : unit -> unit
val table_bidding : unit -> unit
val table_rewriting : int list -> unit
val table_kstate : int list -> unit
val table_compression : unit -> unit
val table_stutter : unit -> unit
val table_cost : int list -> unit
val table_synchronous : int list -> unit
val table_rw : unit -> unit
val table_hitting : int list -> unit
val table_spans : unit -> unit
val table_wrapper_refinement : int list -> unit
val table_mutex : int list -> unit
