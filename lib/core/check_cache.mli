(** No verdict is memoized: {!Refine} and {!Stabilize} run their checker
    on every call. *)

val clear_all : unit -> unit
(** A no-op, kept only because [scenario_bench/replay.ml] resets every
    cache between measured rounds (as it calls the no-op
    [Cr_guarded.Program.clear_compile_cache]). *)
