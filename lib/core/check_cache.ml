(* No verdict is memoized; [clear_all] is a no-op kept for the scenario
   bench's replay. *)
let clear_all () = ()
