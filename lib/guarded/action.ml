(* A guarded command: guard -> parallel assignment, with the owning
   process as metadata (used by the synchronous daemon and by
   pretty-printers).  The assigned slots are the action's writes. *)

type state = Layout.state

type t = {
  label : string;
  proc : int;  (* owning process; -1 for global wrappers *)
  guard : state -> bool;
  assign : (int * (state -> int)) array;  (* read the pre-state *)
}

(* A slot assigned twice would count twice in a rank delta. *)
let make ~label ?(proc = -1) ~guard ~assign () =
  let slots = List.map fst assign in
  if List.length (List.sort_uniq Int.compare slots) < List.length slots then
    invalid_arg (Printf.sprintf "Action.make: %s assigns a slot twice" label);
  { label; proc; guard; assign = Array.of_list assign }

let label t = t.label
let proc t = t.proc
let writes t = Array.to_list (Array.map fst t.assign)

let enabled t s = t.guard s

(* Fire the action; [None] when disabled or when every assigned value
   equals the pre-state's (no-op steps are stuttering, cf. DESIGN.md
   section 2), so a state is copied only for a real step. *)
let fire t s =
  if (not (t.guard s)) || Array.for_all (fun (x, e) -> e s = s.(x)) t.assign
  then None
  else begin
    let s' = Array.copy s in
    Array.iter (fun (x, e) -> s'.(x) <- e s) t.assign;
    Some s'
  end
