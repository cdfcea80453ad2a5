(* Transient-fault models.

   The paper's faults are perturbations of the system state ("transient
   faults that may arbitrarily corrupt the process states").  Two
   mechanizations are provided:

   - state perturbation for simulations: corrupt some variables of a
     concrete state (the convention used throughout the paper — a fault
     simply drops the system in an arbitrary state);

   - fault programs for model checking: the fault transition relation as
     guarded actions, so that a "system [] faults" composition can be
     explored explicitly (e.g. to compute fault spans). *)

open Cr_guarded

let corrupt_slot ~rng layout (s : Layout.state) ~slot : Layout.state =
  let d = Layout.dom layout slot in
  if d <= 1 then Array.copy s
  else begin
    let s' = Array.copy s in
    (* pick a *different* value so the fault is a real perturbation *)
    let v = Random.State.int rng (d - 1) in
    s'.(slot) <- (if v >= s.(slot) then v + 1 else v);
    s'
  end

let corrupt_one ~rng layout (s : Layout.state) : Layout.state =
  let n = Layout.num_vars layout in
  let mutable_slots =
    List.filter (fun i -> Layout.dom layout i > 1) (List.init n (fun i -> i))
  in
  match mutable_slots with
  | [] -> Array.copy s
  | slots ->
      let slot = List.nth slots (Random.State.int rng (List.length slots)) in
      corrupt_slot ~rng layout s ~slot

let corrupt_k ~rng layout (s : Layout.state) ~k : Layout.state =
  let rec go s k = if k <= 0 then s else go (corrupt_one ~rng layout s) (k - 1) in
  go (Array.copy s) k

let randomize ~rng layout : Layout.state =
  Array.init (Layout.num_vars layout) (fun i ->
      Random.State.int rng (Layout.dom layout i))

(* The full transient-fault transition relation as a program: one action
   per (slot, value).  Composing [p [] faults (Program.layout p)] yields a
   system whose reachable set from the initial states is the fault span
   under unboundedly many faults (for our layouts: the whole space). *)
let faults layout =
  let n = Layout.num_vars layout in
  let acts =
    List.concat_map
      (fun slot ->
        let d = Layout.dom layout slot in
        if d <= 1 then []
        else
          List.init d (fun v ->
              Action.make
                ~label:(Printf.sprintf "fault_%s=%d" (Layout.var_name layout slot) v)
                ~proc:(-1)
                ~guard:(fun s -> s.(slot) <> v)
                ~assign:[ (slot, fun _ -> v) ]
                ()))
      (List.init n (fun i -> i))
  in
  Program.make ~name:"faults" ~layout ~actions:acts ~initial:(fun _ -> true)
