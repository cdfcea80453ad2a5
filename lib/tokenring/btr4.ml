(* The 4-state solution of the BTR problem (Section 4 of the paper).

   Every process j has two booleans c.j and up.j, with up.0 = true and
   up.N = false pinned.  The mapping (abstraction function alpha4) from
   (c, up) states to BTR token states is the one given in Section 4:

     ↑t.N ≡ c.N ≠ c.(N-1) ∧ up.(N-1)
     ↓t.0 ≡ c.0 = c.1    ∧ ¬up.1
     ↑t.j ≡ c.j ≠ c.(j-1) ∧ up.(j-1) ∧ ¬up.j     (0 < j < N)
     ↓t.j ≡ c.j = c.(j+1) ∧ ¬up.(j+1) ∧ up.j     (0 < j < N)

   The wrappers refine trivially: W1' is vacuous (its effect is implied by
   its guard) and W2' is vacuous because no (c, up) state maps to a state
   with both ↑t.j and ↓t.j at one process (↑t.j needs ¬up.j, ↓t.j needs
   up.j).  [C1] is the paper's concrete system (own-state writes only) and
   [dijkstra4] the guard-relaxed optimization, Dijkstra's 4-state ring. *)

open Cr_guarded

type state = Layout.state

(* Layout: slots 0..n are c_j; slots n+1..2n+1 are up_j (pinned at both
   ends). *)
let layout n =
  Btr.check_n n;
  let cs = List.init (n + 1) (fun j -> (Printf.sprintf "c%d" j, 2)) in
  let ups =
    List.init (n + 1) (fun j ->
        (Printf.sprintf "up%d" j, if j = 0 || j = n then 1 else 2))
  in
  Layout.make (cs @ ups)

let c_slot _n j = j
let up_slot n j = n + 1 + j

let c _n (s : state) j = s.(j)

let up n (s : state) j =
  if j = 0 then true else if j = n then false else s.(up_slot n j) = 1

(* The Section 4 mapping, as an abstraction function into Btr states. *)
let to_tokens n (s : state) : Btr.state =
  let ts = ref [] in
  if c n s n <> c n s (n - 1) && up n s (n - 1) then ts := Btr.Up n :: !ts;
  if c n s 0 = c n s 1 && not (up n s 1) then ts := Btr.Down 0 :: !ts;
  for j = 1 to n - 1 do
    if c n s j <> c n s (j - 1) && up n s (j - 1) && not (up n s j) then
      ts := Btr.Up j :: !ts;
    if c n s j = c n s (j + 1) && not (up n s (j + 1)) && up n s j then
      ts := Btr.Down j :: !ts
  done;
  Btr.state_of_tokens n !ts

(* The rank of [to_tokens n s] in BTR's layout without building it, in
   one branch-free fold over the neighbour pairs (j, j+1) that carries
   up.j: a pair with up.j and not up.(j+1) holds ↑t.(j+1) when the
   colours differ and ↓t.j when they agree; no other pair holds either
   token.  Slot [up_slot n n] is pinned at 0, which is up.N, and up.0
   (pinned true) starts the fold. *)
let token_rank n =
  let btr = Btr.layout n in
  let wu = Array.init (n + 1) (fun j -> Layout.weight btr (Btr.up_slot n j))
  and wd = Array.init (n + 1) (fun j -> Layout.weight btr (Btr.dn_slot n j)) in
  fun (s : state) ->
    let r = ref 0 and up_j = ref 1 in
    for j = 0 to n - 1 do
      let up_next = s.(up_slot n (j + 1)) in
      let differ = s.(c_slot n j) lxor s.(c_slot n (j + 1)) in
      r :=
        !r
        + (!up_j land (1 - up_next))
          * ((differ * wu.(j + 1)) + ((1 - differ) * wd.(j)));
      up_j := up_next
    done;
    !r

let alpha n =
  Cr_semantics.Abstraction.make ~name:(Printf.sprintf "alpha4(%d)" n)
    ~rank:(token_rank n) (to_tokens n)

let token_count n s = Btr.token_count n (to_tokens n s)

let one_token n s = token_count n s = 1

(* Canonical legitimate configuration: all colours equal, every interior
   up flag raised — its image is the single token ↓t.(N-1).  The initial
   states of the concrete systems are its reachability orbit (the states
   fault-free executions range over); see DESIGN.md section 2. *)
let canonical n : state =
  let s = Array.make (2 * (n + 1)) 0 in
  for j = 1 to n - 1 do
    s.(up_slot n j) <- 1
  done;
  s

let flip b = 1 - b

(* C1: the refinement of BTR_4 to the concrete model (Section 4.2) —
   processes write only their own state; the commented-out clauses of the
   paper are dropped. *)
let c1_actions n =
  let top =
    Action.make ~label:"top" ~proc:n
      ~guard:(fun s -> c n s n <> c n s (n - 1) && up n s (n - 1))
      ~assign:[ (c_slot n n, fun s -> c n s (n - 1)) ]
      ()
  in
  let bottom =
    Action.make ~label:"bottom" ~proc:0
      ~guard:(fun s -> c n s 0 = c n s 1 && not (up n s 1))
      ~assign:[ (c_slot n 0, fun s -> flip (c n s 0)) ]
      ()
  in
  let mids =
    List.concat_map
      (fun j ->
        [
          Action.make
            ~label:(Printf.sprintf "mid_up%d" j)
            ~proc:j
            ~guard:(fun s ->
              c n s j <> c n s (j - 1) && up n s (j - 1) && not (up n s j))
            ~assign:
              [
                (c_slot n j, fun s -> c n s (j - 1));
                (up_slot n j, fun _ -> 1);
              ]
            ();
          Action.make
            ~label:(Printf.sprintf "mid_dn%d" j)
            ~proc:j
            ~guard:(fun s ->
              c n s j = c n s (j + 1) && not (up n s (j + 1)) && up n s j)
            ~assign:[ (up_slot n j, fun _ -> 0) ]
            ();
        ])
      (List.init (max 0 (n - 1)) (fun k -> k + 1))
  in
  top :: bottom :: mids

let c1 n =
  Program.make ~name:(Printf.sprintf "C1(%d)" n) ~layout:(layout n)
    ~actions:(c1_actions n)
    ~initial:(one_token n)
  |> Program.with_initial_closure ~seeds:[ canonical n ]

(* Dijkstra's 4-state system: C1 [] W1' [] W2' with the guards of the top
   and mid-up actions relaxed (end of Section 4). *)
let dijkstra4_actions n =
  let top =
    Action.make ~label:"top" ~proc:n
      ~guard:(fun s -> c n s n <> c n s (n - 1))
      ~assign:[ (c_slot n n, fun s -> c n s (n - 1)) ]
      ()
  in
  let bottom =
    Action.make ~label:"bottom" ~proc:0
      ~guard:(fun s -> c n s 1 = c n s 0 && not (up n s 1))
      ~assign:[ (c_slot n 0, fun s -> flip (c n s 0)) ]
      ()
  in
  let mids =
    List.concat_map
      (fun j ->
        [
          Action.make
            ~label:(Printf.sprintf "mid_up%d" j)
            ~proc:j
            ~guard:(fun s -> c n s j <> c n s (j - 1))
            ~assign:
              [
                (c_slot n j, fun s -> c n s (j - 1));
                (up_slot n j, fun _ -> 1);
              ]
            ();
          Action.make
            ~label:(Printf.sprintf "mid_dn%d" j)
            ~proc:j
            ~guard:(fun s ->
              c n s (j + 1) = c n s j && not (up n s (j + 1)) && up n s j)
            ~assign:[ (up_slot n j, fun _ -> 0) ]
            ();
        ])
      (List.init (max 0 (n - 1)) (fun k -> k + 1))
  in
  top :: bottom :: mids

let dijkstra4 n =
  Program.make
    ~name:(Printf.sprintf "Dijkstra4(%d)" n)
    ~layout:(layout n) ~actions:(dijkstra4_actions n)
    ~initial:(one_token n)
  |> Program.with_initial_closure ~seeds:[ canonical n ]

(* Vacuity of the refined wrappers (Section 4.1), as checkable facts. *)

(* W1' is vacuous: its guard (all up.j for j≠N, c.(N-1) ≠ c.N) already
   implies its postcondition ↑t.N, i.e. firing it changes nothing. *)
let w1'_guard n s =
  let all_up = ref true in
  for j = 1 to n - 1 do
    if not (up n s j) then all_up := false
  done;
  !all_up && c n s (n - 1) <> c n s n

let w1'_vacuous n s = (not (w1'_guard n s)) || Btr.up n (to_tokens n s) n

(* W2' is vacuous: no state maps to both ↑t.j and ↓t.j at one process. *)
let w2'_vacuous n s =
  let ts = to_tokens n s in
  let ok = ref true in
  for j = 1 to n - 1 do
    if Btr.up n ts j && Btr.dn n ts j then ok := false
  done;
  !ok
