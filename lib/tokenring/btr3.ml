(* The 3-state implementation of BTR (Section 5 of the paper).

   Every process j has a mod-3 counter c.j.  The mapping (abstraction
   function alpha3) to BTR token states:

     ↑t.j ≡ c.(j-1) = c.j ⊕ 1      (1 <= j <= N)
     ↓t.j ≡ c.(j+1) = c.j ⊕ 1      (0 <= j <= N-1)

   with ⊕/⊖ addition/subtraction mod 3.  Unlike the 4-state mapping, a
   process here can map to both ↑t.j and ↓t.j, so the deletion wrapper W2'
   is not vacuous.

   This module provides:
   - [btr3]      : the abstract-model system BTR_3 (neighbour writes);
   - [w1_global] : W1', the mapped (still global) creation wrapper;
   - [w1_local]  : W1'', its local approximation at process N;
   - [w2']       : the mapped deletion wrapper;
   - [c2]        : the concrete refinement of BTR_3 (own-state writes);
   - [dijkstra3] : Dijkstra's 3-state system (the paper's final display);
   - [merged]    : the pre-simplification merged display of Section 5.2
                   (with the if-then-else mid actions), used to check the
                   paper's claim that it equals [dijkstra3]. *)

open Cr_guarded

type state = Layout.state

let layout n =
  Btr.check_n n;
  Layout.make (List.init (n + 1) (fun j -> (Printf.sprintf "c%d" j, 3)))

let c (s : state) j = s.(j)

let p1 v = (v + 1) mod 3 (* ⊕ 1 *)
let m1 v = (v + 2) mod 3 (* ⊖ 1 *)

let has_up n s j = j >= 1 && j <= n && c s (j - 1) = p1 (c s j)
let has_dn n s j = j >= 0 && j <= n - 1 && c s (j + 1) = p1 (c s j)

(* The token slots written directly: no token list, one array. *)
let to_tokens n (s : state) : Btr.state =
  let t = Array.make (2 * (n + 1)) 0 in
  for j = 1 to n do
    if has_up n s j then t.(Btr.up_slot n j) <- 1
  done;
  for j = 0 to n - 1 do
    if has_dn n s j then t.(Btr.dn_slot n j) <- 1
  done;
  t

(* The rank of [to_tokens n s] in BTR's layout without building it: the
   weight of every token slot held, summed.  It reads the counters
   c.0 .. c.N alone. *)
let token_rank n =
  let btr = Btr.layout n in
  let wu = Array.init (n + 1) (fun j -> Layout.weight btr (Btr.up_slot n j))
  and wd = Array.init (n + 1) (fun j -> Layout.weight btr (Btr.dn_slot n j)) in
  fun (s : state) ->
    let r = ref 0 in
    for j = 1 to n do
      if has_up n s j then r := !r + wu.(j)
    done;
    for j = 0 to n - 1 do
      if has_dn n s j then r := !r + wd.(j)
    done;
    !r

let alpha n =
  Cr_semantics.Abstraction.make ~name:(Printf.sprintf "alpha3(%d)" n)
    ~rank:(token_rank n) (to_tokens n)

let token_count n s = Btr.token_count n (to_tokens n s)

let one_token n s = token_count n s = 1

(* Canonical legitimate configuration: c.0 = 1, the rest 0 — the single
   token ↑t.1.  Concrete systems take their initial states to be its
   reachability orbit. *)
let canonical n : state =
  let s = Array.make (n + 1) 0 in
  s.(0) <- 1;
  s

(* Shared ring-end actions: the top and bottom actions are identical in
   BTR_3, C2, C3 and Dijkstra's 3-state system. *)
let top_action n =
  Action.make ~label:"top" ~proc:n
    ~guard:(fun s -> c s (n - 1) = p1 (c s n))
    ~assign:[ (n, fun s -> p1 (c s (n - 1))) ]
    ()

let bottom_action _n =
  Action.make ~label:"bottom" ~proc:0
    ~guard:(fun s -> c s 1 = p1 (c s 0))
    ~assign:[ (0, fun s -> p1 (c s 1)) ]
    ()

let mid_indices n = List.init (max 0 (n - 1)) (fun k -> k + 1)

(* BTR_3: the abstract-model system.  A mid process passing a token also
   writes its neighbour's counter so that the moved token is created
   unconditionally, exactly as BTR's abstract action does. *)
let btr3_actions n =
  let mids =
    List.concat_map
      (fun j ->
        [
          Action.make
            ~label:(Printf.sprintf "mid_up%d" j)
            ~proc:j
            ~guard:(fun s -> has_up n s j)
            (* ↑t.j := false via c.j := c.(j-1); ↑t.(j+1) := true via
               c.(j+1) := c.j_new ⊖ 1. *)
            ~assign:
              [ (j, fun s -> c s (j - 1)); (j + 1, fun s -> m1 (c s (j - 1))) ]
            ();
          Action.make
            ~label:(Printf.sprintf "mid_dn%d" j)
            ~proc:j
            ~guard:(fun s -> has_dn n s j)
            ~assign:
              [ (j, fun s -> c s (j + 1)); (j - 1, fun s -> m1 (c s (j + 1))) ]
            ();
        ])
      (mid_indices n)
  in
  top_action n :: bottom_action n :: mids

let btr3 n =
  Program.make ~name:(Printf.sprintf "BTR3(%d)" n) ~layout:(layout n)
    ~actions:(btr3_actions n) ~initial:(one_token n)

(* W1' (Section 5.1): the mapped creation wrapper — still global, since
   its guard inspects every process. *)
let w1_global n =
  let guard s =
    (* no token at any j <> N: all of c.0..c.(N-1) equal and no ↓t.(N-1) *)
    let all_eq = ref true in
    for j = 1 to n - 1 do
      if c s j <> c s 0 then all_eq := false
    done;
    !all_eq && c s n <> p1 (c s (n - 1))
  in
  (* ↑t.N := true, i.e. c.(N-1) = c.N ⊕ 1, i.e. c.N := c.(N-1) ⊖ 1. *)
  let action =
    Action.make ~label:"W1'" ~proc:n ~guard
      ~assign:[ (n, fun s -> m1 (c s (n - 1))) ]
      ()
  in
  Program.make ~name:"W1'" ~layout:(layout n) ~actions:[ action ]
    ~initial:(one_token n)

(* W1'' (Section 5.1): the local approximation at process N.  Note its
   effect is the paper's c.N := c.(N-1) ⊕ 1 — at token level this creates
   ↓t.(N-1) directly (the compression of W1 followed by the top action). *)
let w1_local n =
  let action =
    Action.make ~label:"W1''" ~proc:n
      ~guard:(fun s -> c s (n - 1) = c s 0 && c s n <> p1 (c s (n - 1)))
      ~assign:[ (n, fun s -> p1 (c s (n - 1))) ]
      ()
  in
  Program.make ~name:"W1''" ~layout:(layout n) ~actions:[ action ]
    ~initial:(one_token n)

(* W2' (Section 5.1): delete a co-located token pair. *)
let w2' n =
  let acts =
    List.map
      (fun j ->
        Action.make
          ~label:(Printf.sprintf "W2'_%d" j)
          ~proc:j
          ~guard:(fun s -> has_up n s j && has_dn n s j)
          ~assign:[ (j, fun s -> c s (j - 1)) ]
          ())
      (mid_indices n)
  in
  Program.make ~name:"W2'" ~layout:(layout n) ~actions:acts
    ~initial:(one_token n)

(* C2 (Section 5.2): refinement of BTR_3 to the concrete model — the
   neighbour-writing clauses are commented out. *)
let c2_actions n =
  let mids =
    List.concat_map
      (fun j ->
        [
          Action.make
            ~label:(Printf.sprintf "mid_up%d" j)
            ~proc:j
            ~guard:(fun s -> has_up n s j)
            ~assign:[ (j, fun s -> c s (j - 1)) ]
            ();
          Action.make
            ~label:(Printf.sprintf "mid_dn%d" j)
            ~proc:j
            ~guard:(fun s -> has_dn n s j)
            ~assign:[ (j, fun s -> c s (j + 1)) ]
            ();
        ])
      (mid_indices n)
  in
  top_action n :: bottom_action n :: mids

let c2 n =
  Program.make ~name:(Printf.sprintf "C2(%d)" n) ~layout:(layout n)
    ~actions:(c2_actions n) ~initial:(one_token n)
  |> Program.with_initial_closure ~seeds:[ canonical n ]

(* Dijkstra's 3-state system, as displayed at the end of Section 5. *)
let dijkstra3_actions n =
  let top =
    Action.make ~label:"top" ~proc:n
      ~guard:(fun s -> c s (n - 1) = c s 0 && p1 (c s (n - 1)) <> c s n)
      ~assign:[ (n, fun s -> p1 (c s (n - 1))) ]
      ()
  in
  let mids =
    List.concat_map
      (fun j ->
        [
          Action.make
            ~label:(Printf.sprintf "mid_up%d" j)
            ~proc:j
            ~guard:(fun s -> has_up n s j)
            ~assign:[ (j, fun s -> c s (j - 1)) ]
            ();
          Action.make
            ~label:(Printf.sprintf "mid_dn%d" j)
            ~proc:j
            ~guard:(fun s -> has_dn n s j)
            ~assign:[ (j, fun s -> c s (j + 1)) ]
            ();
        ])
      (mid_indices n)
  in
  top :: bottom_action n :: mids

let dijkstra3 n =
  Program.make
    ~name:(Printf.sprintf "Dijkstra3(%d)" n)
    ~layout:(layout n) ~actions:(dijkstra3_actions n)
    ~initial:(one_token n)
  |> Program.with_initial_closure ~seeds:[ canonical n ]

(* The merged display of Section 5.2 — (C2 [] W1'' [] W2') with W1''
   folded into the top guard and W2' into the mid actions as conditionals.
   The paper claims this system "is equal to Dijkstra's 3-state system". *)
let merged n =
  let top =
    Action.make ~label:"top" ~proc:n
      ~guard:(fun s -> c s (n - 1) = c s 0 && p1 (c s (n - 1)) <> c s n)
      ~assign:[ (n, fun s -> p1 (c s (n - 1))) ]
      ()
  in
  let mids =
    List.concat_map
      (fun j ->
        [
          Action.make
            ~label:(Printf.sprintf "mid_up%d" j)
            ~proc:j
            ~guard:(fun s -> has_up n s j)
            ~assign:
              [
                ( j,
                  fun s ->
                    if c s (j - 1) = c s (j + 1) then c s (j - 1)
                    else c s (j - 1) );
              ]
            ();
          Action.make
            ~label:(Printf.sprintf "mid_dn%d" j)
            ~proc:j
            ~guard:(fun s -> has_dn n s j)
            ~assign:
              [
                ( j,
                  fun s ->
                    if c s (j - 1) = c s (j + 1) then c s (j - 1)
                    else c s (j + 1) );
              ]
            ();
        ])
      (mid_indices n)
  in
  Program.make ~name:(Printf.sprintf "merged3(%d)" n) ~layout:(layout n)
    ~actions:(top :: bottom_action n :: mids)
    ~initial:(one_token n)
  |> Program.with_initial_closure ~seeds:[ canonical n ]

(* Compositions used by Lemmas 9, 10 and Theorem 11. *)
let btr3_wrapped n =
  Program.box_list
    ~name:(Printf.sprintf "BTR3[]W1''[]W2'(%d)" n)
    (btr3 n) [ w1_local n; w2' n ]

let c2_wrapped n =
  Program.box_list
    ~name:(Printf.sprintf "C2[]W1''[]W2'(%d)" n)
    (c2 n) [ w1_local n; w2' n ]

let btr3_wrapped_priority n =
  let wrappers = Program.box ~name:"W1''[]W2'" (w1_local n) (w2' n) in
  Program.box_priority
    ~name:(Printf.sprintf "BTR3[]!(W1''[]W2')(%d)" n)
    (btr3 n) wrappers

let c2_wrapped_priority n =
  let wrappers = Program.box ~name:"W1''[]W2'" (w1_local n) (w2' n) in
  Program.box_priority
    ~name:(Printf.sprintf "C2[]!(W1''[]W2')(%d)" n)
    (c2 n) wrappers
