(* The new 3-state system of Section 6.

   C3 uses the same mod-3 mapping as Section 5 but implements token moves
   the other way around: a mid process *creates* the moved token by
   writing its own counter (c.j := c.(j+1) ⊕ 1 for an up-move), instead of
   deleting its own token as C2 does.  In illegitimate states this can
   leave the old token in place (the paper's τ-step stuttering: the
   assignment may be a no-op on the abstract image, or even on the
   concrete state itself, in which case it generates no transition).

   The module also provides the "aggressive W2'" variant from the end of
   Section 6, which the paper refines into Dijkstra's 3-state system. *)

open Cr_guarded

type state = Layout.state

let layout = Btr3.layout
let c = Btr3.c
let p1 = Btr3.p1
let has_up = Btr3.has_up
let has_dn = Btr3.has_dn
let to_tokens = Btr3.to_tokens
let alpha = Btr3.alpha
let initial = Btr3.one_token
let canonical = Btr3.canonical

let mid_indices n = List.init (max 0 (n - 1)) (fun k -> k + 1)

let c3_actions n =
  let mids =
    List.concat_map
      (fun j ->
        [
          Action.make
            ~label:(Printf.sprintf "mid_up%d" j)
            ~proc:j
            ~guard:(fun s -> has_up n s j)
            (* create ↑t.(j+1) ≡ c.j = c.(j+1) ⊕ 1 *)
            ~assign:[ (j, fun s -> p1 (c s (j + 1))) ]
            ();
          Action.make
            ~label:(Printf.sprintf "mid_dn%d" j)
            ~proc:j
            ~guard:(fun s -> has_dn n s j)
            (* create ↓t.(j-1) ≡ c.j = c.(j-1) ⊕ 1 *)
            ~assign:[ (j, fun s -> p1 (c s (j - 1))) ]
            ();
        ])
      (mid_indices n)
  in
  Btr3.top_action n :: Btr3.bottom_action n :: mids

let c3 n =
  Program.make ~name:(Printf.sprintf "C3(%d)" n) ~layout:(layout n)
    ~actions:(c3_actions n) ~initial:(initial n)
  |> Program.with_initial_closure ~seeds:[ canonical n ]

(* The new 3-state stabilizing system: C3 [] W1'' [] W2' (Theorem 13). *)
let new3 n =
  Program.box_list
    ~name:(Printf.sprintf "C3[]W1''[]W2'(%d)" n)
    (c3 n)
    [ Btr3.w1_local n; Btr3.w2' n ]

let new3_priority n =
  let wrappers =
    Program.box ~name:"W1''[]W2'" (Btr3.w1_local n) (Btr3.w2' n)
  in
  Program.box_priority
    ~name:(Printf.sprintf "C3[]!(W1''[]W2')(%d)" n)
    (c3 n) wrappers

(* End of Section 6: the aggressive-W2' variant — ↑t.j is deleted when
   ↑t.(j+1) also holds, and ↓t.j when ↓t.(j-1) also holds — merged into
   the mid actions as displayed in the paper. *)
let aggressive_actions n =
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
                    else if c s j = p1 (c s (j + 1)) then c s (j - 1)
                    else p1 (c s (j + 1)) );
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
                    if c s (j - 1) = c s (j + 1) then c s (j + 1)
                    else if c s j = p1 (c s (j - 1)) then c s (j + 1)
                    else p1 (c s (j - 1)) );
              ]
            ();
        ])
      (mid_indices n)
  in
  top :: Btr3.bottom_action n :: mids

let aggressive n =
  Program.make
    ~name:(Printf.sprintf "C3-aggressive(%d)" n)
    ~layout:(layout n) ~actions:(aggressive_actions n) ~initial:(initial n)
  |> Program.with_initial_closure ~seeds:[ canonical n ]
