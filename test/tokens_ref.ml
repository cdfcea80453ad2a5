(* The list-building ring abstractions that Cr_tokenring.Kstate.to_tokens
   and Cr_tokenring.Btr3.to_tokens replaced: the references their
   slot-writing versions are compared with over whole state spaces.
   Each builds the list of held tokens and places it with the abstract
   ring's [state_of_tokens]. *)

open Cr_tokenring

let kstate_to_tokens n (s : Kstate.state) : Utr.state =
  Utr.state_of_tokens n
    (List.filter (Kstate.has_token n s) (List.init (n + 1) (fun j -> j)))

let btr3_to_tokens n (s : Btr3.state) : Btr.state =
  let ts = ref [] in
  for j = 1 to n do
    if Btr3.has_up n s j then ts := Btr.Up j :: !ts
  done;
  for j = 0 to n - 1 do
    if Btr3.has_dn n s j then ts := Btr.Down j :: !ts
  done;
  Btr.state_of_tokens n !ts
