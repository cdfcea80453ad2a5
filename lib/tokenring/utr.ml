(* The abstract unidirectional token ring UTR, the starting point of the
   K-state derivation in the paper's full version [4] (summarized in its
   introduction; we reconstruct it here and verify the reconstruction
   mechanically — see DESIGN.md E11).

   Processes 0..n on a unidirectional ring; a token at j moves to
   j+1 mod (n+1).  Wrappers:
   - W1u: creates a token at process 0 when the ring has none;
   - W2u: adjacent tokens either merge (the lower is absorbed into the
     upper) or cancel pairwise — both shapes occur as images of the
     K-state system's concrete moves. *)

open Cr_guarded

type state = Layout.state

let check_n n = if n < 1 then invalid_arg "Utr: ring needs processes 0..1"

let layout n =
  check_n n;
  Layout.make (List.init (n + 1) (fun j -> (Printf.sprintf "t%d" j, 2)))

let has_token (s : state) j = s.(j) = 1

let token_count (s : state) = Array.fold_left ( + ) 0 s

let tokens (s : state) =
  let acc = ref [] in
  Array.iteri (fun j v -> if v = 1 then acc := j :: !acc) s;
  List.rev !acc

let invariant s = token_count s = 1

let state_of_tokens n ts =
  let s = Array.make (n + 1) 0 in
  List.iter
    (fun j ->
      if j < 0 || j > n then invalid_arg "Utr.state_of_tokens";
      s.(j) <- 1)
    ts;
  s

let succ_proc n j = (j + 1) mod (n + 1)

let actions n =
  check_n n;
  List.init (n + 1) (fun j ->
      Action.make
        ~label:(Printf.sprintf "move%d" j)
        ~proc:j
        ~guard:(fun s -> has_token s j)
        ~assign:[ (j, fun _ -> 0); (succ_proc n j, fun _ -> 1) ]
        ())

(* The initial states are the single-token states, named as the orbit
   of one of them (the token visits every process), so the sparse
   engine seeds from it instead of sweeping Sigma. *)
let program n =
  Program.make ~name:(Printf.sprintf "UTR(%d)" n) ~layout:(layout n)
    ~actions:(actions n) ~initial:invariant
  |> Program.with_initial_closure ~seeds:[ state_of_tokens n [ 0 ] ]

let w1u n =
  let action =
    Action.make ~label:"W1u" ~proc:0
      ~guard:(fun s -> token_count s = 0)
      ~assign:[ (0, fun _ -> 1) ]
      ()
  in
  Program.make ~name:"W1u" ~layout:(layout n) ~actions:[ action ]
    ~initial:invariant

let w2u n =
  let acts =
    List.concat_map
      (fun j ->
        let j' = succ_proc n j in
        [
          Action.make
            ~label:(Printf.sprintf "W2u_merge%d" j)
            ~proc:j
            ~guard:(fun s -> has_token s j && has_token s j')
            ~assign:[ (j, fun _ -> 0) ]
            ();
          Action.make
            ~label:(Printf.sprintf "W2u_cancel%d" j)
            ~proc:j
            ~guard:(fun s -> has_token s j && has_token s j')
            ~assign:[ (j, fun _ -> 0); (j', fun _ -> 0) ]
            ();
        ])
      (List.init (n + 1) (fun j -> j))
  in
  Program.make ~name:"W2u" ~layout:(layout n) ~actions:acts
    ~initial:invariant

let wrapped n =
  Program.box_list ~name:(Printf.sprintf "UTR[]W1u[]W2u(%d)" n) (program n)
    [ w1u n; w2u n ]

let wrapped_priority n =
  let wrappers = Program.box ~name:"W1u[]W2u" (w1u n) (w2u n) in
  Program.box_priority
    ~name:(Printf.sprintf "UTR[]!(W1u[]W2u)(%d)" n)
    (program n) wrappers
