(* The abstract bidirectional token ring BTR (Section 3 of the paper) and
   its stabilization wrappers W1 and W2.

   Processes 0..n on a bidirectional ring.  [up j] is the paper's ↑t.j
   ("j received the token from j-1", defined for j >= 1) and [dn j] is
   ↓t.j ("j received the token from j+1", defined for j <= n-1).  The
   undefined tokens ↑t.0 and ↓t.N are modelled as fixed (domain-1)
   variables so that all systems over a ring share one layout shape.

   The abstract model lets a process write its neighbours' state in one
   atomic step. *)

open Cr_guarded

type state = Layout.state

let min_ring = 1

let check_n n =
  if n < min_ring then invalid_arg "Btr: ring needs at least processes 0..1"

(* Layout: slots 0..n are up_j, slots n+1..2n+1 are dn_j. *)
let layout n =
  check_n n;
  let ups = List.init (n + 1) (fun j -> (Printf.sprintf "up%d" j, if j = 0 then 1 else 2)) in
  let dns = List.init (n + 1) (fun j -> (Printf.sprintf "dn%d" j, if j = n then 1 else 2)) in
  Layout.make (ups @ dns)

let up_slot _n j = j
let dn_slot n j = n + 1 + j

let up n (s : state) j = j <> 0 && s.(up_slot n j) = 1
let dn n (s : state) j = j <> n && s.(dn_slot n j) = 1

let token_count n (s : state) =
  let c = ref 0 in
  for j = 0 to n do
    if up n s j then incr c;
    if dn n s j then incr c
  done;
  !c

type token = Up of int | Down of int

let tokens n (s : state) =
  let acc = ref [] in
  for j = n downto 0 do
    if dn n s j then acc := Down j :: !acc;
    if up n s j then acc := Up j :: !acc
  done;
  !acc

let pp_token fmt = function
  | Up j -> Fmt.pf fmt "↑t.%d" j
  | Down j -> Fmt.pf fmt "↓t.%d" j

(* The invariant I = I1 /\ I2 /\ I3: a unique token exists.  (I4, equal
   frequency of directions, is a temporal property that follows once
   I1-I3 hold; see the paper.) *)
let invariant_i1 n s = token_count n s >= 1
let invariant_i2_i3 n s = token_count n s <= 1
let invariant n s = token_count n s = 1

(* Build a token state from a token list (for tests and traces). *)
let state_of_tokens n ts =
  let s = Array.make (2 * (n + 1)) 0 in
  List.iter
    (function
      | Up j ->
          if j < 1 || j > n then invalid_arg "Btr.state_of_tokens: bad ↑ index";
          s.(up_slot n j) <- 1
      | Down j ->
          if j < 0 || j > n - 1 then
            invalid_arg "Btr.state_of_tokens: bad ↓ index";
          s.(dn_slot n j) <- 1)
    ts;
  s

let actions n =
  check_n n;
  let top =
    Action.make ~label:"top" ~proc:n
      ~guard:(fun s -> up n s n)
      ~assign:[ (up_slot n n, fun _ -> 0); (dn_slot n (n - 1), fun _ -> 1) ]
      ()
  in
  let bottom =
    Action.make ~label:"bottom" ~proc:0
      ~guard:(fun s -> dn n s 0)
      ~assign:[ (dn_slot n 0, fun _ -> 0); (up_slot n 1, fun _ -> 1) ]
      ()
  in
  let mids =
    List.concat_map
      (fun j ->
        [
          Action.make
            ~label:(Printf.sprintf "mid_up%d" j)
            ~proc:j
            ~guard:(fun s -> up n s j)
            ~assign:
              [ (up_slot n j, fun _ -> 0); (up_slot n (j + 1), fun _ -> 1) ]
            ();
          Action.make
            ~label:(Printf.sprintf "mid_dn%d" j)
            ~proc:j
            ~guard:(fun s -> dn n s j)
            ~assign:
              [ (dn_slot n j, fun _ -> 0); (dn_slot n (j - 1), fun _ -> 1) ]
            ();
        ])
      (List.init (max 0 (n - 1)) (fun k -> k + 1))
  in
  (top :: bottom :: mids : Action.t list)

(* The initial states are the invariant's states, named as the orbit of
   one single-token state: the token visits every position, so the
   closure is exactly {s | invariant n s}, and the sparse engine seeds
   from it instead of sweeping the 4^N states of Sigma. *)
let program n =
  Program.make ~name:(Printf.sprintf "BTR(%d)" n) ~layout:(layout n)
    ~actions:(actions n)
    ~initial:(fun s -> invariant n s)
  |> Program.with_initial_closure ~seeds:[ state_of_tokens n [ Up n ] ]

(* W1: if no process other than N holds a token, create ↑t.N. *)
let w1 n =
  check_n n;
  let guard s =
    let ok = ref true in
    for j = 1 to n - 1 do
      if up n s j then ok := false
    done;
    for j = 0 to n - 1 do
      if dn n s j then ok := false
    done;
    !ok
  in
  let action =
    Action.make ~label:"W1" ~proc:n
      ~guard
      ~assign:[ (up_slot n n, fun _ -> 1) ]
      ()
  in
  Program.make ~name:"W1" ~layout:(layout n) ~actions:[ action ]
    ~initial:(fun s -> invariant n s)

(* W2: a process holding both an ↑ and a ↓ token deletes both. *)
let w2 n =
  check_n n;
  let acts =
    List.init (max 0 (n - 1)) (fun k ->
        let j = k + 1 in
        Action.make
          ~label:(Printf.sprintf "W2_%d" j)
          ~proc:j
          ~guard:(fun s -> up n s j && dn n s j)
          ~assign:[ (up_slot n j, fun _ -> 0); (dn_slot n j, fun _ -> 0) ]
          ())
  in
  Program.make ~name:"W2" ~layout:(layout n) ~actions:acts
    ~initial:(fun s -> invariant n s)

(* The wrapped system (BTR [] W1 [] W2) of Theorem 6. *)
let wrapped n =
  Program.box_list
    ~name:(Printf.sprintf "BTR[]W1[]W2(%d)" n)
    (program n) [ w1 n; w2 n ]

(* Same composition, but with the wrappers given preemptive priority (see
   DESIGN.md section 2 on wrapper semantics). *)
let wrapped_priority n =
  let wrappers = Program.box ~name:"W1[]W2" (w1 n) (w2 n) in
  Program.box_priority
    ~name:(Printf.sprintf "BTR[]!(W1[]W2)(%d)" n)
    (program n) wrappers
