(* Dijkstra's K-state token ring on a unidirectional ring (derived from
   UTR in the paper's full version; reconstructed here).

   Every process holds a counter c.j in 0..K-1.  The bottom process 0
   fires when c.0 = c.N and increments mod K; every other process fires
   when c.j ≠ c.(j-1) and copies.  Token mapping (abstraction alpha_k):

     t.0 ≡ c.0 = c.N        t.j ≡ c.j ≠ c.(j-1)   (j >= 1)

   The classic result: the system is self-stabilizing iff K > N (for a
   central daemon), which experiment E11 reproduces — including the
   failure witness for K <= N. *)

open Cr_guarded

type state = Layout.state

let layout ~n ~k =
  if n < 1 then invalid_arg "Kstate: ring needs processes 0..1";
  if k < 2 then invalid_arg "Kstate: counters need K >= 2";
  Layout.make (List.init (n + 1) (fun j -> (Printf.sprintf "c%d" j, k)))

let c (s : state) j = s.(j)

let has_token n (s : state) j =
  if j = 0 then c s 0 = c s n else c s j <> c s (j - 1)

(* The token slots written directly: no token list, one array. *)
let to_tokens n (s : state) : Utr.state =
  let t = Array.make (n + 1) 0 in
  for j = 0 to n do
    if has_token n s j then t.(j) <- 1
  done;
  t

(* The rank of [to_tokens n s] in UTR's layout without building it. *)
let token_rank n =
  let utr = Utr.layout n in
  let w = Array.init (n + 1) (Layout.weight utr) in
  fun (s : state) ->
    let r = ref 0 in
    for j = 0 to n do
      if has_token n s j then r := !r + w.(j)
    done;
    !r

let alpha ~n ~k =
  Cr_semantics.Abstraction.make
    ~name:(Printf.sprintf "alphaK(n=%d,K=%d)" n k)
    ~rank:(token_rank n) (to_tokens n)

let token_count n s = Utr.token_count (to_tokens n s)

let initial n s = token_count n s = 1

let actions ~n ~k =
  let bottom =
    Action.make ~label:"bottom" ~proc:0
      ~guard:(fun s -> c s 0 = c s n)
      ~assign:[ (0, fun s -> (c s 0 + 1) mod k) ]
      ()
  in
  let others =
    List.init n (fun i ->
        let j = i + 1 in
        Action.make
          ~label:(Printf.sprintf "copy%d" j)
          ~proc:j
          ~guard:(fun s -> c s j <> c s (j - 1))
          ~assign:[ (j, fun s -> c s (j - 1)) ]
          ())
  in
  bottom :: others

let program ~n ~k =
  Program.make
    ~name:(Printf.sprintf "Kstate(n=%d,K=%d)" n k)
    ~layout:(layout ~n ~k) ~actions:(actions ~n ~k) ~initial:(initial n)
