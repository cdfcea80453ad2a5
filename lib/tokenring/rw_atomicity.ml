(* Atomicity refinement of Dijkstra's 3-state ring (extension experiment
   E17; cf. the paper's Section 7 discussion of atomicity-refinement work
   [3,10] and its closing remark on refinement tools for common fault
   classes).

   The paper's concrete execution model still lets a process *read* both
   neighbours and write its own state in one atomic step.  Real message-
   passing systems cannot: a process first copies a neighbour's counter
   into a local cache and later acts on the (possibly stale) cache.  This
   module implements that read/write refinement of Dijkstra's 3-state
   system:

     read_prev.j : cp.j := c.(j-1)       (one atomic neighbour read)
     read_next.j : cn.j := c.(j+1)
     act.j       : the Dijkstra-3 action of process j, with c.(j-1)/c.(j+1)
                   replaced by cp.j/cn.j in guard and assignment.

   Per process we add caches only for the neighbours its action actually
   reads: bottom caches c.1; top caches c.(N-1) and c.0; mids cache both
   neighbours.  The abstraction back to the 3-state space forgets the
   caches.

   Expected results (asserted in the test suite, reported in the bench
   tables): the read/write system is NOT stabilizing to BTR under an
   unconstrained daemon — stale caches let a process act on a token that
   has already moved, re-creating tokens forever — but every
   reachable-from-initial behaviour still refines Dijkstra-3 modulo
   stuttering (the reads are τ-steps).  This reproduces, in the small,
   why the paper calls low-atomicity stabilization-preserving refinement
   an open problem for compilers. *)

open Cr_guarded

type state = Layout.state

(* Layout: slots 0..n are c_j; then caches in a fixed order:
   cp_j for j in 1..n (cache of c.(j-1)), cn_j for j in 0..n-1 (cache of
   c.(j+1)), and ca_0 at the top process caching c.0. *)
let layout n =
  Btr.check_n n;
  let cs = List.init (n + 1) (fun j -> (Printf.sprintf "c%d" j, 3)) in
  let cps = List.init n (fun i -> (Printf.sprintf "cp%d" (i + 1), 3)) in
  let cns = List.init n (fun j -> (Printf.sprintf "cn%d" j, 3)) in
  let ca = [ ("ca0", 3) ] in
  Layout.make (cs @ cps @ cns @ ca)

let c (s : state) j = s.(j)
let cp_slot n j = n + 1 + (j - 1) (* j in 1..n *)
let cn_slot n j = n + 1 + n + j (* j in 0..n-1 *)
let ca0_slot n = n + 1 + n + n

let cp n (s : state) j = s.(cp_slot n j)
let cn n (s : state) j = s.(cn_slot n j)
let ca0 n (s : state) = s.(ca0_slot n)

let p1 = Btr3.p1

(* Forget the caches. *)
let to_counters n (s : state) : Btr3.state = Array.sub s 0 (n + 1)

(* Both ranks read the counters, slots 0..n, in place: Dijkstra-3's
   layout is the counters alone, so its rank folds just those slots. *)
let alpha_counters n =
  Cr_semantics.Abstraction.make
    ~name:(Printf.sprintf "forget-caches(%d)" n)
    ~rank:(Layout.rank (Btr3.layout n))
    (to_counters n)

let to_tokens n (s : state) : Btr.state = Btr3.to_tokens n (to_counters n s)

let alpha n =
  Cr_semantics.Abstraction.make
    ~name:(Printf.sprintf "alpha3-rw(%d)" n)
    ~rank:(Btr3.token_rank n) (to_tokens n)

let actions n =
  let reads =
    List.concat
      [
        (* every j in 1..n caches its left neighbour *)
        List.init n (fun i ->
            let j = i + 1 in
            Action.make
              ~label:(Printf.sprintf "read_prev%d" j)
              ~proc:j
              ~guard:(fun s -> cp n s j <> c s (j - 1))
              ~assign:[ (cp_slot n j, fun s -> c s (j - 1)) ]
              ());
        (* every j in 0..n-1 caches its right neighbour *)
        List.init n (fun j ->
            Action.make
              ~label:(Printf.sprintf "read_next%d" j)
              ~proc:j
              ~guard:(fun s -> cn n s j <> c s (j + 1))
              ~assign:[ (cn_slot n j, fun s -> c s (j + 1)) ]
              ());
        (* the top process also caches c.0 *)
        [
          Action.make ~label:"read_zero" ~proc:n
            ~guard:(fun s -> ca0 n s <> c s 0)
            ~assign:[ (ca0_slot n, fun s -> c s 0) ]
            ();
        ];
      ]
  in
  let top =
    Action.make ~label:"top" ~proc:n
      ~guard:(fun s -> cp n s n = ca0 n s && p1 (cp n s n) <> c s n)
      ~assign:[ (n, fun s -> p1 (cp n s n)) ]
      ()
  in
  let bottom =
    Action.make ~label:"bottom" ~proc:0
      ~guard:(fun s -> cn n s 0 = p1 (c s 0))
      ~assign:[ (0, fun s -> p1 (cn n s 0)) ]
      ()
  in
  let mids =
    List.concat_map
      (fun j ->
        [
          Action.make
            ~label:(Printf.sprintf "mid_up%d" j)
            ~proc:j
            ~guard:(fun s -> cp n s j = p1 (c s j))
            ~assign:[ (j, fun s -> cp n s j) ]
            ();
          Action.make
            ~label:(Printf.sprintf "mid_dn%d" j)
            ~proc:j
            ~guard:(fun s -> cn n s j = p1 (c s j))
            ~assign:[ (j, fun s -> cn n s j) ]
            ();
        ])
      (List.init (max 0 (n - 1)) (fun k -> k + 1))
  in
  reads @ (top :: bottom :: mids)

(* Canonical state: Dijkstra-3's canonical counters with coherent caches. *)
let canonical n : state =
  let counters = Btr3.canonical n in
  let s = Array.make (Layout.num_vars (layout n)) 0 in
  Array.blit counters 0 s 0 (n + 1);
  for j = 1 to n do
    s.(cp_slot n j) <- counters.(j - 1)
  done;
  for j = 0 to n - 1 do
    s.(cn_slot n j) <- counters.(j + 1)
  done;
  s.(ca0_slot n) <- counters.(0);
  s

let program n =
  Program.make
    ~name:(Printf.sprintf "Dijkstra3-rw(%d)" n)
    ~layout:(layout n) ~actions:(actions n)
    ~initial:(fun _ -> false)
  |> Program.with_initial_closure ~seeds:[ canonical n ]

(* Coherence: do the caches agree with the counters they mirror? *)
let coherent n (s : state) =
  let ok = ref true in
  for j = 1 to n do
    if cp n s j <> c s (j - 1) then ok := false
  done;
  for j = 0 to n - 1 do
    if cn n s j <> c s (j + 1) then ok := false
  done;
  if ca0 n s <> c s 0 then ok := false;
  !ok
