(* E14: convergence cost of the derived stabilizing systems.

   For each system and ring size, the exact worst-case recovery (longest
   path to the converged region, from the model checker) and Monte-Carlo
   mean recovery under a random central daemon.  The reproducible "shape":
   every system recovers in O(N^2)-ish steps and the ranking is stable;
   Dijkstra's 3-state pays more than the 4-state in the worst case. *)

open Cr_guarded

type row = {
  system : string;
  n : int;
  states : int;
  worst_case : int;  (* exact, adversarial daemon *)
  mean_random : float;  (* Monte-Carlo, random daemon, random faults *)
  max_random : int;
}

let measure ~(name : string) ~(mk : int -> Program.t)
    ~(mk_spec : int -> Program.t)
    ~(alpha : int -> (Layout.state, Layout.state) Cr_semantics.Abstraction.t)
    ~samples n : row =
  let p = mk n in
  let e = Program.to_explicit p in
  let r = Registry.stabilizing ~alpha:(alpha n) e (mk_spec n) () in
  if not r.Cr_core.Stabilize.holds then
    invalid_arg (name ^ ": system unexpectedly not stabilizing");
  let worst = Option.value ~default:0 r.Cr_core.Stabilize.worst_case_recovery in
  (* converged = the checker's Good region, so the simulated and exact
     numbers measure the same event *)
  let good = r.Cr_core.Stabilize.good_mask in
  let converged s =
    Cr_kernel.Bitset.get good (Cr_semantics.Explicit.find e s)
  in
  let stats =
    Cr_sim.Runner.convergence_stats ~samples ~max_steps:1_000_000 ~seed:7
      ~converged
      (fun i -> Cr_sim.Daemon.random ~seed:(1000 + i))
      p
  in
  {
    system = name;
    n;
    states = Cr_semantics.Explicit.num_states e;
    worst_case = worst;
    mean_random = stats.Cr_sim.Runner.mean_steps;
    max_random = stats.Cr_sim.Runner.max_steps_observed;
  }

let dijkstra3_row ?(samples = 200) n =
  measure ~name:"Dijkstra-3state" ~mk:Cr_tokenring.Btr3.dijkstra3
    ~mk_spec:Cr_tokenring.Btr.program ~alpha:Cr_tokenring.Btr3.alpha ~samples n

let dijkstra4_row ?(samples = 200) n =
  measure ~name:"Dijkstra-4state" ~mk:Cr_tokenring.Btr4.dijkstra4
    ~mk_spec:Cr_tokenring.Btr.program ~alpha:Cr_tokenring.Btr4.alpha ~samples n

let c1_row ?(samples = 200) n =
  measure ~name:"C1 (4-state)" ~mk:Cr_tokenring.Btr4.c1
    ~mk_spec:Cr_tokenring.Btr.program ~alpha:Cr_tokenring.Btr4.alpha ~samples n

let kstate_row ?(samples = 200) n =
  let k = n + 1 in
  measure ~name:"K-state (K=N+1)"
    ~mk:(fun n -> Cr_tokenring.Kstate.program ~n ~k)
    ~mk_spec:Cr_tokenring.Utr.program
    ~alpha:(fun n -> Cr_tokenring.Kstate.alpha ~n ~k)
    ~samples n

(* The priority-composed new 3-state system of Theorem 13 cannot be
   simulated by the plain daemon runner (wrapper preemption changes the
   enabled set), so its random-daemon mean is measured on the explicit
   graph instead. *)
let mean_on_explicit ?(samples = 200) ~seed e ~converged_idx =
  let rng = Random.State.make [| seed |] in
  let n = Cr_semantics.Explicit.num_states e in
  let total = ref 0 and count = ref 0 and maxi = ref 0 in
  for _ = 1 to samples do
    let start = Random.State.int rng n in
    let rec go i k =
      if converged_idx i then Some k
      else if k > 1_000_000 then None
      else
        match Cr_semantics.Explicit.out_degree e i with
        | 0 -> None
        | d ->
            go (Cr_semantics.Explicit.successor e i (Random.State.int rng d))
              (k + 1)
    in
    match go start 0 with
    | Some k ->
        incr count;
        total := !total + k;
        if k > !maxi then maxi := k
    | None -> ()
  done;
  (float_of_int !total /. float_of_int (max 1 !count), !maxi, !count)

let new3_priority_row ?(samples = 200) n : row =
  let p, is_w = Cr_tokenring.C3_system.new3_priority n in
  let e = Program.to_explicit ~priority_of:is_w p in
  let r =
    Registry.stabilizing ~alpha:(Cr_tokenring.C3_system.alpha n) e
      (Cr_tokenring.Btr.program n) ()
  in
  let converged_idx = Cr_kernel.Bitset.get r.Cr_core.Stabilize.good_mask in
  let mean, maxi, _ = mean_on_explicit ~samples ~seed:13 e ~converged_idx in
  {
    system = "new-3state (C3[]!W)";
    n;
    states = Cr_semantics.Explicit.num_states e;
    worst_case = Option.value ~default:0 r.Cr_core.Stabilize.worst_case_recovery;
    mean_random = mean;
    max_random = maxi;
  }
