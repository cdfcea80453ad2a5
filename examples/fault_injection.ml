(* Fault-injection campaigns against the derived stabilizing rings.

   Run with:  dune exec examples/fault_injection.exe

   Injects transient faults into legitimate states of Dijkstra's 3-state,
   4-state and K-state systems and measures recovery under several
   daemons, printing a small report.  The worst case is obtained exactly
   from the model checker and realized by the adversarial daemon. *)

let pf = Format.printf

let campaign ~name (p : Cr_guarded.Program.t) ~converged ~n =
  pf "--- %s (ring 0..%d, %d states) ---@." name n
    (Cr_guarded.Layout.num_states (Cr_guarded.Program.layout p));
  (* exact worst case via the explicit graph *)
  let e = Cr_guarded.Program.to_explicit p in
  let unconverged =
    Cr_kernel.Bitset.create (Cr_semantics.Explicit.num_states e)
  in
  Cr_semantics.Explicit.iter_states e (fun i s ->
      if not (converged s) then Cr_kernel.Bitset.set unconverged i);
  (* the most steps a run stays unconverged: with the rows of the
     converged states cut, the states that reach an unconverged one are
     the unconverged ones, and the settle pass gives each one's longest
     run among them *)
  let cut =
    Cr_kernel.Csr.filter (Cr_semantics.Explicit.csr e) (fun i _ ->
        Cr_kernel.Bitset.get unconverged i)
  in
  let depth =
    match
      (Cr_checker.Paths.settle ~succ:(Cr_kernel.Csr.source cut)
         ~bad:unconverged)
        .depth
    with
    | Some depth ->
        Array.init
          (Cr_semantics.Explicit.num_states e)
          (Cr_kernel.Lane.get depth)
    | None -> failwith "the unconverged region is cyclic"
  in
  let worst = Array.fold_left max 0 depth in
  pf "exact worst-case recovery: %d steps@." worst;
  (* Monte-Carlo under random and round-robin daemons *)
  List.iter
    (fun (dname, mk) ->
      let stats =
        Cr_sim.Runner.convergence_stats ~samples:300 ~max_steps:100_000 ~seed:5
          ~converged mk p
      in
      pf "%-12s %a@." dname Cr_sim.Runner.pp_stats stats)
    [
      ("random", fun i -> Cr_sim.Daemon.random ~seed:(7 * i));
      ("round-robin", fun _ -> Cr_sim.Daemon.round_robin ());
    ];
  (* adversarial daemon realizes the exact worst case *)
  let potential s = depth.(Cr_semantics.Explicit.find e s) in
  let adv = Cr_sim.Daemon.adversarial ~name:"adversarial" ~potential in
  let start = ref None in
  Array.iteri
    (fun i v -> if v = worst && !start = None then start := Some i)
    depth;
  (match !start with
  | Some i ->
      let s0 = Cr_semantics.Explicit.state e i in
      (match
         Cr_sim.Runner.steps_to ~converged adv p ~start:s0 ~max_steps:(worst * 2)
       with
      | Some k -> pf "adversarial daemon from a worst state: %d steps@." k
      | None -> pf "adversarial daemon: did not converge (unexpected)@.")
  | None -> ());
  pf "@."

let () =
  pf "=== Fault injection campaigns ===@.@.";
  let n = 3 in
  campaign ~name:"Dijkstra 3-state" (Cr_tokenring.Btr3.dijkstra3 n)
    ~converged:(Cr_tokenring.Btr3.one_token n) ~n;
  campaign ~name:"Dijkstra 4-state" (Cr_tokenring.Btr4.dijkstra4 n)
    ~converged:(Cr_tokenring.Btr4.one_token n) ~n;
  campaign ~name:"K-state (K = N+1)" (Cr_tokenring.Kstate.program ~n ~k:(n + 1))
    ~converged:(fun s -> Cr_tokenring.Kstate.token_count n s = 1)
    ~n;

  (* one annotated single-episode trace *)
  pf "--- one recovery episode in detail (Dijkstra 3-state) ---@.";
  let p = Cr_tokenring.Btr3.dijkstra3 n in
  let rng = Random.State.make [| 11 |] in
  let s0 =
    Cr_fault.Injector.corrupt_k ~rng
      (Cr_guarded.Program.layout p)
      (Cr_tokenring.Btr3.canonical n) ~k:3
  in
  let d = Cr_sim.Daemon.round_robin () in
  let t = Cr_sim.Runner.run d p ~start:s0 ~max_steps:15 in
  pf "start: %d token(s)   %s@."
    (Cr_tokenring.Btr3.token_count n s0)
    (Cr_tokenring.Render.counters3_line n s0);
  List.iteri
    (fun i e ->
      pf "%2d %-8s -> %d token(s)   %s@." (i + 1) e.Cr_sim.Runner.action
        (Cr_tokenring.Btr3.token_count n e.Cr_sim.Runner.state)
        (Cr_tokenring.Render.counters3_line n e.Cr_sim.Runner.state))
    t.Cr_sim.Runner.steps
