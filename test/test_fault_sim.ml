(* Tests for the simulation layer: daemons, traces, convergence stats and
   fault-injection episodes on the stabilizing ring systems. *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let n = 3
let d3 () = Cr_tokenring.Btr3.dijkstra3 n
let one_token s = Cr_tokenring.Btr3.one_token n s

let test_random_daemon_converges () =
  let p = d3 () in
  let stats =
    Cr_sim.Runner.convergence_stats ~samples:100 ~max_steps:10_000 ~seed:1
      ~converged:one_token
      (fun i -> Cr_sim.Daemon.random ~seed:i)
      p
  in
  check_int "all samples converge" 100 stats.Cr_sim.Runner.converged;
  check "mean positive" true (stats.Cr_sim.Runner.mean_steps >= 0.0)

let test_round_robin_converges () =
  let p = d3 () in
  let stats =
    Cr_sim.Runner.convergence_stats ~samples:50 ~max_steps:10_000 ~seed:2
      ~converged:one_token
      (fun _ -> Cr_sim.Daemon.round_robin ())
      p
  in
  check_int "all samples converge" 50 stats.Cr_sim.Runner.converged

(* Exact remaining recovery steps per state: the most steps a run can
   take outside the converged states, by the textbook reference
   ([Graph_ref.longest_within]), independent of the checker's own
   forward pass. *)
let recovery_depth e =
  let n = Cr_semantics.Explicit.num_states e in
  let adj = Array.init n (Cr_semantics.Explicit.successors e) in
  let mask =
    Array.init n (fun i -> not (one_token (Cr_semantics.Explicit.state e i)))
  in
  match Graph_ref.longest_within adj mask with
  | Ok depth -> depth
  | Error () -> Alcotest.fail "the unconverged region is cyclic"

let test_adversarial_matches_checker () =
  (* The adversarial daemon with the exact longest-path potential realizes
     the model checker's worst case. *)
  let p = d3 () in
  let e = Cr_guarded.Program.to_explicit p in
  let btr = Cr_guarded.Program.to_explicit (Cr_tokenring.Btr.program n) in
  let alpha = Cr_semantics.Abstraction.tabulate (Cr_tokenring.Btr3.alpha n) e btr in
  let r = Cr_core.Stabilize.stabilizing_to ~alpha ~c:e ~a:btr () in
  let bound =
    match r.Cr_core.Stabilize.worst_case_recovery with
    | Some b -> b
    | None -> Alcotest.fail "expected stabilization"
  in
  (* potential = exact remaining steps, from the reference longest
     path *)
  let depth = recovery_depth e in
  let potential s = depth.(Cr_semantics.Explicit.find e s) in
  let daemon = Cr_sim.Daemon.adversarial ~name:"worst" ~potential in
  (* start from a state realizing the bound *)
  let start = ref None in
  Array.iteri (fun i v -> if v = bound && !start = None then start := Some i) depth;
  match !start with
  | None -> Alcotest.fail "no state realizes the bound"
  | Some i ->
      let s0 = Cr_semantics.Explicit.state e i in
      (match
         Cr_sim.Runner.steps_to ~converged:one_token daemon p ~start:s0
           ~max_steps:(bound * 2)
       with
      | Some k -> check_int "adversarial run realizes the exact worst case" bound k
      | None -> Alcotest.fail "adversarial run did not converge")

let test_helpful_daemon_not_slower () =
  let p = d3 () in
  let e = Cr_guarded.Program.to_explicit p in
  let depth = recovery_depth e in
  let potential s = depth.(Cr_semantics.Explicit.find e s) in
  let adv = Cr_sim.Daemon.adversarial ~name:"worst" ~potential in
  let help = Cr_sim.Daemon.helpful ~name:"best" ~potential in
  let rng = Random.State.make [| 5 |] in
  let layout = Cr_guarded.Program.layout p in
  for _ = 1 to 20 do
    let s0 = Cr_fault.Injector.randomize ~rng layout in
    let k_adv =
      Cr_sim.Runner.steps_to ~converged:one_token adv p ~start:s0 ~max_steps:10_000
    in
    let k_help =
      Cr_sim.Runner.steps_to ~converged:one_token help p ~start:s0 ~max_steps:10_000
    in
    match (k_adv, k_help) with
    | Some a, Some h -> check "helpful <= adversarial" true (h <= a)
    | _ -> Alcotest.fail "both daemons must converge"
  done

let test_trace_records_actions () =
  let p = d3 () in
  let start = Cr_tokenring.Btr3.canonical n in
  let d = Cr_sim.Daemon.round_robin () in
  let t = Cr_sim.Runner.run d p ~start ~max_steps:10 in
  check_int "ten steps" 10 (List.length t.Cr_sim.Runner.steps);
  check "labels recorded" true
    (List.for_all
       (fun e -> String.length e.Cr_sim.Runner.action > 0)
       t.Cr_sim.Runner.steps)

let test_fault_episode_recovers () =
  (* inject 1..3 faults into a legitimate state, run, verify recovery and
     closure (once converged, stays converged) *)
  let p = d3 () in
  let layout = Cr_guarded.Program.layout p in
  let rng = Random.State.make [| 9 |] in
  let d = Cr_sim.Daemon.random ~seed:99 in
  for k = 1 to 3 do
    for _ = 1 to 30 do
      let s0 =
        Cr_fault.Injector.corrupt_k ~rng layout (Cr_tokenring.Btr3.canonical n) ~k
      in
      let t = Cr_sim.Runner.run d p ~start:s0 ~max_steps:2000 in
      (* first converged point within this very trace *)
      let states = List.map (fun e -> e.Cr_sim.Runner.state) t.Cr_sim.Runner.steps in
      let rec split_at_conv acc = function
        | [] -> None
        | s :: rest when one_token s -> Some (List.rev (s :: acc), rest)
        | s :: rest -> split_at_conv (s :: acc) rest
      in
      (match split_at_conv [] (s0 :: states) with
      | None -> Alcotest.fail "no recovery after faults"
      | Some (_, tail) ->
          check "closed after convergence" true (List.for_all one_token tail))
    done
  done

let test_synchronous_daemon () =
  (* Dijkstra's systems are designed for a central daemon; the synchronous
     daemon still makes progress on the canonical state. *)
  let p = d3 () in
  let s = Cr_tokenring.Btr3.canonical n in
  match Cr_sim.Daemon.synchronous_step p s with
  | None -> Alcotest.fail "synchronous step expected"
  | Some s' -> check "state changed" true (s' <> s)

let test_kstate_sim () =
  let k = n + 1 in
  let p = Cr_tokenring.Kstate.program ~n ~k in
  let stats =
    Cr_sim.Runner.convergence_stats ~samples:100 ~max_steps:100_000 ~seed:3
      ~converged:(fun s -> Cr_tokenring.Kstate.token_count n s = 1)
      (fun i -> Cr_sim.Daemon.random ~seed:(50 + i))
      p
  in
  check_int "all converge (K = N+1)" 100 stats.Cr_sim.Runner.converged

let () =
  Alcotest.run "fault-sim"
    [
      ( "daemons",
        [
          Alcotest.test_case "random converges" `Quick test_random_daemon_converges;
          Alcotest.test_case "round robin converges" `Quick
            test_round_robin_converges;
          Alcotest.test_case "adversarial realizes worst case" `Quick
            test_adversarial_matches_checker;
          Alcotest.test_case "helpful beats adversarial" `Quick
            test_helpful_daemon_not_slower;
          Alcotest.test_case "synchronous step" `Quick test_synchronous_daemon;
        ] );
      ( "episodes",
        [
          Alcotest.test_case "traces" `Quick test_trace_records_actions;
          Alcotest.test_case "fault episodes recover + closure" `Quick
            test_fault_episode_recovers;
          Alcotest.test_case "K-state simulation" `Quick test_kstate_sim;
        ] );
    ]
