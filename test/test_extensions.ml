(* Tests for the extension experiments (E16-E18) and the supporting
   machinery: synchronous semantics, read/write atomicity refinement,
   exact hitting times, and the packaged graybox workflow. *)

let check = Alcotest.(check bool)

(* ---- E16: synchronous daemon ---- *)

let test_synchronous_semantics () =
  (* synchronous Dijkstra-3 is deterministic: every state has <= 1
     successor *)
  let e =
    Cr_guarded.Program.to_explicit_synchronous (Cr_tokenring.Btr3.dijkstra3 3)
  in
  let ok = ref true in
  for i = 0 to Cr_semantics.Explicit.num_states e - 1 do
    if Array.length (Cr_semantics.Explicit.successors e i) > 1 then ok := false
  done;
  check "deterministic" true !ok

let test_synchronous_stabilization () =
  List.iter
    (fun n ->
      check "Dijkstra3 sync" true
        (Cr_experiments.Ext_exps.sync_dijkstra3 n)
          .Cr_experiments.Ext_exps.stabilizes;
      check "Dijkstra4 sync" true
        (Cr_experiments.Ext_exps.sync_dijkstra4 n)
          .Cr_experiments.Ext_exps.stabilizes;
      check "Kstate sync" true
        (Cr_experiments.Ext_exps.sync_kstate n).Cr_experiments.Ext_exps.stabilizes)
    [ 2; 3 ]

let test_synchronous_vs_interleaving_consistency () =
  (* every synchronous transition is a composition of interleaved
     transitions on the same program?  Not in general (simultaneous writes
     interleave differently), but the synchronous step from a coherent
     single-token state coincides with firing the unique enabled process *)
  let n = 3 in
  let p = Cr_tokenring.Btr3.dijkstra3 n in
  let s = Cr_tokenring.Btr3.canonical n in
  match (Cr_guarded.Program.synchronous_step p s, Cr_guarded.Program.step p s) with
  | Some s', [ s'' ] -> check "same step" true (s' = s'')
  | _ -> Alcotest.fail "expected unique steps"

(* ---- E17: read/write atomicity ---- *)

let test_rw_layout_and_coherence () =
  let n = 2 in
  let s = Cr_tokenring.Rw_atomicity.canonical n in
  check "canonical coherent" true (Cr_tokenring.Rw_atomicity.coherent n s);
  check "counters projected" true
    (Cr_tokenring.Rw_atomicity.to_counters n s = Cr_tokenring.Btr3.canonical n);
  (* a read action repairs a stale cache *)
  let p = Cr_tokenring.Rw_atomicity.program n in
  let stale = Array.copy s in
  stale.(Cr_guarded.Layout.slot (Cr_tokenring.Rw_atomicity.layout n) "cp1") <-
    (s.(0) + 1) mod 3;
  check "stale not coherent" false (Cr_tokenring.Rw_atomicity.coherent n stale);
  let read1 =
    List.find
      (fun a -> Cr_guarded.Action.label a = "read_prev1")
      (Cr_guarded.Program.actions p)
  in
  (match Cr_guarded.Action.fire read1 stale with
  | Some repaired ->
      check "read repairs the cache" true
        (Cr_tokenring.Rw_atomicity.cp n repaired 1 = s.(0))
  | None -> Alcotest.fail "read should fire on a stale cache")

let test_rw_verdicts () =
  let v = Cr_experiments.Ext_exps.rw_experiment 2 in
  check "fault-free orbit keeps one token" true
    v.Cr_experiments.Ext_exps.fault_free_coherent_tokens;
  check "fault-free orbit refines Dijkstra-3 modulo read stutters" true
    v.Cr_experiments.Ext_exps.init_refines_dijkstra3;
  check "NOT stabilizing under the unconstrained daemon" false
    v.Cr_experiments.Ext_exps.stabilizes_unfair;
  check "NOT stabilizing even under weak fairness" false
    v.Cr_experiments.Ext_exps.stabilizes_fair

(* ---- E18: hitting times ---- *)

let test_hitting_small () =
  (* chain 2 -> 1 -> 0 with target {0}: E[1]=1, E[2]=2 *)
  let succ = Cr_kernel.Csr.of_rows [| [||]; [| 0 |]; [| 1 |] |] in
  let e =
    Cr_checker.Hitting.expected ~succ ~target:(Graph_ref.mask 3 [ 0 ]) ()
  in
  Alcotest.(check (float 1e-6)) "E[0]" 0.0 e.(0);
  Alcotest.(check (float 1e-6)) "E[1]" 1.0 e.(1);
  Alcotest.(check (float 1e-6)) "E[2]" 2.0 e.(2);
  (* branch: 2 -> {0, 1}, 1 -> 0: E[2] = 1 + (0 + 1)/2 = 1.5 *)
  let succ2 = Cr_kernel.Csr.of_rows [| [||]; [| 0 |]; [| 0; 1 |] |] in
  let e2 =
    Cr_checker.Hitting.expected ~succ:succ2 ~target:(Graph_ref.mask 3 [ 0 ]) ()
  in
  Alcotest.(check (float 1e-6)) "E[2] branch" 1.5 e2.(2);
  (* unreachable target is infinite *)
  let succ3 = [| [||]; [| 1 |] |] in
  ignore succ3;
  let e3 =
    Cr_checker.Hitting.expected
      ~succ:(Cr_kernel.Csr.of_rows [| [||]; [||] |])
      ~target:(Graph_ref.mask 2 [ 0 ]) ()
  in
  check "unreachable infinite" true (e3.(1) = infinity)

let test_hitting_geometric () =
  (* 1 -> {0, 1'}, 1' -> 1: a cycle with 1/2 escape per visit to 1.
     E[1] = 1 + (0 + E[1'])/2, E[1'] = 1 + E[1]  =>  E[1] = 3. *)
  let succ = Cr_kernel.Csr.of_rows [| [||]; [| 0; 2 |]; [| 1 |] |] in
  let e =
    Cr_checker.Hitting.expected ~succ ~target:(Graph_ref.mask 3 [ 0 ]) ()
  in
  Alcotest.(check (float 1e-5)) "geometric" 3.0 e.(1)

let test_hitting_vs_montecarlo () =
  (* exact expected mean agrees with a Monte-Carlo estimate on
     Dijkstra-3 at n=3 (uniform random start, uniform random daemon) *)
  let n = 3 in
  let h = Cr_experiments.Ext_exps.hitting_dijkstra3 n in
  let p = Cr_tokenring.Btr3.dijkstra3 n in
  let e = Cr_guarded.Program.to_explicit p in
  let btr = Cr_guarded.Program.to_explicit (Cr_tokenring.Btr.program n) in
  let alpha = Cr_semantics.Abstraction.tabulate (Cr_tokenring.Btr3.alpha n) e btr in
  let r = Cr_core.Stabilize.stabilizing_to ~alpha ~c:e ~a:btr () in
  let good = r.Cr_core.Stabilize.good_mask in
  let stats =
    Cr_sim.Runner.convergence_stats ~samples:4000 ~max_steps:100_000 ~seed:17
      ~converged:(fun s ->
        Cr_kernel.Bitset.get good (Cr_semantics.Explicit.find e s))
      (fun i -> Cr_sim.Daemon.random ~seed:(3 * i))
      p
  in
  let mc = stats.Cr_sim.Runner.mean_steps in
  check "MC within 15% of exact"
    true
    (Float.abs (mc -. h.Cr_experiments.Ext_exps.expected_mean)
    < 0.15 *. Float.max 1.0 h.Cr_experiments.Ext_exps.expected_mean);
  (* and the expected worst is below the adversarial worst *)
  check "E-worst <= adversarial worst" true
    (h.Cr_experiments.Ext_exps.expected_worst
    <= float_of_int h.Cr_experiments.Ext_exps.worst_exact)

(* ---- E19: fault spans ---- *)

let test_spans_basic () =
  (* 0-1 BFS on a tiny graph: program 1->0, fault 0->1, 1->2; sources {0} *)
  let succ = Cr_kernel.Csr.of_rows [| [||]; [| 0 |]; [||] |] in
  let fault_succ = [| [| 1 |]; [| 2 |]; [||] |] in
  let d = Cr_fault.Spans.min_faults ~succ ~fault_succ ~sources:[ 0 ] in
  Alcotest.(check int) "source" 0 d.(0);
  Alcotest.(check int) "one fault" 1 d.(1);
  Alcotest.(check int) "two faults" 2 d.(2)

let test_spans_dijkstra3 () =
  let n = 3 in
  let p = Cr_tokenring.Btr3.dijkstra3 n in
  let e = Cr_guarded.Program.to_explicit p in
  let rows =
    Cr_fault.Spans.analyze p e
      (Cr_experiments.Registry.stabilizing ~alpha:(Cr_tokenring.Btr3.alpha n)
         e (Cr_tokenring.Btr.program n) ())
  in
  (match rows with
  | r0 :: r1 :: _ ->
      Alcotest.(check int) "k=0 span is Good" 18 r0.Cr_fault.Spans.span;
      Alcotest.(check int) "k=0 recovery is free" 0 r0.Cr_fault.Spans.worst_recovery;
      check "one fault leaves Good" true (r1.Cr_fault.Spans.span > 18);
      check "spans grow monotonically" true
        (let rec mono = function
           | a :: (b :: _ as rest) ->
               a.Cr_fault.Spans.span <= b.Cr_fault.Spans.span && mono rest
           | _ -> true
         in
         mono rows)
  | _ -> Alcotest.fail "expected at least two rows");
  (* the final span saturates at the full state space (faults are
     unrestricted corruption) *)
  let last = List.nth rows (List.length rows - 1) in
  Alcotest.(check int) "saturates at |Sigma|" 81 last.Cr_fault.Spans.span

(* ---- graybox workflow module ---- *)

let mk name states step init =
  Cr_semantics.Explicit.of_system
    (Cr_semantics.System.make ~name ~states ~step ~is_initial:init ~pp:Fmt.int ())

let test_graybox_workflow () =
  let spec = mk "A" [ 0; 1; 2 ] (function 1 -> [ 0 ] | _ -> []) (fun s -> s = 0) in
  let wrapper = mk "W" [ 0; 1; 2 ] (function 2 -> [ 1 ] | _ -> []) (fun s -> s = 0) in
  let impl = mk "C" [ 0; 1; 2 ] (function 1 -> [ 0 ] | _ -> []) (fun s -> s = 0) in
  let r = Cr_core.Graybox.run ~spec ~wrapper ~impl () in
  check "workflow sound" true r.Cr_core.Graybox.sound;
  check "conclusion holds" true
    r.Cr_core.Graybox.conclusion.Cr_core.Stabilize.holds;
  (* with an explicit W' *)
  let w' = mk "W'" [ 0; 1; 2 ] (function 2 -> [ 1 ] | _ -> []) (fun s -> s = 0) in
  let r2 = Cr_core.Graybox.run ~w' ~spec ~wrapper ~impl () in
  check "workflow with W' sound" true r2.Cr_core.Graybox.sound

(* qcheck: on random shared-space instances the packaged workflow is
   always sound (it is Theorem 5 restated) *)
let prop_graybox_sound =
  let gen =
    QCheck2.Gen.(
      let* n = int_range 2 5 in
      let* mk_edges =
        list_size (int_bound 10) (pair (int_bound (n - 1)) (int_bound (n - 1)))
      in
      let* w_edges =
        list_size (int_bound 6) (pair (int_bound (n - 1)) (int_bound (n - 1)))
      in
      let* keep = list_repeat (List.length mk_edges) bool in
      let* i0 = int_bound (n - 1) in
      return (n, mk_edges, w_edges, keep, i0))
  in
  QCheck2.Test.make ~name:"graybox workflow is always sound" ~count:300 gen
    (fun (n, a_edges, w_edges, keep, i0) ->
      let build name edges =
        mk name
          (List.init n (fun i -> i))
          (fun s ->
            List.filter_map
              (fun (i, j) -> if i = s && i <> j then Some j else None)
              edges)
          (fun s -> s = i0)
      in
      let a = build "A" a_edges in
      let c_edges = List.filteri (fun i _ -> List.nth keep i) a_edges in
      let c = build "C" c_edges in
      let w = build "W" w_edges in
      (Cr_core.Graybox.run ~spec:a ~wrapper:w ~impl:c ()).Cr_core.Graybox.sound)

let () =
  Alcotest.run "extensions"
    [
      ( "synchronous (E16)",
        [
          Alcotest.test_case "deterministic" `Quick test_synchronous_semantics;
          Alcotest.test_case "stabilization preserved" `Quick
            test_synchronous_stabilization;
          Alcotest.test_case "consistency with interleaving" `Quick
            test_synchronous_vs_interleaving_consistency;
        ] );
      ( "read-write atomicity (E17)",
        [
          Alcotest.test_case "layout and coherence" `Quick
            test_rw_layout_and_coherence;
          Alcotest.test_case "verdicts" `Quick test_rw_verdicts;
        ] );
      ( "hitting times (E18)",
        [
          Alcotest.test_case "small chains" `Quick test_hitting_small;
          Alcotest.test_case "geometric escape" `Quick test_hitting_geometric;
          Alcotest.test_case "agrees with Monte-Carlo" `Quick
            test_hitting_vs_montecarlo;
        ] );
      ( "fault spans (E19)",
        [
          Alcotest.test_case "0-1 BFS" `Quick test_spans_basic;
          Alcotest.test_case "Dijkstra-3 spans" `Quick test_spans_dijkstra3;
        ] );
      ( "graybox workflow",
        [
          Alcotest.test_case "paper instance" `Quick test_graybox_workflow;
          QCheck_alcotest.to_alcotest prop_graybox_sound;
        ] );
    ]
