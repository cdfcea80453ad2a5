(* The paper's token-ring derivation chain, mechanically verified
   (experiments E4-E13).  Expected verdicts follow EXPERIMENTS.md —
   including the places where the mechanized check *refutes* the paper's
   claim under a given execution model; those assertions pin down the
   documented discrepancies so a regression (or an encoding change) is
   noticed. *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let ns = [ 2; 3 ]

(* E4 / Theorem 6 *)
let test_theorem6 () =
  List.iter
    (fun n ->
      let v = Cr_experiments.Ring_exps.theorem6 n in
      check "union refuted (crossing cycles)" false v.Cr_experiments.Ring_exps.union;
      check "weak fairness refuted (crossings are fair)" false
        v.Cr_experiments.Ring_exps.fair;
      check "priority holds" true v.Cr_experiments.Ring_exps.priority)
    ns

(* E5 / Lemma 7 *)
let test_lemma7 () =
  List.iter
    (fun n ->
      let r = Cr_experiments.Ring_exps.lemma7 n in
      check "[C1 ⪯ BTR] holds" true r.Cr_core.Refine.holds;
      check "with real compressions" true
        (r.Cr_core.Refine.stats.Cr_core.Refine.compressions > 0))
    ns

(* E6 / Theorem 8 *)
let test_theorem8 () =
  List.iter
    (fun n ->
      let c1 = Cr_experiments.Ring_exps.theorem8_c1 n in
      let d4 = Cr_experiments.Ring_exps.theorem8_dijkstra4 n in
      check "C1 stabilizes to BTR" true c1.Cr_experiments.Ring_exps.holds;
      check "Dijkstra4 stabilizes to BTR" true d4.Cr_experiments.Ring_exps.holds)
    ns;
  let d4 = Cr_experiments.Ring_exps.theorem8_dijkstra4 3 in
  check_int "n=3: 2N legitimate token states" 6
    d4.Cr_experiments.Ring_exps.legitimate;
  Alcotest.(check (option int))
    "n=3: exact worst case" (Some 7) d4.Cr_experiments.Ring_exps.worst_case

(* E6: wrapper vacuity (Section 4.1) *)
let test_wrapper_vacuity () =
  List.iter
    (fun n ->
      let w1, w2 = Cr_experiments.Ring_exps.wrapper_vacuity n in
      check "W1' vacuous everywhere" true w1;
      check "W2' vacuous everywhere" true w2)
    ns

(* E7 / Lemma 9.  At n=2 (one middle process) even the unconstrained
   daemon suffices; from n=3 on, crossing cycles refute the union and
   weakly-fair models and preemptive wrappers are needed. *)
let test_lemma9 () =
  let v2 = Cr_experiments.Ring_exps.lemma9 2 in
  check "n=2: holds under any daemon" true v2.Cr_experiments.Ring_exps.union;
  check "n=2: holds under priority" true v2.Cr_experiments.Ring_exps.priority;
  let v3 = Cr_experiments.Ring_exps.lemma9 3 in
  check "n=3: union refuted" false v3.Cr_experiments.Ring_exps.union;
  check "n=3: weak fairness refuted" false v3.Cr_experiments.Ring_exps.fair;
  check "n=3: priority holds" true v3.Cr_experiments.Ring_exps.priority

(* Section 5.1: W1'' vs W1' and the global-wrapper composition *)
let test_wrapper_refinement () =
  List.iter
    (fun n ->
      let v = Cr_experiments.Ring_exps.wrapper_refinement n in
      check "W1'' is not an everywhere refinement of W1' (paper)" false
        v.Cr_experiments.Ring_exps.w1''_everywhere;
      check "nor a convergence refinement" false
        v.Cr_experiments.Ring_exps.w1''_convergence;
      check "global W1' composition stabilizes under priority" true
        v.Cr_experiments.Ring_exps.global_w1'_priority_stabilizes)
    [ 2; 3 ];
  (* the sharper point: with the GLOBAL W1' even n=4 stabilizes under
     preemption — the n>=4 livelock of Lemma 9 is caused by W1'''s local
     over-approximation *)
  check "global W1' fixes the n=4 preemptive livelock" true
    (Cr_experiments.Ring_exps.wrapper_refinement 4)
      .Cr_experiments.Ring_exps.global_w1'_priority_stabilizes

(* E8 / Lemma 10 (documented discrepancy from n=3) + Theorem 11 *)
let test_lemma10_and_theorem11 () =
  check "Lemma 10 holds at n=2" true
    (Cr_experiments.Ring_exps.lemma10 2).Cr_core.Refine.holds;
  check "Lemma 10 strict same-space refuted at n=3 (documented)" false
    (Cr_experiments.Ring_exps.lemma10 3).Cr_core.Refine.holds;
  List.iter
    (fun n ->
      let d3 = Cr_experiments.Ring_exps.theorem11_dijkstra3 n in
      check "Dijkstra3 stabilizes to BTR under any daemon" true
        d3.Cr_experiments.Ring_exps.holds;
      let c2w = Cr_experiments.Ring_exps.theorem11_c2w n in
      check "C2[]W1''[]W2' holds under weak fairness" true
        c2w.Cr_experiments.Ring_exps.fair)
    ns;
  let c2w3 = Cr_experiments.Ring_exps.theorem11_c2w 3 in
  check "n=3: C2[]W1''[]W2' refuted under the unconstrained daemon" false
    c2w3.Cr_experiments.Ring_exps.union;
  check "n=3: C2[]W1''[]W2' holds under priority" true
    c2w3.Cr_experiments.Ring_exps.priority;
  let d3 = Cr_experiments.Ring_exps.theorem11_dijkstra3 3 in
  Alcotest.(check (option int))
    "n=3: Dijkstra3 exact worst case" (Some 12)
    d3.Cr_experiments.Ring_exps.worst_case

(* E9 / Lemma 12 (documented discrepancy) + Theorem 13 *)
let test_lemma12_and_theorem13 () =
  List.iter
    (fun n ->
      let r = Cr_experiments.Ring_exps.lemma12 n in
      check "Lemma 12 strict is refuted (crossing compressions)" false
        r.Cr_core.Refine.holds;
      let rf = Cr_experiments.Ring_exps.lemma12 ~fairness:true n in
      check "refuted even under weak fairness" false rf.Cr_core.Refine.holds;
      let v = Cr_experiments.Ring_exps.theorem13 n in
      check "new 3-state refuted under union" false v.Cr_experiments.Ring_exps.union;
      check "new 3-state holds under priority" true
        v.Cr_experiments.Ring_exps.priority)
    ns

(* E10: the rewriting claims *)
let test_rewriting () =
  List.iter
    (fun n ->
      let merged_eq, agg_eq, w2_absorbed =
        Cr_experiments.Ring_exps.rewriting_claims n
      in
      check "merged display = Dijkstra3" true merged_eq;
      check "aggressive new-3state = Dijkstra3" true agg_eq;
      check "W2' adds no transitions over C2" true w2_absorbed)
    [ 2; 3; 4 ]

(* E11: K-state *)
let test_kstate () =
  List.iter
    (fun n ->
      let st, r = Cr_experiments.Ring_exps.kstate_checks ~n ~k:(n + 1) in
      check "K = N+1 stabilizes" true st.Cr_core.Stabilize.holds;
      check "[Kstate ⪯ UTR[]W1u[]W2u]" true r.Cr_core.Refine.holds)
    ns;
  check "K = 2 fails for n = 3" false
    (Cr_experiments.Ring_exps.kstate_stabilizes ~n:3 ~k:2).Cr_core.Stabilize.holds;
  check "K = 3 fails for n = 4" false
    (Cr_experiments.Ring_exps.kstate_stabilizes ~n:4 ~k:3).Cr_core.Stabilize.holds;
  (* the classic tight threshold: with N+1 machines, the minimal
     stabilizing K is N (machines - 1), computed exactly by the checker *)
  check_int "minimal K for n=2" 2 (Cr_experiments.Ring_exps.kstate_minimal_k 2);
  check_int "minimal K for n=3" 3 (Cr_experiments.Ring_exps.kstate_minimal_k 3);
  check_int "minimal K for n=4" 4 (Cr_experiments.Ring_exps.kstate_minimal_k 4);
  let union, priority = Cr_experiments.Ring_exps.utr_wrapped_stabilization 3 in
  check "UTR[]W union refuted" false union;
  check "UTR[]W priority holds" true priority

(* E12: the Section 4.2 compression figure *)
let test_compression_witness () =
  match Cr_experiments.Ring_exps.compression_witness 3 with
  | None -> Alcotest.fail "expected a token-losing compression in C1"
  | Some ((_, _), (_ai, _aj), path) ->
      check "BTR path has at least 2 steps" true (List.length path >= 3)

(* E13: the Section 6 stutter figure *)
let test_stutter_witness () =
  match Cr_experiments.Ring_exps.stutter_witness 2 with
  | None -> Alcotest.fail "expected a stuttering C3 state"
  | Some s ->
      check "stutter state is illegitimate" true
        (Cr_tokenring.Btr3.token_count 2 s <> 1
        || not (Cr_tokenring.C3_system.initial 2 s))

(* paper's concrete stutter instance: c = [0;2;1] at n = 2 *)
let test_paper_stutter_instance () =
  let n = 2 in
  let s = [| 0; 2; 1 |] in
  check "two up-tokens" true
    (Cr_tokenring.Btr3.has_up n s 1 && Cr_tokenring.Btr3.has_up n s 2);
  let p = Cr_tokenring.C3_system.c3 n in
  let mid_up1 =
    List.find
      (fun a -> Cr_guarded.Action.label a = "mid_up1")
      (Cr_guarded.Program.actions p)
  in
  check "enabled" true (Cr_guarded.Action.enabled mid_up1 s);
  check "its firing is a no-op (τ step)" true
    (Cr_guarded.Action.fire mid_up1 s = None)

(* The slot-writing token abstractions equal the list-building
   references (test/tokens_ref.ml) on every state of the space. *)
let test_tokens_reference () =
  let module L = Cr_guarded.Layout in
  let sweep what layout ours reference =
    L.iter_states layout (fun k s ->
        if ours s <> reference s then
          Alcotest.failf "%s: to_tokens differs at rank %d" what k)
  in
  for n = 1 to 5 do
    sweep
      (Printf.sprintf "kstate n=%d" n)
      (Cr_tokenring.Kstate.layout ~n ~k:(n + 1))
      (Cr_tokenring.Kstate.to_tokens n)
      (Tokens_ref.kstate_to_tokens n)
  done;
  for n = 1 to 7 do
    sweep
      (Printf.sprintf "dijkstra3 n=%d" n)
      (Cr_tokenring.Btr3.layout n)
      (Cr_tokenring.Btr3.to_tokens n)
      (Tokens_ref.btr3_to_tokens n)
  done

(* Abstraction sanity: alpha4 and alpha3 are total; they are onto the
   reachable token states (though not onto the full 2^(2N) token space —
   states with co-located opposite tokens have no 4-state preimage). *)
let test_abstractions () =
  let n = 3 in
  let btr = Cr_guarded.Program.to_explicit (Cr_tokenring.Btr.program n) in
  let c1 = Cr_guarded.Program.to_explicit (Cr_tokenring.Btr4.c1 n) in
  let a4 = Cr_semantics.Abstraction.tabulate (Cr_tokenring.Btr4.alpha n) c1 btr in
  check "alpha4 total" true
    (Cr_kernel.Lane.length a4 = Cr_semantics.Explicit.num_states c1);
  check "alpha4 not onto the full token space" false
    (Cr_semantics.Abstraction.is_onto a4
       ~num_abstract:(Cr_semantics.Explicit.num_states btr));
  let d3 = Cr_guarded.Program.to_explicit (Cr_tokenring.Btr3.dijkstra3 n) in
  let a3 = Cr_semantics.Abstraction.tabulate (Cr_tokenring.Btr3.alpha n) d3 btr in
  check "alpha3 total" true
    (Cr_kernel.Lane.length a3 = Cr_semantics.Explicit.num_states d3)

(* BTR basics *)
let test_btr_basics () =
  let n = 3 in
  let s = Cr_tokenring.Btr.state_of_tokens n [ Cr_tokenring.Btr.Up 2; Cr_tokenring.Btr.Down 1 ] in
  check_int "token count" 2 (Cr_tokenring.Btr.token_count n s);
  check "tokens round-trip" true
    (Cr_tokenring.Btr.tokens n s = [ Cr_tokenring.Btr.Down 1; Cr_tokenring.Btr.Up 2 ]
    || Cr_tokenring.Btr.tokens n s = [ Cr_tokenring.Btr.Up 2; Cr_tokenring.Btr.Down 1 ]);
  check "invariant unique" false (Cr_tokenring.Btr.invariant n s);
  check "I1 holds" true (Cr_tokenring.Btr.invariant_i1 n s);
  check "I2/I3 violated" false (Cr_tokenring.Btr.invariant_i2_i3 n s);
  (* undefined tokens rejected *)
  Alcotest.check_raises "no up-token at 0"
    (Invalid_argument "Btr.state_of_tokens: bad ↑ index") (fun () ->
      ignore (Cr_tokenring.Btr.state_of_tokens n [ Cr_tokenring.Btr.Up 0 ]));
  (* BTR from a unique token keeps a unique token forever *)
  let e = Cr_guarded.Program.to_explicit (Cr_tokenring.Btr.program n) in
  let reach = Cr_checker.Reach.reachable_from_initial e in
  let ok = ref true in
  List.iter
    (fun i ->
      if Cr_tokenring.Btr.token_count n (Cr_semantics.Explicit.state e i) <> 1
      then ok := false)
    (Cr_kernel.Bitset.members reach);
  check "unique token invariant closed" true !ok

(* I4: in the fault-free ring the token alternates direction — each full
   traversal bounces at top and bottom; check over one orbit. *)
let test_i4_direction_alternation () =
  let n = 3 in
  let p = Cr_tokenring.Btr.program n in
  let start = Cr_tokenring.Btr.state_of_tokens n [ Cr_tokenring.Btr.Up 1 ] in
  let d = Cr_sim.Daemon.round_robin () in
  let trace = Cr_sim.Runner.run d p ~start ~max_steps:100 in
  (* collect the sequence of bounce events (top / bottom actions) *)
  let bounces =
    List.filter_map
      (fun e ->
        match e.Cr_sim.Runner.action with
        | "top" -> Some `Top
        | "bottom" -> Some `Bottom
        | _ -> None)
      trace.Cr_sim.Runner.steps
  in
  let rec alternates = function
    | `Top :: (`Bottom :: _ as rest) -> alternates rest
    | `Bottom :: (`Top :: _ as rest) -> alternates rest
    | [ _ ] | [] -> true
    | _ -> false
  in
  check "enough bounces observed" true (List.length bounces >= 4);
  check "directions alternate (I4)" true (alternates bounces)

(* mutual-exclusion service view: safety, liveness, I4 *)
let test_mutex_service () =
  List.iter
    (fun n ->
      let p = Cr_tokenring.Btr3.dijkstra3 n in
      let e = Cr_guarded.Program.to_explicit p in
      let btr = Cr_guarded.Program.to_explicit (Cr_tokenring.Btr.program n) in
      let alpha =
        Cr_semantics.Abstraction.tabulate (Cr_tokenring.Btr3.alpha n) e btr
      in
      let r = Cr_core.Stabilize.stabilizing_to ~alpha ~c:e ~a:btr () in
      let good = r.Cr_core.Stabilize.good_mask in
      let privileged s j =
        Cr_tokenring.Btr3.has_up n s j || Cr_tokenring.Btr3.has_dn n s j
      in
      let v =
        Cr_tokenring.Mutex.check ~privileged ~num_procs:(n + 1) p ~good e
      in
      check "mutex safety" true v.Cr_tokenring.Mutex.safety;
      check "mutex liveness" true v.Cr_tokenring.Mutex.liveness;
      check "I4 equal frequency" true
        (Cr_tokenring.Mutex.i4_equal_frequency n p
           ~to_tokens:(Cr_tokenring.Btr3.to_tokens n)
           ~good e))
    [ 2; 3 ];
  (* the same checks for Dijkstra-4 *)
  let n = 3 in
  let p = Cr_tokenring.Btr4.dijkstra4 n in
  let e = Cr_guarded.Program.to_explicit p in
  let btr = Cr_guarded.Program.to_explicit (Cr_tokenring.Btr.program n) in
  let alpha = Cr_semantics.Abstraction.tabulate (Cr_tokenring.Btr4.alpha n) e btr in
  let r = Cr_core.Stabilize.stabilizing_to ~alpha ~c:e ~a:btr () in
  let good = r.Cr_core.Stabilize.good_mask in
  let privileged s j =
    let ts = Cr_tokenring.Btr4.to_tokens n s in
    Cr_tokenring.Btr.up n ts j || Cr_tokenring.Btr.dn n ts j
  in
  let v = Cr_tokenring.Mutex.check ~privileged ~num_procs:(n + 1) p ~good e in
  check "dijkstra4 safety" true v.Cr_tokenring.Mutex.safety;
  check "dijkstra4 liveness" true v.Cr_tokenring.Mutex.liveness;
  check "dijkstra4 I4" true
    (Cr_tokenring.Mutex.i4_equal_frequency n p
       ~to_tokens:(Cr_tokenring.Btr4.to_tokens n)
       ~good e)

(* rendering *)
let test_render () =
  let n = 2 in
  let s = Cr_tokenring.Btr.state_of_tokens n [ Cr_tokenring.Btr.Up 1 ] in
  Alcotest.(check string) "tokens line" "[0] [1↑] [2]"
    (Cr_tokenring.Render.tokens_line n s);
  let s3 = [| 1; 0; 0 |] in
  Alcotest.(check string) "counters line" "[0:1] [1:0↑] [2:0]"
    (Cr_tokenring.Render.counters3_line n s3);
  let u = Cr_tokenring.Utr.state_of_tokens 2 [ 1 ] in
  Alcotest.(check string) "utr line" "[0] [1●] [2]" (Cr_tokenring.Render.utr_line u)

(* The specs name their legitimate states as the orbit of one
   single-token state: that closure is exactly the invariant's states,
   swept over all of Sigma, for both rings at N = 1..8. *)
let test_spec_closures () =
  let module P = Cr_guarded.Program in
  let same_as_invariant label p invariant =
    check (label ^ ": closure-seeded") true (P.closure_seeds p <> None);
    let members = ref 0 in
    Cr_guarded.Layout.iter_states (P.layout p) (fun _ s ->
        let initial = P.initial p s in
        if initial then incr members;
        if initial <> invariant s then
          Alcotest.failf "%s: closure and invariant differ at %s" label
            (Fmt.str "%a" (Cr_guarded.Layout.pp_state (P.layout p)) s));
    !members
  in
  List.iter
    (fun n ->
      check_int
        (Printf.sprintf "BTR(%d): 2N single-token states" n)
        (2 * n)
        (same_as_invariant
           (Printf.sprintf "BTR(%d)" n)
           (Cr_tokenring.Btr.program n) (Cr_tokenring.Btr.invariant n));
      check_int
        (Printf.sprintf "UTR(%d): N+1 single-token states" n)
        (n + 1)
        (same_as_invariant
           (Printf.sprintf "UTR(%d)" n)
           (Cr_tokenring.Utr.program n) Cr_tokenring.Utr.invariant))
    [ 1; 2; 3; 4; 5; 6; 7; 8 ]

(* The rank route of [Abstraction.tabulate] (α's own rank looked up in
   the abstract graph's rank index, no image built) against the
   state-building reference (test/alpha_ref.ml), on every registry
   entry at N = 2..5 (rw-dijkstra3 at N = 2..3) and on the read/write
   ring's counter projection into Dijkstra-3: into the dense spec and
   into the sparse legitimate orbit, total and [~partial:true].  A
   [Not_total] carries the reference's message byte for byte. *)
let test_rank_route () =
  let module A = Cr_semantics.Abstraction in
  let module E = Cr_semantics.Explicit in
  let module P = Cr_guarded.Program in
  let module Space = Cr_semantics.Space in
  let module Registry = Cr_experiments.Registry in
  let refusals = ref 0 in
  let outcome f =
    match f () with
    | t -> Ok t
    | exception A.Not_total msg ->
        incr refusals;
        Error msg
  in
  let agree what alpha c spec =
    if A.rank alpha = None then Alcotest.failf "%s: alpha carries no rank" what;
    List.iter
      (fun space ->
        let a = P.to_explicit ~space spec in
        if E.rank_index a = None then
          Alcotest.failf "%s: the spec has no rank index" what;
        List.iter
          (fun partial ->
            let got =
              outcome (fun () ->
                  Cr_kernel.Lane.to_array (A.tabulate ~partial alpha c a))
            in
            let want =
              outcome (fun () ->
                  Alpha_ref.tabulate ~partial ~layout:(P.layout spec) alpha c a)
            in
            match (got, want) with
            | Ok g, Ok w when g = w -> ()
            | Error g, Error w when g = w -> ()
            | Error g, Error w -> Alcotest.failf "%s: %S <> %S" what g w
            | _ ->
                Alcotest.failf "%s (%s, partial %b): the routes differ" what
                  (Space.engine_name space) partial)
          [ false; true ])
      [ Space.Dense; Space.Sparse ]
  in
  List.iter
    (fun (e : Registry.entry) ->
      for n = 2 to if e.name = "rw-dijkstra3" then 3 else 5 do
        agree
          (Printf.sprintf "%s n=%d" e.name n)
          (e.alpha n) (Registry.explicit e n) (e.spec n)
      done)
    Registry.entries;
  let rw = Option.get (Registry.find "rw-dijkstra3") in
  for n = 2 to 3 do
    agree
      (Printf.sprintf "rw-dijkstra3 counters n=%d" n)
      (Cr_tokenring.Rw_atomicity.alpha_counters n)
      (Registry.explicit rw n) (Cr_tokenring.Btr3.dijkstra3 n)
  done;
  (* images outside the orbit: the totality refusals were compared too *)
  check "some tabulation refused" true (!refusals > 0)

let () =
  Alcotest.run "tokenring"
    [
      ( "btr",
        [
          Alcotest.test_case "token states and invariants" `Quick test_btr_basics;
          Alcotest.test_case "I4 direction alternation" `Quick
            test_i4_direction_alternation;
          Alcotest.test_case "spec closures are the invariants" `Quick
            test_spec_closures;
        ] );
      ( "theorem6",
        [ Alcotest.test_case "E4 wrapped BTR" `Quick test_theorem6 ] );
      ( "4-state",
        [
          Alcotest.test_case "E5 Lemma 7" `Quick test_lemma7;
          Alcotest.test_case "E6 Theorem 8" `Quick test_theorem8;
          Alcotest.test_case "E6 wrapper vacuity" `Quick test_wrapper_vacuity;
          Alcotest.test_case "E12 compression witness" `Quick
            test_compression_witness;
        ] );
      ( "3-state",
        [
          Alcotest.test_case "E7 Lemma 9" `Quick test_lemma9;
          Alcotest.test_case "Section 5.1 wrapper refinement" `Quick
            test_wrapper_refinement;
          Alcotest.test_case "E8 Lemma 10 + Theorem 11" `Quick
            test_lemma10_and_theorem11;
          Alcotest.test_case "E9 Lemma 12 + Theorem 13" `Quick
            test_lemma12_and_theorem13;
          Alcotest.test_case "E10 rewriting claims" `Quick test_rewriting;
          Alcotest.test_case "E13 stutter witness" `Quick test_stutter_witness;
          Alcotest.test_case "E13 paper instance" `Quick
            test_paper_stutter_instance;
        ] );
      ( "k-state",
        [ Alcotest.test_case "E11 K-state family" `Quick test_kstate ] );
      ( "abstractions",
        [
          Alcotest.test_case "totality and onto-ness" `Quick test_abstractions;
          Alcotest.test_case "to_tokens = list-building reference" `Quick
            test_tokens_reference;
          Alcotest.test_case "rank route = state route" `Quick test_rank_route;
        ] );
      ("render", [ Alcotest.test_case "ascii lines" `Quick test_render ]);
      ( "mutex service",
        [ Alcotest.test_case "safety, liveness, I4" `Quick test_mutex_service ] );
    ]
