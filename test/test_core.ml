(* Tests for the core refinement and stabilization checkers on handcrafted
   systems, including the paper's Figure 1 counterexample. *)

open Cr_semantics

let check = Alcotest.(check bool)

let mk name states step init =
  Explicit.of_system
    (System.make ~name ~states ~step ~is_initial:init ~pp:Fmt.int ())

(* ---- Figure 1 (Section 2.1): refinement alone does not preserve
   stabilization.  States: 0,1,2,3 and s* = 9.  In both A and C, the only
   computation from the initial state 0 is 0 1 2 3; A also has 9 -> 2, C
   does not. *)

let fig1_states = [ 0; 1; 2; 3; 9 ]

let fig1_a =
  mk "fig1-A" fig1_states
    (function 0 -> [ 1 ] | 1 -> [ 2 ] | 2 -> [ 3 ] | 9 -> [ 2 ] | _ -> [])
    (fun s -> s = 0)

let fig1_c =
  mk "fig1-C" fig1_states
    (function 0 -> [ 1 ] | 1 -> [ 2 ] | 2 -> [ 3 ] | _ -> [])
    (fun s -> s = 0)

let test_fig1_init_refinement () =
  check "[C ⊑ A]_init holds" true
    (Cr_core.Refine.init_refinement ~c:fig1_c ~a:fig1_a ()).Cr_core.Refine.holds

let test_fig1_a_self_stabilizing () =
  check "A stabilizing to A" true
    (Cr_core.Stabilize.self_stabilizing fig1_a).Cr_core.Stabilize.holds

let test_fig1_c_not_stabilizing () =
  let r = Cr_core.Stabilize.stabilizing_to ~c:fig1_c ~a:fig1_a () in
  check "C not stabilizing to A" false r.Cr_core.Stabilize.holds;
  (* the witness is the deadlock at the faulted state s* = 9 *)
  check "witness is s*" true
    (match r.Cr_core.Stabilize.bad_terminal with
    | Some i -> Explicit.state fig1_c i = 9
    | None -> false)

let test_fig1_not_convergence_refinement () =
  check "[C ⪯ A] fails" false
    (Cr_core.Refine.convergence_refinement ~c:fig1_c ~a:fig1_a ())
      .Cr_core.Refine.holds

(* ---- everywhere refinement preserves stabilization (Theorem 0) on a
   small instance: C takes a subset of A's recovery edges. *)

let a_sys =
  mk "A" [ 0; 1; 2 ]
    (function 2 -> [ 1; 0 ] | 1 -> [ 0 ] | _ -> [])
    (fun s -> s = 0)

let c_sys =
  mk "C" [ 0; 1; 2 ]
    (function 2 -> [ 1 ] | 1 -> [ 0 ] | _ -> [])
    (fun s -> s = 0)

let test_everywhere_refinement () =
  check "[C ⊑ A]" true
    (Cr_core.Refine.everywhere_refinement ~c:c_sys ~a:a_sys ()).Cr_core.Refine.holds;
  check "Theorem 0 witnessed" true
    (Cr_core.Theorems.theorem_0 ~c:c_sys ~a:a_sys ~b:a_sys () = Cr_core.Theorems.Witnessed)

(* ---- convergence refinement with compression: C jumps 3 -> 0 while A
   recovers 3 -> 2 -> 1 -> 0; same endpoints, interior states dropped. *)

let a_chainrec =
  mk "A-chain" [ 0; 1; 2; 3 ]
    (function 3 -> [ 2 ] | 2 -> [ 1 ] | 1 -> [ 0 ] | _ -> [])
    (fun s -> s = 0)

let c_compress =
  mk "C-compress" [ 0; 1; 2; 3 ]
    (function 3 -> [ 0 ] | 2 -> [ 1 ] | 1 -> [ 0 ] | _ -> [])
    (fun s -> s = 0)

let test_compression_ok () =
  let r = Cr_core.Refine.convergence_refinement ~c:c_compress ~a:a_chainrec () in
  check "[C ⪯ A] holds with compression" true r.Cr_core.Refine.holds;
  Alcotest.(check int) "one compression" 1 r.Cr_core.Refine.stats.Cr_core.Refine.compressions;
  Alcotest.(check int) "dropped two states" 2 r.Cr_core.Refine.stats.Cr_core.Refine.max_dropped;
  (* not an everywhere refinement: 3 -> 0 is not an A-transition *)
  check "[C ⊑ A] fails" false
    (Cr_core.Refine.everywhere_refinement ~c:c_compress ~a:a_chainrec ())
      .Cr_core.Refine.holds;
  check "Theorem 1 witnessed" true
    (Cr_core.Theorems.theorem_1 ~c:c_compress ~a:a_chainrec ~b:a_chainrec ()
    = Cr_core.Theorems.Witnessed)

(* ---- different recovery path: C recovers 3 -> 9 -> 0 through a state A
   never visits on its own recovery.  This is an everywhere-eventually
   refinement but NOT a convergence refinement (Section 7's example). *)

let a_oddpath =
  mk "A-odd" [ 0; 1; 3; 9 ]
    (function 3 -> [ 1 ] | 1 -> [ 0 ] | 9 -> [ 0 ] | _ -> [])
    (fun s -> s = 0)

let c_evenpath =
  mk "C-even" [ 0; 1; 3; 9 ]
    (function 3 -> [ 9 ] | 9 -> [ 0 ] | 1 -> [ 0 ] | _ -> [])
    (fun s -> s = 0)

let test_everywhere_eventually_vs_convergence () =
  check "[C ⊑_ee A] holds" true
    (Cr_core.Refine.everywhere_eventually_refinement ~c:c_evenpath ~a:a_oddpath ())
      .Cr_core.Refine.holds;
  (* 3 -> 9 is not matched by any A-path from 3 *)
  check "[C ⪯ A] fails (different recovery path)" false
    (Cr_core.Refine.convergence_refinement ~c:c_evenpath ~a:a_oddpath ())
      .Cr_core.Refine.holds

(* ---- compression on a cycle must be rejected (omissions unbounded). *)

let a_cycle =
  mk "A-cycle" [ 0; 1; 2 ]
    (function 0 -> [ 1 ] | 1 -> [ 2 ] | 2 -> [ 0 ] | _ -> [])
    (fun s -> s = 0)

let c_shortcut =
  mk "C-shortcut" [ 0; 1; 2 ]
    (function 0 -> [ 2 ] | 2 -> [ 0 ] | 1 -> [ 2 ] | _ -> [])
    (fun s -> s = 0)

let test_compression_on_cycle_rejected () =
  let r = Cr_core.Refine.convergence_refinement ~c:c_shortcut ~a:a_cycle () in
  check "fails" false r.Cr_core.Refine.holds;
  check "reports compression on cycle" true
    (List.exists
       (function Cr_core.Refine.Compression_on_cycle _ -> true | _ -> false)
       r.Cr_core.Refine.failures)

(* ---- terminal mismatch: C halts where A must continue. *)

let c_halts =
  mk "C-halts" [ 0; 1; 2 ]
    (function 2 -> [ 1 ] | _ -> [])
    (fun s -> s = 0)

let test_terminal_mismatch () =
  let r = Cr_core.Refine.convergence_refinement ~c:c_halts ~a:a_chainrec () in
  check "fails" false r.Cr_core.Refine.holds;
  check "reports terminal mismatch" true
    (List.exists
       (function Cr_core.Refine.Terminal_not_terminal _ -> true | _ -> false)
       r.Cr_core.Refine.failures)

(* ---- graybox wrapping (Theorems 3 and 5) on a small shared state space:
   A moves 0<-1 only, W repairs 2 -> 1, C compresses 2's behaviour. *)

let w_sys =
  mk "W" [ 0; 1; 2 ] (function 2 -> [ 1 ] | _ -> []) (fun s -> s = 0)

let w'_sys =
  (* W' = W here (a convergence refinement of itself) *)
  mk "W'" [ 0; 1; 2 ] (function 2 -> [ 1 ] | _ -> []) (fun s -> s = 0)

let a_move = mk "A2" [ 0; 1; 2 ] (function 1 -> [ 0 ] | _ -> []) (fun s -> s = 0)

let c_move = mk "C2" [ 0; 1; 2 ] (function 1 -> [ 0 ] | _ -> []) (fun s -> s = 0)

let test_graybox () =
  let box x y = Explicit.box x y in
  check "Theorem 3 witnessed" true
    (Cr_core.Theorems.theorem_3 ~box ~c:c_move ~a:a_move ~w:w_sys ()
    = Cr_core.Theorems.Witnessed);
  check "Theorem 5 witnessed" true
    (Cr_core.Theorems.theorem_5 ~box ~c:c_move ~a:a_move ~w:w_sys ~w':w'_sys ()
    = Cr_core.Theorems.Witnessed)

(* ---- stabilization checker details *)

let test_stabilize_reports () =
  let r = Cr_core.Stabilize.stabilizing_to ~c:c_compress ~a:a_chainrec () in
  check "holds" true r.Cr_core.Stabilize.holds;
  Alcotest.(check int) "legitimate = reach(A)" 1 r.Cr_core.Stabilize.legitimate;
  Alcotest.(check (option int))
    "worst-case recovery" (Some 2) r.Cr_core.Stabilize.worst_case_recovery

let test_stabilize_cycle_witness () =
  (* C has a cycle 1 <-> 2 outside the legitimate region *)
  let c =
    mk "C-osc" [ 0; 1; 2 ]
      (function 1 -> [ 2 ] | 2 -> [ 1 ] | _ -> [])
      (fun s -> s = 0)
  in
  let r = Cr_core.Stabilize.stabilizing_to ~c ~a:a_chainrec () in
  check "fails" false r.Cr_core.Stabilize.holds;
  check "cycle witness found" true (r.Cr_core.Stabilize.bad_cycle <> None)

let test_stutter_allow () =
  (* C loops between two micro-states both mapping to the converged
     abstract state 0 (like the bytecode machine's loop iterations).
     Strict mode rejects the loop; stutter-tolerant mode accepts it
     because the image 0 can end a computation of A. *)
  let c =
    mk "C-micro" [ 0; 1 ]
      (function 0 -> [ 1 ] | 1 -> [ 0 ] | _ -> [])
      (fun s -> s = 0)
  in
  let a = mk "A-done" [ 0 ] (fun _ -> []) (fun s -> s = 0) in
  let alpha =
    Abstraction.tabulate (Abstraction.make ~name:"collapse" (fun _ -> 0)) c a
  in
  check "forbid: fails" false
    (Cr_core.Stabilize.stabilizing_to ~alpha ~c ~a ()).Cr_core.Stabilize.holds;
  check "allow: holds" true
    (Cr_core.Stabilize.stabilizing_to ~alpha ~stutter:`Allow ~c ~a ())
      .Cr_core.Stabilize.holds;
  (* but a pure-stutter cycle at a non-terminal image is rejected even in
     allow mode: A is obliged to move, C never does *)
  let a2 = mk "A-moves" [ 0; 9 ] (function 0 -> [ 9 ] | _ -> []) (fun s -> s = 0) in
  let alpha2 =
    Abstraction.tabulate (Abstraction.make ~name:"collapse" (fun _ -> 0)) c a2
  in
  check "allow at non-terminal image: fails" false
    (Cr_core.Stabilize.stabilizing_to ~alpha:alpha2 ~stutter:`Allow ~c ~a:a2 ())
      .Cr_core.Stabilize.holds

let test_fair_stabilization () =
  (* Divergent cycle 1 <-> 2, but action "exit" (1 -> 0) is continuously
     enabled on it: under weak fairness the system stabilizes. *)
  let c =
    mk "C-fairexit" [ 0; 1; 2 ]
      (function 1 -> [ 2; 0 ] | 2 -> [ 1 ] | _ -> [])
      (fun s -> s = 0)
  in
  let a = mk "A-target" [ 0; 1; 2 ] (fun _ -> []) (fun s -> s = 0) in
  let alpha = Abstraction.tabulate (Abstraction.make ~name:"id" (fun s -> s)) c a in
  (* actions: osc1 (1->2), osc2 (2->1), exit (1->0, also enabled at 2 via
     2 -> ... no: keep exit enabled at both 1 and 2 to make it
     continuously enabled on the cycle; at 2 it moves to 1 first. *)
  let next_exit = [| 0; 0; -1 |] in
  (* exit enabled at 0? no: -1 *)
  next_exit.(0) <- -1;
  let tables = [| [| -1; 2; -1 |] (* osc1 *); [| -1; -1; 1 |] (* osc2 *); next_exit |] in
  check "unfair: fails" false
    (Cr_core.Stabilize.stabilizing_to ~alpha ~c ~a ()).Cr_core.Stabilize.holds;
  let r = Cr_core.Stabilize.stabilizing_to ~alpha ~fair:tables ~c ~a () in
  (* exit is enabled at 1 but NOT at 2, so it is not continuously enabled:
     the cycle is weakly fair and stabilization still fails. *)
  check "weak fairness with intermittently enabled exit: still fails" false
    r.Cr_core.Stabilize.holds;
  (* now make exit enabled at 2 as well (2 -> 0): continuously enabled on
     the cycle but never taken inside it -> cycle unfair -> stabilizes *)
  let c2 =
    mk "C-fairexit2" [ 0; 1; 2 ]
      (function 1 -> [ 2; 0 ] | 2 -> [ 1; 0 ] | _ -> [])
      (fun s -> s = 0)
  in
  let alpha2 = Abstraction.tabulate (Abstraction.make ~name:"id" (fun s -> s)) c2 a in
  let tables2 = [| [| -1; 2; -1 |]; [| -1; -1; 1 |]; [| -1; 0; 0 |] |] in
  check "unfair: fails" false
    (Cr_core.Stabilize.stabilizing_to ~alpha:alpha2 ~c:c2 ~a ()).Cr_core.Stabilize.holds;
  check "weak fairness: holds" true
    (Cr_core.Stabilize.stabilizing_to ~alpha:alpha2 ~fair:tables2 ~c:c2 ~a ())
      .Cr_core.Stabilize.holds

let test_strength_chain () =
  List.iter
    (fun (c, a) ->
      check "strength chain" true (Cr_core.Theorems.strength_chain ~c ~a ()))
    [
      (fig1_c, fig1_a);
      (c_sys, a_sys);
      (c_compress, a_chainrec);
      (c_evenpath, a_oddpath);
      (c_shortcut, a_cycle);
    ]

(* ---- the spec enters a stabilization verdict only through its
   legitimate orbit L: checking against A's init-reachable sub-system,
   with images outside it tabulated to -1, gives the report of the full
   A — in every stutter mode, with and without weak fairness. *)

let edge_sys name states edges init =
  mk name states
    (fun s ->
      List.filter_map (fun (i, j) -> if i = s && i <> j then Some j else None) edges)
    (fun s -> s = init)

let rec orbit edges seen =
  let next =
    List.sort_uniq compare
      (seen @ List.filter_map (fun (i, j) -> if List.mem i seen then Some j else None) edges)
  in
  if next = seen then seen else orbit edges next

let gen_orbit_case =
  QCheck2.Gen.(
    let* nc = int_range 1 7 in
    let* na = int_range 1 5 in
    let edges n m = list_size (int_bound m) (pair (int_bound (n - 1)) (int_bound (n - 1))) in
    let* cedges = edges nc 14 in
    let* aedges = edges na 8 in
    let* ainit = int_bound (na - 1) in
    let* img = array_size (return nc) (int_bound (na - 1)) in
    return (nc, cedges, na, aedges, ainit, img))

let prop_legit_orbit =
  QCheck2.Test.make ~name:"stabilization reads the spec only through L"
    ~count:500 gen_orbit_case (fun (nc, cedges, na, aedges, ainit, img) ->
      let c = edge_sys "C" (List.init nc Fun.id) cedges 0 in
      let a = edge_sys "A" (List.init na Fun.id) aedges ainit in
      (* reversed, so sub-system indices differ from the full ones *)
      let a_l = edge_sys "A" (List.rev (orbit aedges [ ainit ])) aedges ainit in
      let f = Abstraction.make ~name:"img" (fun s -> img.(s)) in
      let alpha = Abstraction.tabulate f c a in
      let alpha_l = Abstraction.tabulate ~partial:true f c a_l in
      (* one action per successor rank: action k takes the k-th edge *)
      let tables =
        Array.init nc (fun k ->
            Array.init nc (fun i ->
                if k < Explicit.out_degree c i then Explicit.successor c i k
                else -1))
      in
      List.for_all
        (fun (stutter, fair) ->
          let run a alpha =
            { (Cr_core.Stabilize.stabilizing_to ~alpha ?fair ~stutter ~c ~a ())
              with Cr_core.Stabilize.cost = None }
          in
          run a alpha = run a_l alpha_l)
        [ (`Forbid, None); (`Allow, None); (`Forbid, Some tables); (`Allow, Some tables) ])

let () =
  Alcotest.run "core"
    [
      ( "figure1",
        [
          Alcotest.test_case "init refinement holds" `Quick
            test_fig1_init_refinement;
          Alcotest.test_case "A self-stabilizing" `Quick
            test_fig1_a_self_stabilizing;
          Alcotest.test_case "C not stabilizing (counterexample)" `Quick
            test_fig1_c_not_stabilizing;
          Alcotest.test_case "C not a convergence refinement" `Quick
            test_fig1_not_convergence_refinement;
        ] );
      ( "refinement",
        [
          Alcotest.test_case "everywhere refinement + Theorem 0" `Quick
            test_everywhere_refinement;
          Alcotest.test_case "compression accepted + Theorem 1" `Quick
            test_compression_ok;
          Alcotest.test_case "ee-refinement vs convergence (Section 7)" `Quick
            test_everywhere_eventually_vs_convergence;
          Alcotest.test_case "compression on cycle rejected" `Quick
            test_compression_on_cycle_rejected;
          Alcotest.test_case "terminal mismatch rejected" `Quick
            test_terminal_mismatch;
          Alcotest.test_case "graybox Theorems 3 and 5" `Quick test_graybox;
        ] );
      ( "stabilization",
        [
          Alcotest.test_case "report fields" `Quick test_stabilize_reports;
          Alcotest.test_case "cycle witness" `Quick test_stabilize_cycle_witness;
          Alcotest.test_case "stutter-tolerant mode" `Quick test_stutter_allow;
          Alcotest.test_case "weak fairness" `Quick test_fair_stabilization;
          Alcotest.test_case "strength chain" `Quick test_strength_chain;
          QCheck_alcotest.to_alcotest prop_legit_orbit;
        ] );
    ]
