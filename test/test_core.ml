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

let test_stutter_rule () =
  (* One rule for τ-steps: inside L a transition whose image does not
     move is fine, and a state on a cycle of them is a bad seed unless
     its image is an A-terminal.  C loops between two micro-states both
     mapping to the converged abstract state 0 (like the bytecode
     machine's loop iterations); the image 0 can end a computation of
     A, so C stabilizes. *)
  let c =
    mk "C-micro" [ 0; 1 ]
      (function 0 -> [ 1 ] | 1 -> [ 0 ] | _ -> [])
      (fun s -> s = 0)
  in
  let a = mk "A-done" [ 0 ] (fun _ -> []) (fun s -> s = 0) in
  let alpha =
    Abstraction.tabulate (Abstraction.make ~name:"collapse" (fun _ -> 0)) c a
  in
  let r = Cr_core.Stabilize.stabilizing_to ~alpha ~c ~a () in
  check "τ-cycle at an A-terminal image: holds" true r.Cr_core.Stabilize.holds;
  Alcotest.(check (option int))
    "already converged" (Some 0) r.Cr_core.Stabilize.worst_case_recovery;
  (* a pure-stutter cycle at a non-terminal image is rejected: A is
     obliged to move, C never does *)
  let a2 = mk "A-moves" [ 0; 9 ] (function 0 -> [ 9 ] | _ -> []) (fun s -> s = 0) in
  let alpha2 =
    Abstraction.tabulate (Abstraction.make ~name:"collapse" (fun _ -> 0)) c a2
  in
  let r2 = Cr_core.Stabilize.stabilizing_to ~alpha:alpha2 ~c ~a:a2 () in
  check "τ-cycle at a non-terminal image: fails" false r2.Cr_core.Stabilize.holds;
  check "with the τ-cycle as its witness" true
    (r2.Cr_core.Stabilize.bad_cycle <> None);
  (* a τ-step off any cycle is invisible: C idles once at image 0, then
     takes A's step to 9 and halts there *)
  let c3 =
    mk "C-idle" [ 0; 1; 2 ]
      (function 0 -> [ 1 ] | 1 -> [ 2 ] | _ -> [])
      (fun s -> s = 0)
  in
  let alpha3 =
    Abstraction.tabulate
      (Abstraction.make ~name:"idle" (fun s -> if s = 2 then 9 else 0))
      c3 a2
  in
  let r3 = Cr_core.Stabilize.stabilizing_to ~alpha:alpha3 ~c:c3 ~a:a2 () in
  check "τ-step inside L: holds" true r3.Cr_core.Stabilize.holds;
  Alcotest.(check int) "every state converged" 3 r3.Cr_core.Stabilize.good

(* The τ-cycle test runs when any chunk of the bad-seed sweep accepted a
   τ-step.  Here only the last of four 64-state chunks has one: the cycle
   254 <-> 255 at the non-terminal image 0, while every other state
   halts at the A-terminal image 9.  Every job count rejects C with the
   reference's report. *)
let test_stutter_rule_chunked () =
  let c =
    mk "C-late" (List.init 256 Fun.id)
      (function 254 -> [ 255 ] | 255 -> [ 254 ] | _ -> [])
      (fun s -> s = 0)
  in
  let a = mk "A-moves" [ 0; 9 ] (function 0 -> [ 9 ] | _ -> []) (fun s -> s = 0) in
  let alpha =
    Abstraction.tabulate
      (Abstraction.make ~name:"late" (fun s -> if s >= 254 then 0 else 9))
      c a
  in
  let want = Stabilize_ref.stabilizing_to ~alpha ~c ~a () in
  check "the reference rejects C" false want.Stabilize_ref.holds;
  List.iter
    (fun jobs ->
      check
        (Printf.sprintf "jobs=%d: the reference's report" jobs)
        true
        (Stabilize_ref.agrees
           (Cr_kernel.Par.with_jobs jobs (fun () ->
                Cr_core.Stabilize.stabilizing_to ~alpha ~c ~a ()))
           want))
    [ 1; 2; 4 ]

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
   A — with and without weak fairness. *)

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
        (fun fair ->
          let run a alpha =
            { (Cr_core.Stabilize.stabilizing_to ~alpha ?fair ~c ~a ())
              with Cr_core.Stabilize.cost = None }
          in
          run a alpha = run a_l alpha_l)
        [ None; Some tables ])

(* ---- the one-pass route against the reference route
   (test/stabilize_ref.ml): identical reports, every field, for every
   registry entry at N = 2..4 (rw-dijkstra3, 3^14 states at N = 4, to
   N = 3) — and the weakly fair re-check where the plain verdict
   fails. *)
let reference_cases =
  List.concat_map
    (fun (e : Cr_experiments.Registry.entry) ->
      List.filter_map
        (fun n ->
          if e.name = "rw-dijkstra3" && n > 3 then None else Some (e, n))
        [ 2; 3; 4 ])
    Cr_experiments.Registry.entries

let test_matches_reference ((e : Cr_experiments.Registry.entry), n) () =
  let module R = Cr_experiments.Registry in
  let c = R.explicit e n in
  let a =
    Cr_guarded.Program.to_explicit ~space:Cr_semantics.Space.Sparse (e.spec n)
  in
  let alpha = Cr_semantics.Abstraction.tabulate ~partial:true (e.alpha n) c a in
  let stab = R.stabilization ~ep:c e n in
  let agree label ?fair () =
    check label true
      (Stabilize_ref.agrees (stab ?fair ())
         (Stabilize_ref.stabilizing_to ~alpha ?fair ~c ~a ()))
  in
  agree "plain" ();
  if not (stab ()).Cr_core.Stabilize.holds then
    agree "weakly fair" ~fair:(Cr_sim.Glue.fair_tables (e.program n) c) ()

(* ---- the bounded failure collector against the list-building route
   (test/refine_ref.ml): identical reports — verdict, stats, shown
   failures, total and printed line — for the four relations on every
   registry entry at N = 2..4 (rw-dijkstra3, whose ~10^4 failures wrap
   the collector's ring, also at N = 5..6), plain and weakly fair. *)
let refine_cases =
  List.concat_map
    (fun (e : Cr_experiments.Registry.entry) ->
      List.map
        (fun n -> (e, n))
        (if e.name = "rw-dijkstra3" then [ 2; 3; 4; 5; 6 ] else [ 2; 3; 4 ]))
    Cr_experiments.Registry.entries

let test_refine_reference ((e : Cr_experiments.Registry.entry), n) () =
  let module R = Cr_experiments.Registry in
  let c = R.init_explicit e n in
  let r = R.refining ~alpha:(e.alpha n) c (e.spec n) in
  let a = r.R.abstract in
  let alpha = Cr_semantics.Abstraction.tabulate ~partial:true (e.alpha n) c a in
  let fair = Cr_sim.Glue.fair_tables (e.program n) c in
  let got =
    R.relations r
    @ [
        ("convergence fair", r.R.convergence ~fair ());
        ("ee fair", r.R.ee ~fair ());
      ]
  in
  let want =
    Refine_ref.relations ~alpha ~c ~a ()
    @ [
        ( "convergence fair",
          Refine_ref.convergence_refinement ~alpha ~fair ~c ~a () );
        ("ee fair", Refine_ref.everywhere_eventually_refinement ~alpha ~fair ~c ~a ());
      ]
  in
  List.iter2
    (fun (label, got) (_, want) ->
      Alcotest.(check (option string))
        (Printf.sprintf "%s: no field differs" label)
        None (Refine_ref.mismatch got want))
    got want

(* Initial and terminal failures past the bound: with fewer than ten
   edge failures the report fills up with the leading initial, then the
   leading terminal failures, in ascending state order.  A = 0 <-> 1
   with I_A = {0}; C has 30 edgeless (so terminal) states whose images
   are non-terminal, plus a few stutter edges that no A-transition
   matches. *)
let test_refine_leading_failures () =
  let a = mk "A" [ 0; 1 ] (function 0 -> [ 1 ] | _ -> [ 0 ]) (fun s -> s = 0) in
  let case ~initial ~edges ~image =
    let c =
      mk "C" (List.init 30 Fun.id)
        (fun i -> List.filter_map (fun (x, y) -> if x = i then Some y else None) edges)
        initial
    in
    let alpha =
      Cr_kernel.Lane.of_array
        (Array.init 30 (fun i -> Explicit.find a (image i)))
    in
    List.iter2
      (fun (label, got) (_, want) ->
        Alcotest.(check (option string))
          (label ^ ": no field differs") None (Refine_ref.mismatch got want))
      (let open Cr_core.Refine in
       [
         ("init", init_refinement ~alpha ~c ~a ());
         ("everywhere", everywhere_refinement ~alpha ~c ~a ());
         ("convergence", convergence_refinement ~alpha ~c ~a ());
         ("ee", everywhere_eventually_refinement ~alpha ~c ~a ());
       ])
      (Refine_ref.relations ~alpha ~c ~a ())
  in
  (* 30 initial and 30 terminal failures, no edge *)
  case ~initial:(fun _ -> true) ~edges:[] ~image:(fun _ -> 1);
  (* 3 initial failures, then 27 terminal ones *)
  case ~initial:(fun i -> i < 3) ~edges:[] ~image:(fun _ -> 1);
  (* 4 stutter edges among the 26 initial failures and the terminals *)
  case
    ~initial:(fun i -> i >= 4)
    ~edges:[ (0, 1); (1, 2); (5, 6); (7, 8) ]
    ~image:(fun _ -> 1)

(* A failing edge allocates nothing: at N = 6 each of rw-dijkstra3's
   plain relations fails on 17,040 edges, and a whole check
   allocates fewer minor words than that (the list-building route
   allocated about ten words per failure). *)
let test_failures_allocate_nothing () =
  let module R = Cr_experiments.Registry in
  let e = Option.get (R.find "rw-dijkstra3") in
  let c = R.init_explicit e 6 in
  let r = R.refining ~alpha:(e.alpha 6) c (e.spec 6) in
  (* the lazily swept initial masks are the compile's, not the check's *)
  ignore (Explicit.initial_mask c);
  ignore (Explicit.initial_mask r.R.abstract);
  List.iter
    (fun (label, check_relation) ->
      let before = Gc.minor_words () in
      let report = check_relation () in
      let words = Gc.minor_words () -. before in
      Alcotest.(check int)
        (label ^ ": failures") 17_040 report.Cr_core.Refine.total_failures;
      if words >= 17_040. then
        Alcotest.failf "%s: %.0f minor words for 17040 failures" label words)
    [ ("init", r.R.init); ("everywhere", r.R.everywhere) ]

(* Every check that takes an α-table, under the name it raises with. *)
let table_checks ~c ~a =
  let open Cr_core in
  [
    ( "Stabilize.stabilizing_to",
      fun alpha -> ignore (Stabilize.stabilizing_to ~alpha ~c ~a ()) );
    ( "Refine.init_refinement",
      fun alpha -> ignore (Refine.init_refinement ~alpha ~c ~a ()) );
    ( "Refine.everywhere_refinement",
      fun alpha -> ignore (Refine.everywhere_refinement ~alpha ~c ~a ()) );
    ( "Refine.convergence_refinement",
      fun alpha -> ignore (Refine.convergence_refinement ~alpha ~c ~a ()) );
    ( "Refine.everywhere_eventually_refinement",
      fun alpha ->
        ignore (Refine.everywhere_eventually_refinement ~alpha ~c ~a ()) );
    ("Refine.classify", fun alpha -> ignore (Refine.classify ~alpha ~c ~a));
  ]

let refused what name run =
  match run () with
  | () -> Alcotest.failf "%s accepted %s" name what
  | exception Invalid_argument msg ->
      check (name ^ " names itself") true
        (String.starts_with ~prefix:(name ^ ":") msg)

(* The checkers read α-tables through unchecked lane loads, so a table
   with fewer lanes than C has states is refused at entry, by name. *)
let test_short_alpha_refused () =
  let short = Cr_kernel.Lane.of_array [| 0; 1; 2; 3 |] in
  List.iter
    (fun (name, run) ->
      refused "4 lanes for 5 states" name (fun () -> run short))
    (table_checks ~c:fig1_c ~a:fig1_a)

(* So is a lane that is not a state of A, before any lane load: lane 2
   of a 2-state A once sent [classify] past the end of A's row pointers
   and killed the process.  Stabilize reads a partial table, whose -1
   marks an image outside the compiled fragment, so it accepts -1 and
   refuses -2. *)
let test_alpha_out_of_range_refused () =
  let a = mk "A" [ 0; 1 ] (function 0 -> [ 1 ] | _ -> [ 0 ]) (fun s -> s = 0) in
  let c =
    mk "C" [ 0; 1; 2 ] (function 2 -> [ 0 ] | s -> [ s + 1 ]) (fun s -> s = 0)
  in
  List.iter
    (fun (name, run) ->
      List.iter
        (fun lane ->
          let alpha = Cr_kernel.Lane.of_array [| 0; lane; 1 |] in
          if lane = -1 && name = "Stabilize.stabilizing_to" then run alpha
          else
            refused (Printf.sprintf "lane %d of a 2-state A" lane) name
              (fun () -> run alpha))
        [ 2; 5000; -1; -2 ])
    (table_checks ~c ~a)

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
          Alcotest.test_case "a short alpha table is refused by every check"
            `Quick test_short_alpha_refused;
          Alcotest.test_case "an alpha lane outside A is refused by every check"
            `Quick test_alpha_out_of_range_refused;
        ] );
      ( "stabilization",
        [
          Alcotest.test_case "report fields" `Quick test_stabilize_reports;
          Alcotest.test_case "cycle witness" `Quick test_stabilize_cycle_witness;
          Alcotest.test_case "stutter rule" `Quick test_stutter_rule;
          Alcotest.test_case "stutter rule across sweep chunks" `Quick
            test_stutter_rule_chunked;
          Alcotest.test_case "weak fairness" `Quick test_fair_stabilization;
          Alcotest.test_case "strength chain" `Quick test_strength_chain;
          QCheck_alcotest.to_alcotest prop_legit_orbit;
        ] );
      ( "reference",
        List.map
          (fun (((e : Cr_experiments.Registry.entry), n) as case) ->
            Alcotest.test_case
              (Printf.sprintf "registry %s n=%d" e.name n)
              `Quick
              (test_matches_reference case))
          reference_cases );
      ( "refine-reference",
        Alcotest.test_case "failing edges allocate nothing" `Quick
          test_failures_allocate_nothing
        :: Alcotest.test_case "leading initial and terminal failures" `Quick
             test_refine_leading_failures
        :: List.map
             (fun (((e : Cr_experiments.Registry.entry), n) as case) ->
               Alcotest.test_case
                 (Printf.sprintf "registry %s n=%d" e.name n)
                 `Quick
                 (test_refine_reference case))
             refine_cases );
    ]
