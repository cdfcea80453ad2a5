(* Printing of every experiment table (DESIGN.md / EXPERIMENTS.md).
   Shared by the table harness bench/main.exe, which prints them at the
   ring sizes EXPERIMENTS.md reports, and by crcheck experiments. *)

let pf = Format.printf

let hr title = pf "@.======== %s ========@." title

let yn b = if b then "yes" else "NO"

(* Per-N rows of one table are independent, so they are computed with the
   CR_JOBS fan-out and printed afterwards in sweep order; the output never
   depends on the job count. *)
let par_rows = Cr_kernel.Par.map

(* ---------- experiment tables ---------- *)

let table_fig1 () =
  hr "E1  Figure 1: refinement alone is not stabilization-preserving";
  let v = Fig_exps.run () in
  pf "[C ⊑ A]_init                : %s@." (yn v.Fig_exps.c_refines_a_init);
  pf "A stabilizing to A          : %s@." (yn v.Fig_exps.a_self_stabilizing);
  pf "C stabilizing to A          : %s   <- the counterexample@."
    (yn v.Fig_exps.c_stabilizing_to_a);
  pf "[C ⪯ A]                     : %s   (⪯ would have preserved it)@."
    (yn v.Fig_exps.c_convergence_refinement)

let table_vm () =
  hr "E2  Intro: the Java compiler example";
  let v = Intro_exps.vm_experiment () in
  pf "compiler output = paper's javac listing : %s@."
    (yn v.Intro_exps.compiler_matches_paper);
  pf "source stabilizes to x=0                : %s@."
    (yn v.Intro_exps.source_stabilizes);
  pf "bytecode stabilizes to x=0              : %s@."
    (yn v.Intro_exps.bytecode_stabilizes);
  pf "bytecode refines source (fault-free)    : %s@."
    (yn v.Intro_exps.bytecode_refines_init);
  (match v.Intro_exps.bad_terminal with
  | Some s -> pf "witness: %a@." Cr_vm.Machine.pp_state s
  | None -> ())

let table_bidding () =
  hr "E3  Intro: the bidding server";
  let v = Intro_exps.bidding_experiment () in
  pf "[impl ⊑ spec]_init (fault-free)         : %s@."
    (yn v.Intro_exps.impl_refines_init);
  pf "[impl ⪯ spec]                           : %s@."
    (yn v.Intro_exps.impl_convergence);
  pf "spec keeps k-1 of best-k (sampled)      : %s@."
    (yn v.Intro_exps.spec_diff_bound_holds);
  pf "impl violates that bound                : %s@."
    (yn v.Intro_exps.impl_diff_bound_fails);
  pf "[wrapped impl ⪯ spec]                   : %s@."
    (yn v.Intro_exps.wrapped_convergence)

let wrapped_table title exp ns =
  hr title;
  pf "%-4s %-8s %-14s %-14s %-14s %s@." "N" "|Sigma|" "unfair-daemon"
    "weakly-fair" "preemptive-W" "worst(prio)";
  List.iter2
    (fun n (v : Ring_exps.wrapped_verdicts) ->
      pf "%-4d %-8d %-14s %-14s %-14s %s@." n
        v.Ring_exps.states
        (yn v.Ring_exps.union)
        (yn v.Ring_exps.fair)
        (yn v.Ring_exps.priority)
        (match v.Ring_exps.worst_priority with
        | Some w -> string_of_int w
        | None -> "-"))
    ns (par_rows exp ns)

let refinement_table title exp ns =
  hr title;
  pf "%-4s %-8s %-8s %-8s %-10s %-10s %s@." "N" "holds" "edges" "exact"
    "stutter" "compress" "max-drop";
  List.iter2
    (fun n (r : Cr_core.Refine.report) ->
      let s = r.Cr_core.Refine.stats in
      pf "%-4d %-8s %-8d %-8d %-10d %-10d %d@." n (yn r.Cr_core.Refine.holds)
        s.Cr_core.Refine.edges s.Cr_core.Refine.exact s.Cr_core.Refine.stutter
        s.Cr_core.Refine.compressions s.Cr_core.Refine.max_dropped)
    ns (par_rows exp ns)

let direct_table title exp ns =
  hr title;
  pf "%-4s %-8s %-8s %-8s %s@." "N" "|Sigma|" "|L|" "holds" "worst-case";
  List.iter2
    (fun n (v : Ring_exps.direct) ->
      pf "%-4d %-8d %-8d %-8s %s@." n v.Ring_exps.states
        v.Ring_exps.legitimate
        (yn v.Ring_exps.holds)
        (match v.Ring_exps.worst_case with
        | Some w -> string_of_int w
        | None -> "-"))
    ns (par_rows exp ns)

let table_rewriting ns =
  hr "E10 Rewriting claims (transition-graph equalities)";
  pf "%-4s %-24s %-24s %s@." "N" "merged=Dijkstra3" "aggressive=Dijkstra3"
    "C2[]W2'=C2";
  List.iter2
    (fun n (a, b, c) -> pf "%-4d %-24s %-24s %s@." n (yn a) (yn b) (yn c))
    ns (par_rows Ring_exps.rewriting_claims ns)

let table_kstate ns =
  hr "E11 K-state protocol (unidirectional ring, reconstruction)";
  pf "%-4s %-10s %-12s %-12s %-18s %s@." "N" "procs" "minimal-K"
    "K=N+1 holds" "[K ⪯ UTR[]W]" "worst(K=N+1)";
  let rows =
    par_rows
      (fun n ->
        let mk = Ring_exps.kstate_minimal_k n in
        let st = Ring_exps.kstate_stabilizes ~n ~k:(n + 1) in
        let refines =
          (Ring_exps.kstate_refines_wrapped_utr ~n ~k:(n + 1))
            .Cr_core.Refine.holds
        in
        (mk, st, refines))
      ns
  in
  List.iter2
    (fun n (mk, st, refines) ->
      pf "%-4d %-10d %-12d %-12s %-18s %s@." n (n + 1) mk
        (yn st.Cr_core.Stabilize.holds)
        (yn refines)
        (match st.Cr_core.Stabilize.worst_case_recovery with
        | Some w -> string_of_int w
        | None -> "-"))
    ns rows;
  let union, priority = Ring_exps.utr_wrapped_stabilization 3 in
  pf "(UTR[]W1u[]W2u stabilizing to UTR at N=3: unfair %s, preemptive %s)@."
    (yn union) (yn priority)

let table_compression () =
  hr "E12 A compression of C1 (the Section 4.2 figure)";
  match Ring_exps.compression_witness 3 with
  | None -> pf "no witness found (unexpected)@."
  | Some ((i, j), (ai, aj), path) ->
      let btr = Cr_guarded.Program.to_explicit (Cr_tokenring.Btr.program 3) in
      let c1 = Cr_guarded.Program.to_explicit (Cr_tokenring.Btr4.c1 3) in
      pf "C1 transition : %s -> %s@."
        (Cr_semantics.Explicit.state_to_string c1 i)
        (Cr_semantics.Explicit.state_to_string c1 j);
      pf "token images  : %s -> %s  (two tokens -> one)@."
        (Cr_semantics.Explicit.state_to_string btr ai)
        (Cr_semantics.Explicit.state_to_string btr aj);
      pf "matched by the BTR path:@.";
      List.iter
        (fun k -> pf "   %s@." (Cr_semantics.Explicit.state_to_string btr k))
        path

let table_stutter () =
  hr "E13 A τ-step of C3 (the Section 6 figure)";
  match Ring_exps.stutter_witness 2 with
  | None -> pf "no witness found (unexpected)@."
  | Some s ->
      let layout = Cr_tokenring.Btr3.layout 2 in
      pf "state %a holds tokens at:" (Cr_guarded.Layout.pp_state layout) s;
      List.iter
        (fun t -> pf " %a" Cr_tokenring.Btr.pp_token t)
        (Cr_tokenring.Btr.tokens 2 (Cr_tokenring.Btr3.to_tokens 2 s));
      pf "@.an enabled C3 action fires without changing the state: a τ step.@."

let table_cost ns =
  hr "E14 Convergence cost (exact worst case + random-daemon Monte-Carlo)";
  pf "%-22s %-4s %-8s %-7s %-9s %s@." "system" "N" "|Sigma|" "worst" "mean"
    "max-observed";
  let rows =
    List.concat
      (par_rows
         (fun n ->
           [
             Cost_exps.dijkstra3_row ~samples:200 n;
             Cost_exps.dijkstra4_row ~samples:200 n;
             Cost_exps.c1_row ~samples:200 n;
             Cost_exps.new3_priority_row ~samples:200 n;
             Cost_exps.kstate_row ~samples:200 n;
           ])
         ns)
  in
  List.iter
    (fun r ->
      pf "%-22s %-4d %-8d %-7d %-9.1f %d@." r.Cost_exps.system
        r.Cost_exps.n r.Cost_exps.states
        r.Cost_exps.worst_case
        r.Cost_exps.mean_random
        r.Cost_exps.max_random)
    rows

let table_synchronous ns =
  hr "E16 Synchronous daemon (extension): all enabled processes fire at once";
  pf "%-4s %-18s %-18s %s@." "N" "Dijkstra-3state" "Dijkstra-4state"
    "K-state(K=N+1)";
  List.iter2
    (fun n (v3, v4, vk) ->
      pf "%-4d %-18s %-18s %s@." n
        (yn v3.Ext_exps.stabilizes)
        (yn v4.Ext_exps.stabilizes)
        (yn vk.Ext_exps.stabilizes))
    ns
    (par_rows
       (fun n ->
         (Ext_exps.sync_dijkstra3 n, Ext_exps.sync_dijkstra4 n,
          Ext_exps.sync_kstate n))
       ns)

let table_rw () =
  hr "E17 Read/write atomicity refinement of Dijkstra-3 (extension)";
  let v = Ext_exps.rw_experiment 2 in
  pf "ring 0..2, %d states (counters + neighbour caches)@."
    v.Ext_exps.states;
  pf "fault-free orbit keeps a unique token          : %s@."
    (yn v.Ext_exps.fault_free_coherent_tokens);
  pf "fault-free orbit refines Dijkstra-3 (mod reads): %s@."
    (yn v.Ext_exps.init_refines_dijkstra3);
  pf "stabilizing to BTR, unconstrained daemon       : %s@."
    (yn v.Ext_exps.stabilizes_unfair);
  pf "stabilizing to BTR, weakly fair daemon         : %s@."
    (yn v.Ext_exps.stabilizes_fair);
  pf "-> single-read atomicity already breaks stabilization: the open@.";
  pf "   problem the paper's Section 7 attributes to compiler back-ends.@."

let table_hitting ns =
  hr "E18 Exact expected recovery (uniform random daemon, value iteration)";
  pf "%-18s %-4s %-16s %-16s %s@." "system" "N" "worst(advers.)" "E[steps] worst"
    "E[steps] mean";
  List.iter2
    (fun n rows ->
      List.iter
        (fun (h : Ext_exps.hitting_row) ->
          pf "%-18s %-4d %-16d %-16.2f %.2f@." h.Ext_exps.system n
            h.Ext_exps.worst_exact
            h.Ext_exps.expected_worst
            h.Ext_exps.expected_mean)
        rows)
    ns
    (par_rows
       (fun n ->
         [
           Ext_exps.hitting_dijkstra3 n;
           Ext_exps.hitting_dijkstra4 n;
           Ext_exps.hitting_kstate n;
         ])
       ns)

let table_spans () =
  hr "E19 Fault spans (extension): recovery cost vs number of faults";
  List.iter
    (fun (name, mk, mk_alpha, spec_mk) ->
      let n = 3 in
      let spec = Cr_guarded.Program.to_explicit (spec_mk n) in
      let rows =
        Cr_fault.Spans.analyze (mk n) ~spec ~abstraction:(mk_alpha n)
      in
      pf "%s (N=%d):@." name n;
      pf "  %-4s %-10s %-16s %s@." "k" "span" "worst-recovery" "E[recovery] worst";
      List.iter
        (fun (r : Cr_fault.Spans.row) ->
          pf "  %-4d %-10d %-16d %.2f@." r.Cr_fault.Spans.k r.Cr_fault.Spans.span
            r.Cr_fault.Spans.worst_recovery r.Cr_fault.Spans.expected_recovery)
        rows)
    [
      ( "Dijkstra-3state",
        Cr_tokenring.Btr3.dijkstra3,
        Cr_tokenring.Btr3.alpha,
        Cr_tokenring.Btr.program );
      ( "Dijkstra-4state",
        Cr_tokenring.Btr4.dijkstra4,
        Cr_tokenring.Btr4.alpha,
        Cr_tokenring.Btr.program );
    ]


let table_wrapper_refinement ns =
  hr "E7b Section 5.1: the local wrapper W1'' vs the global W1'";
  pf "%-4s %-14s %-14s %-14s %-14s %s@." "N" "[W1''⊑W1']in" "[W1''⊑W1']"
    "[W1''⪯W1']" "[W1''⊑ee]" "global-W1'-prio";
  List.iter2
    (fun n v ->
      pf "%-4d %-14s %-14s %-14s %-14s %s@." n
        (yn v.Ring_exps.w1''_init)
        (yn v.Ring_exps.w1''_everywhere)
        (yn v.Ring_exps.w1''_convergence)
        (yn v.Ring_exps.w1''_ee)
        (yn v.Ring_exps.global_w1'_priority_stabilizes))
    ns (par_rows Ring_exps.wrapper_refinement ns)

let table_mutex ns =
  hr "E20 Mutual-exclusion service view (extension): safety, liveness, I4";
  pf "%-4s %-18s %-9s %-10s %s@." "N" "system" "safety" "liveness" "I4";
  let rows =
    par_rows
      (fun n ->
        List.map
          (fun (name, p, to_tokens, privileged) ->
            let e = Cr_guarded.Program.to_explicit p in
            let btr =
              Cr_guarded.Program.to_explicit (Cr_tokenring.Btr.program n)
            in
            let alpha =
              Cr_semantics.Abstraction.tabulate
                (Cr_semantics.Abstraction.make ~name:"t" to_tokens)
                e btr
            in
            let r = Cr_core.Stabilize.stabilizing_to ~alpha ~c:e ~a:btr () in
            let good = r.Cr_core.Stabilize.good_mask in
            let v =
              Cr_tokenring.Mutex.check ~privileged ~num_procs:(n + 1) p ~good e
            in
            let i4 =
              Cr_tokenring.Mutex.i4_equal_frequency n p ~to_tokens ~good e
            in
            (name, v.Cr_tokenring.Mutex.safety, v.Cr_tokenring.Mutex.liveness, i4))
          [
            ( "Dijkstra-3state",
              Cr_tokenring.Btr3.dijkstra3 n,
              Cr_tokenring.Btr3.to_tokens n,
              fun s j ->
                Cr_tokenring.Btr3.has_up n s j || Cr_tokenring.Btr3.has_dn n s j
            );
            ( "Dijkstra-4state",
              Cr_tokenring.Btr4.dijkstra4 n,
              Cr_tokenring.Btr4.to_tokens n,
              fun s j ->
                let ts = Cr_tokenring.Btr4.to_tokens n s in
                Cr_tokenring.Btr.up n ts j || Cr_tokenring.Btr.dn n ts j );
          ])
      ns
  in
  List.iter2
    (fun n ->
      List.iter (fun (name, safety, liveness, i4) ->
          pf "%-4d %-18s %-9s %-10s %s@." n name (yn safety) (yn liveness)
            (yn i4)))
    ns rows

(* ---------- cost appendix (CR_STATS) ---------- *)

(* Wrap one table in a [report.<id>] span and, when tracking, record
   its wall time (the span's own) plus the movement of the merged
   telemetry counters and of this domain's GC allocation counters.  Each
   table joins its [Par] workers before returning, so the merged
   before/after snapshots are race-free and their delta is the table's
   own cost; the GC delta prices only the main domain's allocations
   (worker-domain words are not summed). *)
let run_table appendix id f =
  if not (Cr_obs.Obs.tracking ()) then f ()
  else begin
    let snap = Cr_obs.Obs.merged_snapshot () in
    let gc = Cr_obs.Obs.gc_now () in
    Cr_obs.Obs.span ("report." ^ id) f;
    let delta =
      Cr_obs.Obs.diff ~before:snap ~after:(Cr_obs.Obs.merged_snapshot ())
    in
    let gcd = Cr_obs.Obs.gc_delta ~before:gc ~after:(Cr_obs.Obs.gc_now ()) in
    appendix := (id, Cr_obs.Obs.last_span_us () /. 1e3, delta, gcd) :: !appendix
  end

let top_counters ?(limit = 4) (delta : Cr_obs.Obs.snapshot) =
  List.stable_sort (fun (_, a) (_, b) -> compare b a) delta
  |> List.filteri (fun i _ -> i < limit)

let print_appendix appendix =
  hr "Cost appendix (CR_STATS)";
  pf "%-6s %10s %9s %6s  %s@." "table" "wall-ms" "alloc-Mw" "majGC"
    "largest counter movements";
  List.iter
    (fun (id, wall_ms, delta, (gcd : Cr_obs.Obs.gc_cost)) ->
      pf "%-6s %10.1f %9.2f %6d  %s@." id wall_ms
        (float_of_int (gcd.Cr_obs.Obs.minor_words + gcd.Cr_obs.Obs.major_words)
        /. 1e6)
        gcd.Cr_obs.Obs.major_collections
        (String.concat " "
           (List.map
              (fun (name, v) -> Printf.sprintf "%s=%d" name v)
              (top_counters delta))))
    (List.rev appendix)

(* Run every table in order.  [ns_direct] (default [ns]) applies to the
   cheap direct stabilization sweeps (E4, E6, E8/Theorem 11) that scale to
   larger rings than the refinement tables; the bench harness passes a
   longer list there.  Under CR_STATS (or a forced [Cr_obs.Obs] enable)
   each table also reports its wall time and counter movement in a cost
   appendix; with CR_TRACE set, each table is one [report.*] span in the
   exported trace. *)
let all ?(ns = [ 2; 3; 4 ]) ?ns_direct ?ns_kstate () =
  let ns_direct = Option.value ~default:ns ns_direct in
  let ns_kstate = Option.value ~default:ns ns_kstate in
  pf "Convergence Refinement — experiment tables (paper: Demirbas & Arora, \
      ICDCS 2002)@.";
  let appendix = ref [] in
  let t = run_table appendix in
  t "E1" table_fig1;
  t "E2" table_vm;
  t "E3" table_bidding;
  t "E4" (fun () ->
      wrapped_table "E4  Theorem 6: (BTR [] W1 [] W2) stabilizing to BTR"
        Ring_exps.theorem6 ns_direct);
  t "E5" (fun () ->
      refinement_table "E5  Lemma 7: [C1 ⪯ BTR] via alpha4" Ring_exps.lemma7 ns);
  t "E6a" (fun () ->
      direct_table "E6  Theorem 8: C1 stabilizing to BTR" Ring_exps.theorem8_c1
        ns_direct);
  t "E6b" (fun () ->
      direct_table
        "E6  Theorem 8 (optimized): Dijkstra's 4-state stabilizing to BTR"
        Ring_exps.theorem8_dijkstra4 ns_direct);
  t "E7" (fun () ->
      wrapped_table "E7  Lemma 9: (BTR3 [] W1'' [] W2') stabilizing to BTR"
        Ring_exps.lemma9 ns);
  t "E7b" (fun () -> table_wrapper_refinement ns);
  t "E8a" (fun () ->
      refinement_table
        "E8  Lemma 10 (strict, same state space): [C2[]W1''[]W2' ⪯ \
         BTR3[]W1''[]W2']"
        Ring_exps.lemma10 [ 2; 3 ]);
  t "E8b" (fun () ->
      direct_table "E8  Theorem 11: Dijkstra's 3-state stabilizing to BTR"
        Ring_exps.theorem11_dijkstra3 ns_direct);
  t "E8c" (fun () ->
      wrapped_table
        "E8  Theorem 11 (composition): (C2 [] W1'' [] W2') stabilizing to BTR"
        Ring_exps.theorem11_c2w ns);
  t "E9a" (fun () ->
      refinement_table "E9  Lemma 12 (strict): [C3 ⪯ BTR] via alpha3"
        (fun n -> Ring_exps.lemma12 n)
        [ 2; 3 ]);
  t "E9b" (fun () ->
      wrapped_table "E9  Theorem 13: (C3 [] W1'' [] W2') stabilizing to BTR"
        Ring_exps.theorem13 ns);
  t "E10" (fun () -> table_rewriting ns);
  t "E11" (fun () -> table_kstate ns_kstate);
  t "E12" table_compression;
  t "E13" table_stutter;
  t "E14" (fun () -> table_cost ns);
  t "E16" (fun () -> table_synchronous ns);
  t "E17" table_rw;
  t "E18" (fun () -> table_hitting ns);
  t "E19" table_spans;
  t "E20" (fun () -> table_mutex ns);
  if Cr_obs.Obs.stats_enabled () && !appendix <> [] then
    print_appendix !appendix
