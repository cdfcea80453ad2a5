(* Direct unit and property tests for the weak-fairness analysis
   (Cr_core.Fair): the per-SCC admissibility check is exact on finite
   systems, and weakly-fair divergence implies plain divergence. *)

module Csr = Cr_kernel.Csr
module Bs = Cr_kernel.Bitset

let check = Alcotest.(check bool)

let analyze tables rows mask =
  Cr_core.Fair.analyze tables ~succ:(Csr.of_rows rows)
    ~mask:(Bs.of_bool_array mask)

(* A two-state cycle 0 <-> 1 with action tables. *)
let cycle_succ = [| [| 1 |]; [| 0 |] |]

let test_plain_cycle_is_fair () =
  (* two actions, each enabled at one state and taken inside the cycle *)
  let tables = [| [| 1; -1 |]; [| -1; 0 |] |] in
  let a = analyze tables cycle_succ [| true; true |] in
  check "one fair SCC" true (List.length a.Cr_core.Fair.sccs = 1);
  check "states marked fair" true (a.Cr_core.Fair.fair.(0) && a.Cr_core.Fair.fair.(1));
  check "edge on fair cycle" true (Cr_core.Fair.edge_on_fair_cycle a 0 1)

let test_starved_exit_makes_cycle_unfair () =
  (* same cycle, plus an "exit" action enabled at BOTH states leading
     outside the SCC: any run confined to the cycle starves it *)
  let succ = [| [| 1; 2 |]; [| 0; 2 |]; [||] |] in
  let tables =
    [|
      [| 1; -1; -1 |] (* osc1: 0 -> 1 *);
      [| -1; 0; -1 |] (* osc2: 1 -> 0 *);
      [| 2; 2; -1 |] (* exit: always enabled on the cycle, leaves it *);
    |]
  in
  let a = analyze tables succ [| true; true; false |] in
  check "no fair SCC" true (a.Cr_core.Fair.sccs = []);
  check "no state on a fair cycle" false
    (Array.exists Fun.id a.Cr_core.Fair.fair)

let test_intermittent_exit_keeps_cycle_fair () =
  (* exit enabled at only one of the two cycle states: the run is fair
     w.r.t. exit by visiting the other state infinitely often *)
  let succ = [| [| 1; 2 |]; [| 0 |]; [||] |] in
  let tables =
    [| [| 1; -1; -1 |]; [| -1; 0; -1 |]; [| 2; -1; -1 |] |]
  in
  let a = analyze tables succ [| true; true; false |] in
  check "cycle remains fair" true (List.length a.Cr_core.Fair.sccs = 1)

let test_restricted_graph_edges_count () =
  (* the "taken inside" condition uses edges of the analyzed graph, not of
     the underlying system: analyzing the stutter subgraph must not credit
     an action whose edge exists only in the full graph *)
  let stutter_succ = [| [| 1 |]; [| 0 |] |] in
  (* action a0 oscillates inside; action a1 is enabled everywhere but its
     edges (0->0 impossible; say 0->1 via a1 as well) — make a1's move
     0 -> 1 which IS in the restricted graph, so it counts *)
  let tables = [| [| 1; 0 |]; [| 1; -1 |] |] in
  let a = analyze tables stutter_succ [| true; true |] in
  check "fair when the always-enabled action moves inside" true
    (List.length a.Cr_core.Fair.sccs = 1);
  (* now a1 points outside the analyzed graph (to state 2 of a bigger
     system): restricted graph stays 0 <-> 1 but a1 is never taken inside *)
  let succ3 = [| [| 1 |]; [| 0 |]; [||] |] in
  let tables3 = [| [| 1; 0; -1 |]; [| 2; 2; -1 |] |] in
  let a3 = analyze tables3 succ3 [| true; true; false |] in
  check "unfair when the always-enabled action always leaves" true
    (a3.Cr_core.Fair.sccs = [])

let test_tables_of () =
  let e =
    Cr_semantics.Explicit.of_edge_lists ~name:"three" ~states:[| 10; 20; 30 |]
      ~pp_state:Fmt.int
      ~is_initial:(fun v -> v = 10)
      ~succ_lists:[| [ 1 ]; [ 2 ]; [] |]
  in
  let fire1 v = if v = 10 then Some 20 else None in
  let fire2 v = if v = 20 then Some 30 else if v = 30 then Some 40 else None in
  let t = Cr_core.Fair.tables_of e [ fire1; fire2 ] in
  check "fire1 at 0" true (t.(0).(0) = 1);
  check "fire1 disabled at 1" true (t.(0).(1) = -1);
  check "fire2 at 1" true (t.(1).(1) = 2);
  check "fire2 leaving the system counts as disabled" true (t.(1).(2) = -1)

(* property: fair divergence implies plain (unfair) divergence — a
   weakly-fair infinite run is in particular an infinite run *)
let prop_fair_implies_unfair =
  QCheck2.Test.make ~name:"fair divergence implies plain divergence" ~count:300
    QCheck2.Gen.(
      let* n = int_range 2 6 in
      let* edges = list_size (int_bound 12) (pair (int_bound (n - 1)) (int_bound (n - 1))) in
      let* na = int_range 1 4 in
      let* acts = list_repeat na (list_repeat n (int_range (-1) (n - 1))) in
      return (n, edges, acts))
    (fun (n, edges, acts) ->
      let adj = Array.make n [] in
      List.iter (fun (i, j) -> if i <> j then adj.(i) <- j :: adj.(i)) edges;
      let succ = Array.map (fun l -> Array.of_list (List.sort_uniq compare l)) adj in
      (* action tables must be consistent with the graph: next must be an
         actual edge (or disabled) *)
      let tables =
        List.map
          (fun row ->
            Array.of_list
              (List.mapi
                 (fun i next ->
                   if next >= 0 && Array.exists (fun j -> j = next) succ.(i) then next
                   else -1)
                 row))
          acts
        |> Array.of_list
      in
      let fair =
        (analyze tables succ (Array.make n true)).Cr_core.Fair.sccs <> []
      in
      let plain =
        Array.exists (fun size -> size >= 2)
          (Cr_checker.Scc.compute (Csr.of_rows succ)).Cr_checker.Scc.sizes
      in
      (not fair) || plain)

let () =
  Alcotest.run "fair"
    [
      ( "unit",
        [
          Alcotest.test_case "plain cycle is fair" `Quick test_plain_cycle_is_fair;
          Alcotest.test_case "starved exit kills the cycle" `Quick
            test_starved_exit_makes_cycle_unfair;
          Alcotest.test_case "intermittent exit keeps it fair" `Quick
            test_intermittent_exit_keeps_cycle_fair;
          Alcotest.test_case "restricted-graph edge accounting" `Quick
            test_restricted_graph_edges_count;
          Alcotest.test_case "tables_of" `Quick test_tables_of;
        ] );
      ( "properties",
        [ QCheck_alcotest.to_alcotest prop_fair_implies_unfair ] );
    ]
