(* Abstract-interpretation (Cr_flow) tests: the per-slot domain algebra,
   seeded U1/D1/F3 defects, one key per fact across flow and the merged
   lint report, one transfer per action per fixpoint round, soundness of
   the flow verdicts against exact enumeration over the whole registry,
   the convergence-stair rank on a crafted acyclic chain and on the ring
   protocols, CR_JOBS invariance of the parallel Rwsets pass, and the
   artifact provenance headers. *)

open Cr_guarded
module Dom = Cr_flow.Dom
module Flow = Cr_flow.Flow
module Rank = Cr_flow.Rank
module Lint = Cr_lint.Lint
module Rwsets = Cr_lint.Rwsets
module Registry = Cr_experiments.Registry
module Flow_exps = Cr_experiments.Flow_exps
module Par = Cr_kernel.Par

(* lift the pool's busy-domain cap so the CR_JOBS-invariance property
   really fans out across domains on a single-core host *)
let () = Unix.putenv "CR_PAR_CAP" "8"

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let layout3 = Layout.make [ ("x", 3); ("y", 3); ("z", 3) ]

let prog ?(name = "seeded") ?(initial = fun _ -> true) actions =
  Program.make ~name ~layout:layout3 ~actions ~initial

let act ?(label = "a") ?(proc = 0) guard assign =
  Action.make ~label ~proc ~guard ~assign ()

let findings_with key (t : Flow.t) =
  List.filter (fun (f : Lint.finding) -> f.Lint.key = key) t.Flow.findings

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* ---------- the domain algebra ---------- *)

let test_dom () =
  let d = 5 in
  let b = Dom.bottom d and t = Dom.top d in
  check "bottom is bottom" true (Dom.is_bottom b);
  check "top is top" true (Dom.is_top t);
  check_int "top count" d (Dom.count t);
  let s = Dom.of_list d [ 1; 3 ] in
  check "mem 3" true (Dom.mem s 3);
  check "not mem 2" false (Dom.mem s 2);
  check_int "choose = smallest" 1 (Dom.choose s);
  check "join with bottom is identity" true (Dom.equal s (Dom.join s b));
  check "join to top" true (Dom.is_top (Dom.join s (Dom.of_list d [ 0; 2; 4 ])));
  check "to_list sorted" true (Dom.to_list s = [ 1; 3 ]);
  (* wide domains fall back to interval hulls: still sound, hull-exact *)
  let w = Dom.max_mask_dom + 5 in
  let r = Dom.join (Dom.singleton w 2) (Dom.singleton w 7) in
  check "hull keeps endpoints" true (Dom.mem r 2 && Dom.mem r 7);
  check "hull over-approximates" true (Dom.mem r 4);
  check_int "hull count" 6 (Dom.count r)

(* ---------- seeded flow defects ---------- *)

let test_u1_top_dead () =
  let dead =
    act ~label:"u1dead" (fun _ -> false) [ (0, fun _ -> 1) ]
  in
  let t = Flow.analyze (prog [ dead ]) in
  let u1 = findings_with "U1" t in
  check "U1 fires" true (u1 <> []);
  check "U1 full-space is exact" true
    (List.exists
       (fun (f : Lint.finding) ->
         f.Lint.severity = Lint.Warning && f.Lint.provenance = Lint.Exact)
       u1);
  let fact = List.hd t.Flow.facts in
  check_int "fact records top-dead" 0 fact.Flow.info.Rwsets.enabled_states

let init_dead_program () =
  (* step walks x from 0 to 1; u1reach needs x = 2, unreachable from the
     pinned initial state but satisfiable in the full space *)
  let step =
    act ~label:"step" ~proc:0
      (fun s -> s.(0) = 0)
      [ (0, fun _ -> 1) ]
  in
  let unreachable =
    act ~label:"u1reach" ~proc:1
      (fun s -> s.(0) = 2)
      [ (1, fun _ -> 1) ]
  in
  prog ~initial:(fun s -> s = [| 0; 0; 0 |]) [ step; unreachable ]

let test_u1_init_dead () =
  let p = init_dead_program () in
  let t = Flow.analyze p in
  check "init analysis is sound here" true t.Flow.init_sound;
  check "fixpoint reached in a few rounds" true (t.Flow.init_rounds >= 1);
  check "u1reach proved init-dead" true (Flow.init_dead t "u1reach");
  check "step stays live" false (Flow.init_dead t "step");
  check "abstract U1 info emitted" true
    (List.exists
       (fun (f : Lint.finding) ->
         f.Lint.action = "u1reach"
         && f.Lint.severity = Lint.Info
         && f.Lint.provenance = Lint.Abstract)
       (findings_with "U1" t));
  (* the merged lint report carries the verdict as an abstract U1 info *)
  let report, _ = Flow.lint p in
  check "merged report has abstract U1" true
    (List.exists
       (fun (f : Lint.finding) ->
         f.Lint.action = "u1reach"
         && f.Lint.severity = Lint.Info
         && f.Lint.provenance = Lint.Abstract)
       (Lint.find_key "U1" report))

let test_d1_domain_violation () =
  let bad =
    act ~label:"d1bad"
      (fun s -> s.(0) = 0)
      [ (0, fun _ -> 7) ]
  in
  let report, t = Flow.lint (prog [ bad ]) in
  check "D1 fires" true
    (List.exists
       (fun (f : Lint.finding) ->
         f.Lint.severity = Lint.Error && f.Lint.provenance = Lint.Exact)
       (findings_with "D1" t));
  check "merged report keeps the exact D1" true (Lint.find_key "D1" report <> []);
  check "flow counts the error" true (Flow.errors t >= 1)

let test_f3_constant_slot () =
  (* z is never written by any action *)
  let a =
    act ~label:"only-x"
      (fun s -> s.(0) = 0)
      [ (0, fun _ -> 1) ]
  in
  let report, t = Flow.lint (prog [ a ]) in
  let f3 = findings_with "F3" t in
  check "F3 fires" true (f3 <> []);
  check "F3 names the dead slot" true
    (List.exists (fun (f : Lint.finding) -> contains f.Lint.message "z") f3);
  check "F3 reaches the merged report" true (Lint.find_key "F3" report <> [])

let test_degraded () =
  let p = init_dead_program () in
  let t = Flow.analyze ~exact_budget:4 p in
  check "degraded" true t.Flow.degraded;
  check "no facts when degraded" true (t.Flow.facts = []);
  check "single B1 finding" true
    (match t.Flow.findings with
    | [ f ] -> f.Lint.key = "B1" && f.Lint.severity = Lint.Info
    | _ -> false);
  check "no rank when degraded" true (Rank.of_flow t = None);
  check "no init claims when degraded" false (Flow.init_dead t "u1reach");
  let report, _ = Flow.lint ~exact_budget:4 p in
  check "degraded lint is B1-only" true
    (Lint.find_key "B1" report <> [] && Lint.errors report = 0)

(* ---------- one key per fact ---------- *)

(* Three defects: [dead] is never enabled, [u1reach] needs x = 2 (never
   reached from x = 0), and [leak] leaves z's domain but needs z = 2,
   which z never holds from (0, 0, 0), so it is init-dead too and the
   init fixpoint stays sound. *)
let three_defects () =
  let dead =
    act ~label:"dead" ~proc:2
      (fun _ -> false)
      [ (2, fun _ -> 1) ]
  in
  let leak =
    act ~label:"leak" ~proc:2
      (fun s -> s.(2) = 2)
      [ (2, fun _ -> 5) ]
  in
  let base = init_dead_program () in
  Program.with_actions (Program.actions base @ [ dead; leak ]) base

let keyed keys findings =
  List.filter (fun (f : Lint.finding) -> List.mem f.Lint.key keys) findings

let test_shared_facts_render_once () =
  let p = three_defects () in
  let t = Flow.analyze p in
  let report, _ = Flow.lint p in
  let shared = keyed [ "U1"; "D1" ] in
  check_int "flow: U1 for dead, u1reach, leak; D1 for leak" 4
    (List.length (shared t.Flow.findings));
  check "flow's U1/D1 = the merged report's, field for field" true
    (shared t.Flow.findings = shared report.Lint.findings);
  check "no retired key" true (keyed [ "F1" ] t.Flow.findings = []);
  check "flow's F2 is abstract only" true
    (List.for_all
       (fun (f : Lint.finding) -> f.Lint.provenance = Lint.Abstract)
       (findings_with "F2" t))

(* An init-dead action that only stutters: lint prints S1 for it (the S1
   test comes before the dead-from-init one).  Flow runs the same check,
   so it prints the same S1, not a dead-from-init U1, though its
   fixpoint still proves the guard unsatisfiable. *)
let test_init_dead_stutter () =
  let noop =
    act ~label:"noop" ~proc:1 (fun s -> s.(0) = 2) [ (1, fun s -> s.(1)) ]
  in
  let base = init_dead_program () in
  let p = Program.with_actions [ List.hd (Program.actions base); noop ] base in
  let t = Flow.analyze p in
  check "fixpoint proves noop init-dead" true (Flow.init_dead t "noop");
  let about_noop =
    List.filter (fun (f : Lint.finding) -> f.Lint.action = "noop")
  in
  (match about_noop t.Flow.findings with
  | [ f ] ->
      check "flow prints S1" true (f.Lint.key = "S1");
      check "as a warning" true (f.Lint.severity = Lint.Warning);
      check "exact" true (f.Lint.provenance = Lint.Exact)
  | fs ->
      Alcotest.failf "expected one finding on noop, got %d" (List.length fs));
  let report, _ = Flow.lint p in
  check "lint prints the same S1 and no U1" true
    (about_noop (keyed [ "S1"; "U1" ] report.Lint.findings)
    = about_noop t.Flow.findings)

(* P1, F3 and B1 are program-level (action "-"), and G1 and I1 give one
   finding per pair, so they may repeat a (key, action, provenance) with
   different messages; every other key is one fact per action. *)
let test_registry_no_repeats () =
  List.iter
    (fun (e : Registry.entry) ->
      List.iter
        (fun n ->
          let report, _ =
            Flow.lint ~allow:e.Registry.lint_allow (e.Registry.program n)
          in
          let facts =
            List.filter_map
              (fun (f : Lint.finding) ->
                if List.mem f.Lint.key [ "P1"; "F3"; "B1"; "G1"; "I1" ] then
                  None
                else Some (f.Lint.key, f.Lint.action, f.Lint.provenance))
              report.Lint.findings
          in
          check
            (Printf.sprintf "%s n=%d: no fact twice" e.Registry.name n)
            true
            (List.length (List.sort_uniq compare facts) = List.length facts))
        [ 2; 3; 4 ])
    Registry.entries

(* ---------- one transfer per action per round ---------- *)

let transfers f =
  Cr_obs.Obs.force_collect ();
  let before = Cr_obs.Obs.merged_snapshot () in
  let r = f () in
  let after = Cr_obs.Obs.merged_snapshot () in
  ( r,
    Option.value ~default:0
      (List.assoc_opt "lint.flow.transfers"
         (Cr_obs.Obs.diff ~before ~after)) )

let test_one_transfer_per_round () =
  (* From (0, 0, 0): round 1 fires lead (y gets 1), round 2 then fires
     follow (x gets 1), round 3 changes nothing.  never needs z = 2. *)
  let follow =
    act ~label:"follow" ~proc:0
      (fun s -> s.(1) = 1)
      [ (0, fun _ -> 1) ]
  in
  let lead =
    act ~label:"lead" ~proc:1
      (fun s -> s.(0) = 0)
      [ (1, fun _ -> 1) ]
  in
  let never =
    act ~label:"never" ~proc:2
      (fun s -> s.(2) = 2)
      [ (2, fun _ -> 5) ]
  in
  let p = prog ~initial:(fun s -> s = [| 0; 0; 0 |]) [ follow; lead; never ] in
  let t, n = transfers (fun () -> Flow.analyze p) in
  check_int "three rounds" 3 t.Flow.init_rounds;
  check_int "rounds x actions transfers" (3 * 3) n;
  check "sound" true t.Flow.init_sound;
  let facts =
    List.map
      (fun (f : Flow.fact) ->
        ( Action.label f.Flow.info.Rwsets.action,
          f.Flow.init_enabled,
          f.Flow.init_invalid ))
      t.Flow.facts
  in
  check "init facts by hand" true
    (facts
    = [ ("follow", Some true, None); ("lead", Some true, None);
        ("never", Some false, None) ]);
  check "fixpoint x, y in {0, 1}, z = 0" true
    (match t.Flow.init_state with
    | Some sigma ->
        List.map Dom.to_list (Array.to_list sigma)
        = [ [ 0; 1 ]; [ 0; 1 ]; [ 0 ] ]
    | None -> false);
  (* step brings x to 1 in round 1, where leak leaves x's domain: its
     witness is (1, 0, 0), and the violation suppresses every definite
     init claim; round 2 changes nothing *)
  let step =
    act ~label:"step" ~proc:0
      (fun s -> s.(0) = 0)
      [ (0, fun _ -> 1) ]
  in
  let leak =
    act ~label:"leak" ~proc:0
      (fun s -> s.(0) = 1)
      [ (0, fun _ -> 3) ]
  in
  let q = prog ~initial:(fun s -> s = [| 0; 0; 0 |]) [ step; leak ] in
  let t, n = transfers (fun () -> Flow.analyze q) in
  check_int "two rounds" 2 t.Flow.init_rounds;
  check_int "rounds x actions transfers" (2 * 2) n;
  check "unsound" false t.Flow.init_sound;
  check "leak's witness, no enabled claims" true
    (List.map
       (fun (f : Flow.fact) -> (f.Flow.init_enabled, f.Flow.init_invalid))
       t.Flow.facts
    = [ (None, None); (None, Some [| 1; 0; 0 |]) ])

(* ---------- convergence-stair rank ---------- *)

let chain_program () =
  (* a genuine three-layer stair: x settles on its own, y copies x,
     z copies y — the slot dependency graph is an acyclic chain *)
  let seed =
    act ~label:"seed" ~proc:0
      (fun s -> s.(0) <> 1)
      [ (0, fun _ -> 1) ]
  in
  let copy_y =
    act ~label:"copy-y" ~proc:1
      (fun s -> s.(1) <> s.(0))
      [ (1, fun s -> s.(0)) ]
  in
  let copy_z =
    act ~label:"copy-z" ~proc:2
      (fun s -> s.(2) <> s.(1))
      [ (2, fun s -> s.(1)) ]
  in
  prog ~name:"chain" [ seed; copy_y; copy_z ]

let test_rank_chain () =
  let t = Flow.analyze (chain_program ()) in
  match Rank.of_flow t with
  | None -> Alcotest.fail "rank unavailable on a tiny program"
  | Some r ->
      check "chain is acyclic" true r.Rank.acyclic;
      check_int "three layers" 3 (Rank.depth r);
      check_int "x converges first" 0 r.Rank.layer_of.(r.Rank.comp_of.(0));
      check_int "y second" 1 r.Rank.layer_of.(r.Rank.comp_of.(1));
      check_int "z last" 2 r.Rank.layer_of.(r.Rank.comp_of.(2));
      check "x -> y and y -> z edges" true
        (List.mem (0, 1) r.Rank.edges && List.mem (1, 2) r.Rank.edges)

let test_rank_rings () =
  (* the ring protocols condense into one cyclic component: the paper's
     stair lives at the predicate level, below slot granularity *)
  let t = Flow.analyze (Cr_tokenring.Btr3.dijkstra3 2) in
  (match Rank.of_flow t with
  | None -> Alcotest.fail "dijkstra3 rank unavailable"
  | Some r ->
      check "dijkstra3 is cyclic" false r.Rank.acyclic;
      check "one multi-slot component" true
        (Array.exists (fun c -> Array.length c > 1) r.Rank.components);
      check "layering still reported" true (Rank.depth r >= 1));
  match Registry.find "btr" with
  | None -> Alcotest.fail "btr missing from the registry"
  | Some e -> (
      let t = Flow.analyze (e.Registry.program 2) in
      match Rank.of_flow t with
      | None -> Alcotest.fail "btr rank unavailable"
      | Some r -> check "btr layering reported" true (Rank.depth r >= 1))

(* ---------- soundness: flow never contradicts exact enumeration ---------- *)

let labels_of l = List.sort_uniq compare (List.map (fun (f : Lint.finding) -> f.Lint.action) l)

let check_agreement ~n (e : Registry.entry) =
  let p = e.Registry.program n in
  let t = Flow.analyze p in
  if not t.Flow.degraded then begin
    let exact = Lint.run ~allow:e.Registry.lint_allow p in
    let flow_dead =
      List.sort_uniq compare
        (List.filter_map
           (fun (f : Flow.fact) ->
             if f.Flow.info.Rwsets.enabled_states > 0 then None
             else Some (Action.label f.Flow.info.Rwsets.action))
           t.Flow.facts)
    in
    let exact_dead =
      labels_of
        (List.filter
           (fun (f : Lint.finding) -> f.Lint.severity = Lint.Warning)
           (Lint.find_key "U1" exact))
    in
    check
      (Printf.sprintf "%s n=%d: flow dead-top = exact U1" e.Registry.name n)
      true (flow_dead = exact_dead);
    let flow_invalid =
      List.sort_uniq compare
        (List.filter_map
           (fun (f : Flow.fact) ->
             if f.Flow.info.Rwsets.invalid_witness = None then None
             else Some (Action.label f.Flow.info.Rwsets.action))
           t.Flow.facts)
    in
    check
      (Printf.sprintf "%s n=%d: flow invalid = exact D1" e.Registry.name n)
      true
      (flow_invalid = labels_of (Lint.find_key "D1" exact));
    (* any init-dead claim must be confirmed by the exact closure *)
    let exact_u1 = labels_of (Lint.find_key "U1" exact) in
    List.iter
      (fun (f : Flow.fact) ->
        let label = Action.label f.Flow.info.Rwsets.action in
        if Flow.init_dead t label then
          check
            (Printf.sprintf "%s n=%d: init-dead %s confirmed exactly"
               e.Registry.name n label)
            true (List.mem label exact_u1))
      t.Flow.facts;
    (* S1 agreement: a stuttering-only action is live under flow *)
    List.iter
      (fun (f : Lint.finding) ->
        let live =
          List.exists
            (fun (fa : Flow.fact) ->
              Action.label fa.Flow.info.Rwsets.action = f.Lint.action
              && fa.Flow.info.Rwsets.enabled_states > 0)
            t.Flow.facts
        in
        check
          (Printf.sprintf "%s n=%d: S1 action %s live under flow"
             e.Registry.name n f.Lint.action)
          true live)
      (Lint.find_key "S1" exact)
  end

let test_soundness_registry () =
  List.iter
    (fun (e : Registry.entry) ->
      check_agreement ~n:2 e;
      check_agreement ~n:3 e)
    Registry.entries

(* ---------- CR_JOBS invariance of the parallel Rwsets pass ---------- *)

let prop_rwsets_jobs_invariant =
  QCheck.Test.make ~count:24
    ~name:"Rwsets.of_program identical under CR_JOBS in {1,2,4}"
    QCheck.(pair small_nat small_nat)
    (fun (ei, nb) ->
      let entries = Array.of_list Registry.entries in
      let e = entries.(ei mod Array.length entries) in
      let n = 2 + (nb mod 2) in
      let p = e.Registry.program n in
      let under jobs =
        Par.with_jobs jobs (fun () ->
            List.map Rwsets_ref.fields (Rwsets.of_program p))
      in
      let base = under 1 in
      under 2 = base && under 4 = base)

(* ---------- artifact provenance headers ---------- *)

let header_fields = [ "\"version\":"; "\"tool\":\"crcheck\""; "\"tool_version\":\""; "\"git_rev\":\""; "\"cr_jobs\":"; "\"n\":2" ]

let test_lint_artifact_header () =
  let rows = Cr_experiments.Lint_exps.audit ~n:2 () in
  let body =
    Cr_experiments.Lint_exps.to_json ~n:2 rows
  in
  (match Cr_obs.Json_check.validate_string body with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "lint artifact invalid: %s" msg);
  List.iter
    (fun field ->
      check (Printf.sprintf "lint artifact has %s" field) true
        (contains body field))
    header_fields;
  check "findings carry provenance" true (contains body "\"provenance\":\"exact\"")

let test_flow_artifact_header () =
  let rows = Flow_exps.audit ~n:2 () in
  let body = Flow_exps.to_json ~n:2 rows in
  (match Cr_obs.Json_check.validate_string body with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "flow artifact invalid: %s" msg);
  List.iter
    (fun field ->
      check (Printf.sprintf "flow artifact has %s" field) true
        (contains body field))
    header_fields;
  check "rows expose the stair" true (contains body "\"stair\"");
  check "rows cross-check stabilization" true (contains body "\"stabilizing\"");
  check_int "audit is error-clean" 0 (Flow_exps.total_errors rows)

let () =
  Alcotest.run "flow"
    [
      ( "dom",
        [ Alcotest.test_case "value-set and interval algebra" `Quick test_dom ]
      );
      ( "seeded defects",
        [
          Alcotest.test_case "U1 statically-dead guard" `Quick test_u1_top_dead;
          Alcotest.test_case "U1 abstract init-dead" `Quick test_u1_init_dead;
          Alcotest.test_case "D1 domain violation" `Quick
            test_d1_domain_violation;
          Alcotest.test_case "F3 constant slot" `Quick test_f3_constant_slot;
          Alcotest.test_case "B1 budget degradation" `Quick test_degraded;
        ] );
      ( "one key per fact",
        [
          Alcotest.test_case "U1 and D1 render the same in flow and lint"
            `Quick test_shared_facts_render_once;
          Alcotest.test_case "init-dead stutter-only action is S1" `Quick
            test_init_dead_stutter;
          Alcotest.test_case "registry: no fact twice in a merged report"
            `Quick test_registry_no_repeats;
        ] );
      ( "transfers",
        [
          Alcotest.test_case "one per action per fixpoint round" `Quick
            test_one_transfer_per_round;
        ] );
      ( "rank",
        [
          Alcotest.test_case "acyclic chain: three-layer stair" `Quick
            test_rank_chain;
          Alcotest.test_case "ring protocols: cyclic component" `Quick
            test_rank_rings;
        ] );
      ( "soundness",
        [
          Alcotest.test_case "registry: flow agrees with exact" `Slow
            test_soundness_registry;
          QCheck_alcotest.to_alcotest prop_rwsets_jobs_invariant;
        ] );
      ( "artifacts",
        [
          Alcotest.test_case "lint header and provenance" `Quick
            test_lint_artifact_header;
          Alcotest.test_case "flow header, stair, verdict" `Quick
            test_flow_artifact_header;
        ] );
    ]
