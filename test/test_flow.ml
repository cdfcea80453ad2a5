(* Abstract-interpretation (Cr_flow) tests: the per-slot domain algebra,
   seeded F1/F2/F3 defects, soundness of the flow verdicts against exact
   enumeration over the whole registry, the convergence-stair rank on a
   crafted acyclic chain and on the ring protocols, CR_JOBS invariance
   of the parallel Rwsets pass, and the artifact provenance headers. *)

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

let act ?(label = "a") ?(proc = 0) ?(writes = []) guard effect =
  Action.make ~label ~proc ~writes ~guard ~effect ()

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

let test_f1_top_dead () =
  let dead =
    act ~label:"f1dead" ~writes:[ 0 ] (fun _ -> false) (fun s -> Action.set s [ (0, 1) ])
  in
  let t = Flow.analyze (prog [ dead ]) in
  let f1 = findings_with "F1" t in
  check "F1 fires" true (f1 <> []);
  check "F1 full-space is exact" true
    (List.exists
       (fun (f : Lint.finding) ->
         f.Lint.severity = Lint.Warning && f.Lint.provenance = Lint.Exact)
       f1);
  let fact = List.hd t.Flow.facts in
  check "fact records top-dead" false fact.Flow.top_enabled

let init_dead_program () =
  (* step walks x from 0 to 1; u1reach needs x = 2, unreachable from the
     pinned initial state but satisfiable in the full space *)
  let step =
    act ~label:"step" ~proc:0 ~writes:[ 0 ]
      (fun s -> s.(0) = 0)
      (fun s -> Action.set s [ (0, 1) ])
  in
  let unreachable =
    act ~label:"u1reach" ~proc:1 ~writes:[ 1 ]
      (fun s -> s.(0) = 2)
      (fun s -> Action.set s [ (1, 1) ])
  in
  prog ~initial:(fun s -> s = [| 0; 0; 0 |]) [ step; unreachable ]

let test_f1_init_dead () =
  let p = init_dead_program () in
  let t = Flow.analyze p in
  check "init analysis is sound here" true t.Flow.init_sound;
  check "fixpoint reached in a few rounds" true (t.Flow.init_rounds >= 1);
  check "u1reach proved init-dead" true (Flow.init_dead t "u1reach");
  check "step stays live" false (Flow.init_dead t "step");
  check "abstract F1 info emitted" true
    (List.exists
       (fun (f : Lint.finding) ->
         f.Lint.action = "u1reach"
         && f.Lint.severity = Lint.Info
         && f.Lint.provenance = Lint.Abstract)
       (findings_with "F1" t));
  (* the merged lint report carries the verdict as an abstract U1 info *)
  let report, _ = Flow.lint p in
  check "merged report has abstract U1" true
    (List.exists
       (fun (f : Lint.finding) ->
         f.Lint.action = "u1reach"
         && f.Lint.severity = Lint.Info
         && f.Lint.provenance = Lint.Abstract)
       (Lint.find_key "U1" report))

let test_f2_domain_violation () =
  let bad =
    act ~label:"f2bad" ~writes:[ 0 ]
      (fun s -> s.(0) = 0)
      (fun s -> Action.set s [ (0, 7) ])
  in
  let report, t = Flow.lint (prog [ bad ]) in
  check "F2 fires" true
    (List.exists
       (fun (f : Lint.finding) ->
         f.Lint.severity = Lint.Error && f.Lint.provenance = Lint.Exact)
       (findings_with "F2" t));
  check "merged report keeps the exact D1" true (Lint.find_key "D1" report <> []);
  check "flow counts the error" true (Flow.errors t >= 1)

let test_f3_constant_slot () =
  (* z is never written by any action *)
  let a =
    act ~label:"only-x" ~writes:[ 0 ]
      (fun s -> s.(0) = 0)
      (fun s -> Action.set s [ (0, 1) ])
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

(* ---------- convergence-stair rank ---------- *)

let chain_program () =
  (* a genuine three-layer stair: x settles on its own, y copies x,
     z copies y — the slot dependency graph is an acyclic chain *)
  let seed =
    act ~label:"seed" ~proc:0 ~writes:[ 0 ]
      (fun s -> s.(0) <> 1)
      (fun s -> Action.set s [ (0, 1) ])
  in
  let copy_y =
    act ~label:"copy-y" ~proc:1 ~writes:[ 1 ]
      (fun s -> s.(1) <> s.(0))
      (fun s -> Action.set s [ (1, s.(0)) ])
  in
  let copy_z =
    act ~label:"copy-z" ~proc:2 ~writes:[ 2 ]
      (fun s -> s.(2) <> s.(1))
      (fun s -> Action.set s [ (2, s.(1)) ])
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
             if f.Flow.top_enabled then None
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
              && fa.Flow.top_enabled)
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
          Alcotest.test_case "F1 statically-dead guard" `Quick test_f1_top_dead;
          Alcotest.test_case "F1 abstract init-dead" `Quick test_f1_init_dead;
          Alcotest.test_case "F2 domain violation" `Quick
            test_f2_domain_violation;
          Alcotest.test_case "F3 constant slot" `Quick test_f3_constant_slot;
          Alcotest.test_case "B1 budget degradation" `Quick test_degraded;
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
