(* Every call checks.  No verdict is memoized, so Refine and Stabilize
   run their checker on every call, and repeated questions get their
   verdicts from recomputation alone: each call runs (counted by
   [stabilize.runs] and by the relations' spans), a second registry
   sweep and a table row re-asking crcheck verify's question give the
   same reports, and eight requesters of one question across four
   domains agree with a sequential check.  The verdicts read exactly
   their inputs: a stabilization verdict never reads C's initial states
   while a refinement verdict does, and moving any one α lane (to
   another state of A, or outside L) gives the reference routes'
   reports (test/stabilize_ref.ml, test/refine_ref.ml). *)

module Obs = Cr_obs.Obs
module Par = Cr_kernel.Par
module Lane = Cr_kernel.Lane
module Program = Cr_guarded.Program
module Registry = Cr_experiments.Registry
module Explicit = Cr_semantics.Explicit
module Abstraction = Cr_semantics.Abstraction
module Stabilize = Cr_core.Stabilize
module Refine = Cr_core.Refine

(* lift the pool's busy-domain cap so four jobs really fan out across
   domains on a small host *)
let () = Unix.putenv "CR_PAR_CAP" "4"

let check = Alcotest.(check bool)
let n = 3
let entry name = Option.get (Registry.find name)

let counter snap name =
  match List.assoc_opt name snap with Some v -> v | None -> 0

(* Fresh counters and spans, then [f]: its result, the counters and the
   names of the spans it recorded. *)
let counted f =
  Obs.reset ();
  Obs.force_collect ();
  let r = f () in
  (r, Obs.merged_snapshot (), List.map (fun e -> e.Obs.sname) (Obs.events ()))

(* Reports without their telemetry, so two runs compare equal. *)
let stab_only r = { r with Stabilize.cost = None }
let refs_only =
  List.map (fun (label, r) -> (label, { r with Refine.cost = None }))

(* ---- every call checks ---- *)

let test_stabilization_runs_each_call () =
  let e = entry "dijkstra3" in
  let stab =
    Registry.stabilizing ~alpha:(e.alpha n) (Registry.explicit e n) (e.spec n)
  in
  let (first, second), snap, _ = counted (fun () -> (stab (), stab ())) in
  Alcotest.(check int) "two runs" 2 (counter snap "stabilize.runs");
  check "the same report" true (stab_only first = stab_only second)

let relation_spans =
  [ "refine.init"; "refine.everywhere"; "refine.convergence";
    "refine.everywhere_eventually" ]

let test_refinement_runs_each_call () =
  let e = entry "c1" in
  let r =
    Registry.refining ~alpha:(e.alpha n) (Registry.init_explicit e n)
      (e.spec n)
  in
  let (first, second), _, spans =
    counted (fun () -> (Registry.relations r, Registry.relations r))
  in
  List.iter
    (fun span ->
      Alcotest.(check int) (span ^ " runs") 2
        (List.length (List.filter (String.equal span) spans)))
    relation_spans;
  check "the same reports" true (refs_only first = refs_only second)

(* Every stabilization and refinement report of one registry entry. *)
let verdicts name =
  let e = entry name in
  (`Stab (stab_only (Registry.stabilization e n ())),
   `Refs (refs_only (Registry.refinements e n)))

let test_second_sweep () =
  let names = Registry.names () in
  let first = List.map verdicts names in
  let second, snap, _ = counted (fun () -> List.map verdicts names) in
  Alcotest.(check int) "one stabilization run per entry" (List.length names)
    (counter snap "stabilize.runs");
  check "the first sweep's reports" true (first = second)

(* E8b's row asks crcheck verify's question, "Dijkstra-3 stabilizing to
   BTR via α₃": each asker runs the check, and both get one verdict. *)
let test_table_row_and_verify () =
  let (row, r), snap, _ =
    counted (fun () ->
        ( Cr_experiments.Ring_exps.theorem11_dijkstra3 n,
          Registry.stabilization (entry "dijkstra3") n () ))
  in
  Alcotest.(check int) "two runs" 2 (counter snap "stabilize.runs");
  check "one verdict" true
    (row.holds = r.Stabilize.holds
    && row.states = r.states
    && row.legitimate = r.legitimate
    && row.worst_case = r.worst_case_recovery)

(* ---- what a verdict reads ---- *)

let test_stabilization_ignores_initials () =
  let e = entry "dijkstra3" in
  let p = e.program n in
  let compiled = List.map Program.to_explicit
      [ p; Program.with_initial (fun s -> s.(0) = 0) p;
        Program.with_initial (fun _ -> true) p ]
  in
  let reports =
    List.map
      (fun c ->
        stab_only (Registry.stabilizing ~alpha:(e.alpha n) c (e.spec n) ()))
      compiled
  in
  let initials = List.map Explicit.initials compiled in
  check "three different initial sets" true
    (List.length (List.sort_uniq compare initials) = 3);
  check "one report" true
    (List.for_all (( = ) (List.hd reports)) (List.tl reports))

let test_refinement_reads_initials () =
  let e = entry "dijkstra3" in
  let p = e.program n in
  let init p =
    let c = Program.to_explicit p in
    ((Registry.refining ~alpha:(e.alpha n) c (e.spec n)).init (), c)
  in
  let r, c = init p in
  check "the ring's initial states: holds" true r.Refine.holds;
  check "over the edges they reach" true
    (r.stats.edges < Explicit.num_transitions c);
  let r, c = init (Program.with_initial (fun _ -> true) p) in
  check "every state initial: fails" false r.holds;
  Alcotest.(check int) "over every edge" (Explicit.num_transitions c)
    r.stats.edges

(* Each lane of [table] moved by [move] (skipped where it returns
   [None]), checked by [run]; returns how many verdicts moved off the
   unmoved table's.  [run]'s [~lane] names the moved lane in a failure,
   -1 for none. *)
let moved_lanes table ~move ~run =
  let base = run ~lane:(-1) table in
  let flips = ref 0 in
  for i = 0 to Lane.length table - 1 do
    match move (Lane.get table i) with
    | None -> ()
    | Some v ->
        let moved = Bytes.copy table in
        Lane.set moved i v;
        if run ~lane:i moved <> base then incr flips
  done;
  !flips

let stabilization_moves ~space ~partial ~move () =
  let e = entry "dijkstra3" in
  let c = Registry.explicit e n in
  let a = Program.to_explicit ~space (e.spec n) in
  let table = Abstraction.tabulate ~partial (e.alpha n) c a in
  let run ~lane alpha =
    let got = Stabilize.stabilizing_to ~alpha ~c ~a () in
    let want = Stabilize_ref.stabilizing_to ~alpha ~c ~a () in
    if not (Stabilize_ref.agrees got want) then
      Alcotest.failf "lane %d: a field differs from the reference's" lane;
    got.Stabilize.holds
  in
  let flips = moved_lanes table ~move:(move (Explicit.num_states a)) ~run in
  check "some move changes the verdict" true (flips > 0)

let test_moved_lanes_stabilization () =
  stabilization_moves ~space:Cr_semantics.Space.Dense ~partial:false
    ~move:(fun size v -> Some ((v + 1) mod size)) ()

let test_lanes_outside_l_stabilization () =
  stabilization_moves ~space:Cr_semantics.Space.Sparse ~partial:true
    ~move:(fun _ v -> if v >= 0 then Some (-1) else None) ()

let test_moved_lanes_refinement () =
  let e = entry "c1" in
  let c = Registry.explicit e n in
  let a = Program.to_explicit (e.spec n) in
  let table = Abstraction.tabulate (e.alpha n) c a in
  let size = Explicit.num_states a in
  let run ~lane alpha =
    let got =
      let open Refine in
      [ init_refinement ~alpha ~c ~a (); everywhere_refinement ~alpha ~c ~a ();
        convergence_refinement ~alpha ~c ~a ();
        everywhere_eventually_refinement ~alpha ~c ~a () ]
    in
    List.iter2
      (fun got (label, want) ->
        match Refine_ref.mismatch got want with
        | None -> ()
        | Some field ->
            Alcotest.failf "lane %d, %s: %s differs from the reference's" lane
              label field)
      got (Refine_ref.relations ~alpha ~c ~a ());
    List.map (fun r -> r.Refine.holds) got
  in
  let flips =
    moved_lanes table ~move:(fun v -> Some ((v + 1) mod size)) ~run
  in
  check "some move changes a verdict" true (flips > 0)

(* ---- concurrent requesters ---- *)

let eight_requesters f =
  Par.with_jobs 4 (fun () -> Par.map_array f (Array.make 8 ()))

let test_concurrent_stabilization () =
  let e = entry "dijkstra3" in
  let stab =
    Registry.stabilizing ~alpha:(e.alpha n) (Registry.explicit e n) (e.spec n)
  in
  let want = stab_only (stab ()) in
  let got, snap, _ =
    counted (fun () -> eight_requesters (fun () -> stab_only (stab ())))
  in
  Alcotest.(check int) "eight runs" 8 (counter snap "stabilize.runs");
  Array.iteri
    (fun k r ->
      check (Printf.sprintf "requester %d: the sequential report" k) true
        (r = want))
    got

(* Fresh graphs: no check has swept their initial states yet, so the
   requesters race on that first sweep. *)
let test_concurrent_refinement () =
  let e = entry "c1" in
  let refining () =
    Registry.refining ~alpha:(e.alpha n) (Registry.init_explicit e n) (e.spec n)
  in
  let want = refs_only (Registry.relations (refining ())) in
  let r = refining () in
  let got = eight_requesters (fun () -> refs_only (Registry.relations r)) in
  Array.iteri
    (fun k reports ->
      check (Printf.sprintf "requester %d: the sequential reports" k) true
        (reports = want))
    got

let test_concurrent_sweep () =
  let names = Registry.names () in
  let want = List.map verdicts names in
  check "the sequential sweep's reports" true
    (Par.with_jobs 4 (fun () -> Par.map verdicts names) = want)

let () =
  Alcotest.run "recheck"
    [
      ( "every call checks",
        [
          Alcotest.test_case "each stabilization call runs its check" `Quick
            test_stabilization_runs_each_call;
          Alcotest.test_case "each refinement call runs its checks" `Quick
            test_refinement_runs_each_call;
          Alcotest.test_case "a second registry sweep repeats the first" `Quick
            test_second_sweep;
          Alcotest.test_case "a table row and verify run and agree" `Quick
            test_table_row_and_verify;
        ] );
      ( "verdict inputs",
        [
          Alcotest.test_case "stabilization ignores C's initial states" `Quick
            test_stabilization_ignores_initials;
          Alcotest.test_case "refinement reads C's initial states" `Quick
            test_refinement_reads_initials;
          Alcotest.test_case "every moved alpha lane: reference stabilization"
            `Quick test_moved_lanes_stabilization;
          Alcotest.test_case
            "every lane moved outside L: reference stabilization" `Quick
            test_lanes_outside_l_stabilization;
          Alcotest.test_case "every moved alpha lane: reference refinements"
            `Quick test_moved_lanes_refinement;
        ] );
      ( "concurrent checks",
        [
          Alcotest.test_case "8 requesters of one stabilization agree" `Quick
            test_concurrent_stabilization;
          Alcotest.test_case "8 requesters of one refinement agree" `Quick
            test_concurrent_refinement;
          Alcotest.test_case "a parallel registry sweep matches" `Quick
            test_concurrent_sweep;
        ] );
    ]
