(* Sparse-vs-dense agreement for the pluggable Space engine.

   The contract under test (lib/semantics/space.mli): the sparse engine
   materializes exactly the init-reachable fragment of the dense space,
   with identical transition structure under the keys bijection — so
   every init-anchored verdict computed on a sparse compile equals the
   same verdict on the dense compile restricted to its reachable set.
   We check this across the whole registry at small ring sizes, and that
   sparse discovery is byte-invariant under the CR_JOBS fan-out.  The
   spec side too: a refinement checked against the spec's α-closure and
   a stabilization checked against its legitimate orbit report what the
   full dense spec gives. *)

open Cr_semantics
module Program = Cr_guarded.Program
module Registry = Cr_experiments.Registry
module Refine = Cr_core.Refine

let compile ~space e n = Program.to_explicit ~space (e.Registry.program n)

(* The entry's spec over its full product space: the dense reference
   every spec-fragment route must agree with. *)
let dense_spec e n = Program.to_explicit (e.Registry.spec n)

(* A compile with the job count forced. *)
let fresh ~space ~jobs e n =
  Cr_kernel.Par.with_jobs jobs @@ fun () -> compile ~space e n

(* Keep the dense side of each comparison small: the point of sparse is
   ring sizes where dense is NOT cheap, which is bench territory. *)
let dense_cap = 1_000_000

let cases_at ns =
  List.concat_map
    (fun e ->
      List.filter_map
        (fun n ->
          let layout = Program.layout (e.Registry.program n) in
          if Cr_guarded.Layout.num_states layout <= dense_cap then
            Some (e, n)
          else None)
        ns)
    Registry.entries

let cases = cases_at [ 3; 4 ]

let case_name (e, n) = Printf.sprintf "%s n=%d" e.Registry.name n

(* Dense-side reachable set, by an independent BFS over the compiled
   graph (deliberately not Space.discover: this is the oracle). *)
let reachable g =
  let seen = Array.make (Explicit.num_states g) false in
  let q = Queue.create () in
  let visit i = if not seen.(i) then (seen.(i) <- true; Queue.add i q) in
  Array.iter visit (Explicit.initials g);
  while not (Queue.is_empty q) do
    let i = Queue.pop q in
    Array.iter visit (Explicit.successors g i)
  done;
  seen

(* sparse index -> dense index, via the states themselves. *)
let bijection ~dense ~sparse =
  Array.init (Explicit.num_states sparse) (fun i ->
      Explicit.find dense (Explicit.state sparse i))

(* The dense graph restricted to its reachable set, re-indexed in sparse
   order: built from dense data alone, so [same_transitions] against the
   sparse compile is the full agreement statement. *)
let restriction (e, n) ~dense ~sparse ~bij =
  let m = Explicit.num_states sparse in
  let inv = Hashtbl.create m in
  Array.iteri (fun i d -> Hashtbl.replace inv d i) bij;
  let succ_lists =
    Array.init m (fun i ->
        Explicit.successors dense bij.(i)
        |> Array.to_list
        |> List.filter_map (fun d -> Hashtbl.find_opt inv d))
  in
  Explicit.of_edge_lists ~name:(Explicit.name sparse)
    ~states:(Array.init m (Explicit.state sparse))
    ~pp_state:(fun fmt s -> Fmt.string fmt (e.Registry.render n s))
    ~is_initial:(fun s -> Explicit.is_initial dense (Explicit.find dense s))
    ~succ_lists

let sorted a = let a = Array.copy a in Array.sort compare a; a

let test_agreement (e, n) () =
  let dense = compile ~space:Space.Dense e n in
  let sparse = compile ~space:Space.Sparse e n in
  let bij = bijection ~dense ~sparse in
  (* keys are a bijection onto the dense reachable set *)
  let seen = reachable dense in
  let n_reach = Array.fold_left (fun k b -> if b then k + 1 else k) 0 seen in
  Alcotest.(check int)
    (case_name (e, n) ^ ": sparse size = dense reachable count")
    n_reach (Explicit.num_states sparse);
  Array.iter
    (fun d ->
      Alcotest.(check bool)
        (case_name (e, n) ^ ": sparse state is dense-reachable")
        true seen.(d))
    bij;
  let distinct = Hashtbl.create 16 in
  Array.iter (fun d -> Hashtbl.replace distinct d ()) bij;
  Alcotest.(check int)
    (case_name (e, n) ^ ": keys injective")
    (Explicit.num_states sparse) (Hashtbl.length distinct);
  (* transition structure and initials agree under the bijection *)
  let restr = restriction (e, n) ~dense ~sparse ~bij in
  Alcotest.(check bool)
    (case_name (e, n) ^ ": sparse = dense|reachable (states + edges)")
    true
    (Explicit.same_transitions sparse restr);
  Alcotest.(check (array int))
    (case_name (e, n) ^ ": initials agree")
    (sorted (Explicit.initials restr))
    (sorted (Explicit.initials sparse))

(* α-images agree modulo the bijection: abstracting a state cannot
   depend on which engine enumerated it. *)
let test_alpha (e, n) () =
  let dense = compile ~space:Space.Dense e n in
  let sparse = compile ~space:Space.Sparse e n in
  let spec = dense_spec e n in
  let bij = bijection ~dense ~sparse in
  let tab_d = Abstraction.tabulate (e.Registry.alpha n) dense spec in
  let tab_s = Abstraction.tabulate (e.Registry.alpha n) sparse spec in
  Array.iteri
    (fun k d ->
      Alcotest.(check int)
        (case_name (e, n) ^ ": alpha image agrees at sparse index")
        (Cr_kernel.Lane.get tab_d d)
        (Cr_kernel.Lane.get tab_s k))
    bij

(* The four refinement relations, computed on the sparse compile and on
   the independently-built dense restriction: identical verdicts AND
   identical failure counts. *)
let test_refine (e, n) () =
  let dense = compile ~space:Space.Dense e n in
  let sparse = compile ~space:Space.Sparse e n in
  let spec = dense_spec e n in
  let bij = bijection ~dense ~sparse in
  let restr = restriction (e, n) ~dense ~sparse ~bij in
  let verdicts ep =
    let alpha = Abstraction.tabulate (e.Registry.alpha n) ep spec in
    [
      ("init", Refine.init_refinement ~alpha ~c:ep ~a:spec ());
      ("everywhere", Refine.everywhere_refinement ~alpha ~c:ep ~a:spec ());
      ("convergence", Refine.convergence_refinement ~alpha ~c:ep ~a:spec ());
      ("ee", Refine.everywhere_eventually_refinement ~alpha ~c:ep ~a:spec ());
    ]
  in
  List.iter2
    (fun (rel, s) (_, r) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: %s verdict" (case_name (e, n)) rel)
        r.Refine.holds s.Refine.holds;
      Alcotest.(check int)
        (Printf.sprintf "%s: %s failure count" (case_name (e, n)) rel)
        r.Refine.total_failures s.Refine.total_failures)
    (verdicts sparse) (verdicts restr)

(* Registry.refinements checks against the spec's α-closure (compiled
   from the α-images of the concrete states); each of its four reports
   must be the one the full dense spec gives: verdict, stats, failure
   count and every printed failure. *)
let test_refinements_dense (e, n) () =
  let ep = Registry.init_explicit e n in
  let spec = dense_spec e n in
  let alpha = Abstraction.tabulate (e.Registry.alpha n) ep spec in
  let dense =
    [
      ("init", Refine.init_refinement ~alpha ~c:ep ~a:spec ());
      ("everywhere", Refine.everywhere_refinement ~alpha ~c:ep ~a:spec ());
      ("convergence", Refine.convergence_refinement ~alpha ~c:ep ~a:spec ());
      ("ee", Refine.everywhere_eventually_refinement ~alpha ~c:ep ~a:spec ());
    ]
  in
  let text (r : Refine.report) =
    List.map (Fmt.str "%a" (Refine.pp_failure ep spec)) r.failures
  in
  List.iter2
    (fun (rel, (got : Refine.report)) (rel', (want : Refine.report)) ->
      let label what = Printf.sprintf "%s: %s %s" (case_name (e, n)) rel what in
      Alcotest.(check string) (label "relation") rel' rel;
      Alcotest.(check bool) (label "verdict") want.holds got.holds;
      Alcotest.(check bool) (label "stats") true (want.stats = got.stats);
      Alcotest.(check int)
        (label "failure count") want.total_failures got.total_failures;
      Alcotest.(check string) (label "abstract") want.abstract got.abstract;
      Alcotest.(check (list string)) (label "failures") (text want) (text got))
    (Registry.refinements e n) dense

(* Registry.stabilization checks against the spec's legitimate orbit
   (a sparse compile) through a partial α-table; its report must be the
   one the full dense spec with a total α-table gives. *)
let test_stabilization (e, n) () =
  let ep = Registry.explicit e n in
  let spec = dense_spec e n in
  let alpha = Abstraction.tabulate (e.Registry.alpha n) ep spec in
  let strip r = { r with Cr_core.Stabilize.cost = None } in
  Alcotest.(check bool)
    (case_name (e, n) ^ ": legitimate-orbit report = dense-spec report")
    true
    (strip (Registry.stabilization e n ())
    = strip (Cr_core.Stabilize.stabilizing_to ~alpha ~c:ep ~a:spec ()))

(* Sparse discovery is chunked under the CR_JOBS contract of
   Cr_kernel.Par; the compiled graph must be identical for every job
   count. *)
let test_jobs_invariance () =
  List.iter
    (fun (name, n) ->
      match Registry.find name with
      | None -> Alcotest.failf "no registry entry %s" name
      | Some e ->
          let base = fresh ~space:Space.Sparse ~jobs:1 e n in
          List.iter
            (fun jobs ->
              let g = fresh ~space:Space.Sparse ~jobs e n in
              Alcotest.(check bool)
                (Printf.sprintf "%s n=%d: jobs=%d graph = jobs=1 graph"
                   name n jobs)
                true
                (Explicit.same_transitions base g);
              Alcotest.(check (array int))
                (Printf.sprintf "%s n=%d: jobs=%d initials = jobs=1" name n
                   jobs)
                (Explicit.initials base) (Explicit.initials g))
            [ 2; 4 ])
    [ ("dijkstra3", 3); ("rw-dijkstra3", 3); ("kstate", 4); ("c2-wrapped", 3) ]

let test_choice_parse () =
  let open Space in
  let check s expect =
    Alcotest.(check bool)
      (Printf.sprintf "choice_of_string %S" s)
      true
      (choice_of_string s = expect)
  in
  check "dense" (Some (Forced Dense));
  check "sparse" (Some (Forced Sparse));
  check "auto" (Some Auto);
  check " Dense " (Some (Forced Dense));
  check "SPARSE" (Some (Forced Sparse));
  check "bogus" None;
  (* empty means "unset": CR_SPACE= falls through to the default *)
  check "" (Some Auto)

let () =
  let per_case ?(cases = cases) mk label =
    List.map
      (fun c -> Alcotest.test_case (label ^ " " ^ case_name c) `Quick (mk c))
      cases
  in
  Alcotest.run "space"
    [
      ("choice", [ Alcotest.test_case "choice_of_string" `Quick test_choice_parse ]);
      ("agreement", per_case test_agreement "fragment");
      ("alpha", per_case test_alpha "alpha");
      ("refine", per_case test_refine "verdicts");
      ( "alpha-closure",
        per_case
          ~cases:
            (List.concat_map
               (fun e -> List.map (fun n -> (e, n)) [ 2; 3; 4 ])
               Registry.entries)
          test_refinements_dense "refinements" );
      ( "stabilization",
        per_case ~cases:(cases_at [ 2; 3; 4 ]) test_stabilization "orbit" );
      ("jobs", [ Alcotest.test_case "CR_JOBS byte-invariance" `Quick test_jobs_invariance ]);
    ]
