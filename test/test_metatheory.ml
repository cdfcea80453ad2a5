(* Property-based metatheory tests (experiment E15): on randomly generated
   finite systems, the checker verdicts must respect the paper's theorems.
   Because the checkers are sound decision procedures, a theorem violation
   (premises verified, conclusion refuted) would expose a bug in either
   the checkers or the formalization. *)

open Cr_semantics

(* ---- random system generation over a shared state space 0..n-1 ---- *)

type raw = { n : int; edges : (int * int) list; inits : int list }

let gen_raw =
  QCheck2.Gen.(
    let* n = int_range 2 6 in
    let* m = int_bound 12 in
    let* edges = list_size (return m) (pair (int_bound (n - 1)) (int_bound (n - 1))) in
    let* i0 = int_bound (n - 1) in
    let* extra_inits = list_size (int_bound 2) (int_bound (n - 1)) in
    return { n; edges; inits = i0 :: extra_inits })

let explicit_of { n; edges; inits } name =
  let step s =
    List.filter_map (fun (i, j) -> if i = s && i <> j then Some j else None) edges
  in
  Explicit.of_system
    (System.make ~name
       ~states:(List.init n (fun i -> i))
       ~step
       ~is_initial:(fun s -> List.mem s inits)
       ~pp:Fmt.int ())

(* a sub-system of [raw]: keep a random subset of the edges *)
let gen_sub raw =
  QCheck2.Gen.(
    let* keep = list_repeat (List.length raw.edges) bool in
    let edges =
      List.filteri
        (fun i _ -> List.nth keep i)
        raw.edges
    in
    return { raw with edges })

let gen_pair =
  QCheck2.Gen.(
    let* a = gen_raw in
    let* c = gen_sub a in
    return (c, a))

(* rescale a raw system onto the state space of [a] *)
let rescale ~onto:(a : raw) (w : raw) =
  {
    n = a.n;
    edges = List.map (fun (i, j) -> (i mod a.n, j mod a.n)) w.edges;
    inits = a.inits;
  }

let gen_triple =
  QCheck2.Gen.(
    let* a = gen_raw in
    let* c = gen_sub a in
    let* w = gen_raw in
    return (c, a, rescale ~onto:a w))

(* ---- properties ---- *)

let prop_strength_chain =
  QCheck2.Test.make ~name:"everywhere => convergence => ee => init" ~count:300
    gen_pair (fun (craw, araw) ->
      let c = explicit_of craw "C" and a = explicit_of araw "A" in
      Cr_core.Theorems.strength_chain ~c ~a ())

let prop_theorem_0 =
  QCheck2.Test.make ~name:"Theorem 0 never refuted" ~count:300 gen_pair
    (fun (craw, araw) ->
      let c = explicit_of craw "C" and a = explicit_of araw "A" in
      Cr_core.Theorems.theorem_0 ~c ~a ~b:a () <> Cr_core.Theorems.Refuted)

let prop_theorem_1 =
  QCheck2.Test.make ~name:"Theorem 1 never refuted" ~count:300 gen_pair
    (fun (craw, araw) ->
      let c = explicit_of craw "C" and a = explicit_of araw "A" in
      Cr_core.Theorems.theorem_1 ~c ~a ~b:a () <> Cr_core.Theorems.Refuted)

let prop_theorem_3 =
  QCheck2.Test.make ~name:"Theorem 3 never refuted" ~count:300 gen_triple
    (fun (craw, araw, wraw) ->
      let c = explicit_of craw "C"
      and a = explicit_of araw "A"
      and w = explicit_of wraw "W" in
      Cr_core.Theorems.theorem_3 ~box:Explicit.box ~c ~a ~w ()
      <> Cr_core.Theorems.Refuted)

let prop_theorem_5 =
  QCheck2.Test.make ~name:"Theorem 5 never refuted" ~count:200
    QCheck2.Gen.(
      let* a = gen_raw in
      let* c = gen_sub a in
      let* w = gen_raw in
      let w = rescale ~onto:a w in
      let* w' = gen_sub w in
      return (c, a, w, w'))
    (fun (craw, araw, wraw, w'raw) ->
      let c = explicit_of craw "C"
      and a = explicit_of araw "A"
      and w = explicit_of wraw "W"
      and w' = explicit_of w'raw "W'" in
      Cr_core.Theorems.theorem_5 ~box:Explicit.box ~c ~a ~w ~w' ()
      <> Cr_core.Theorems.Refuted)

(* When the convergence-refinement checker accepts, every finite maximal
   computation of C must actually be a convergence isomorphism of some
   computation of A.  Checked by exhaustive enumeration on acyclic systems
   (DAG generator), where both computation sets are finite. *)
let gen_dag_pair =
  QCheck2.Gen.(
    let* n = int_range 2 6 in
    let* m = int_bound 12 in
    let* raw_edges =
      list_size (return m) (pair (int_bound (n - 1)) (int_bound (n - 1)))
    in
    (* orient edges upward to force acyclicity *)
    let edges =
      List.filter_map
        (fun (i, j) ->
          if i = j then None else Some (min i j, max i j))
        raw_edges
    in
    let* i0 = int_bound (n - 1) in
    let a = { n; edges; inits = [ i0 ] } in
    let* c = gen_sub a in
    return (c, a))

let prop_convergence_witnesses =
  QCheck2.Test.make ~name:"accepted refinements have matching computations"
    ~count:300 gen_dag_pair (fun (craw, araw) ->
      let c = explicit_of craw "C" and a = explicit_of araw "A" in
      let r = Cr_core.Refine.convergence_refinement ~c ~a () in
      if not r.Cr_core.Refine.holds then true
      else begin
        let depth = Explicit.num_states a + 1 in
        let ok = ref true in
        for start = 0 to Explicit.num_states c - 1 do
          let cs = Computation.bounded_computations c ~start ~depth in
          let as_ = Computation.bounded_computations a ~start ~depth in
          List.iter
            (fun comp ->
              let matched =
                List.exists
                  (fun acomp ->
                    Computation.is_convergence_isomorphism ~candidate:comp
                      ~of_:acomp)
                  as_
              in
              if not matched then ok := false)
            cs
        done;
        !ok
      end)

(* Stabilization verdict cross-check: when the checker rejects with a cycle
   witness, the witness is a real cycle of C whose states can avoid
   converging forever. *)
let prop_cycle_witness_valid =
  QCheck2.Test.make ~name:"divergence witnesses are real cycles" ~count:300
    gen_pair (fun (craw, araw) ->
      let c = explicit_of craw "C" and a = explicit_of araw "A" in
      let r = Cr_core.Stabilize.stabilizing_to ~c ~a () in
      match r.Cr_core.Stabilize.bad_cycle with
      | None -> true
      | Some [] -> false
      | Some (first :: _ as cyc) ->
          (* consecutive edges exist and the cycle closes *)
          let rec edges_ok = function
            | [] -> true
            | [ last ] -> Explicit.has_edge c last first || last = first
            | x :: (y :: _ as rest) -> Explicit.has_edge c x y && edges_ok rest
          in
          edges_ok cyc)

(* When stabilization holds, random walks from every state end up (within
   the worst-case bound) in the legitimate behaviour of A. *)
let prop_stabilization_walks =
  QCheck2.Test.make ~name:"stabilizing systems converge on random walks"
    ~count:150 gen_pair (fun (craw, araw) ->
      let c = explicit_of craw "C" and a = explicit_of araw "A" in
      let r = Cr_core.Stabilize.stabilizing_to ~c ~a () in
      if not r.Cr_core.Stabilize.holds then true
      else
        match r.Cr_core.Stabilize.worst_case_recovery with
        | None -> true
        | Some bound ->
            let legit = Cr_checker.Reach.reachable_from_initial a in
            let rng = Random.State.make [| 11 |] in
            let ok = ref true in
            for start = 0 to Explicit.num_states c - 1 do
              for _rep = 1 to 3 do
                let w =
                  Computation.random_walk c ~rng ~start
                    ~max_len:(bound + Explicit.num_states c + 2)
                in
                (* after [bound] steps every visited state must be
                   legitimate *)
                List.iteri
                  (fun k s ->
                    if k > bound && not (Cr_kernel.Bitset.get legit s) then
                      ok := false)
                  w
              done
            done;
            !ok)

(* Brute-force cross-validation of the stabilization checker on acyclic
   instances, where "every computation of C has a suffix that is a suffix
   of some computation of A from an initial state" can be decided by
   exhaustive enumeration. *)
let suffixes l =
  let rec go = function [] -> [] | _ :: rest as l -> l :: go rest in
  go l

let prop_stabilization_bruteforce =
  QCheck2.Test.make ~name:"stabilization checker agrees with brute force"
    ~count:300 gen_dag_pair (fun (craw, araw) ->
      let c = explicit_of craw "C" and a = explicit_of araw "A" in
      let verdict = (Cr_core.Stabilize.stabilizing_to ~c ~a ()).Cr_core.Stabilize.holds in
      (* enumerate all computations of A from initial states and collect
         their suffixes *)
      let depth = Explicit.num_states a + 1 in
      let a_suffixes =
        Array.to_list (Explicit.initials a)
        |> List.concat_map (fun i -> Computation.bounded_computations a ~start:i ~depth)
        |> List.concat_map suffixes
        |> List.sort_uniq compare
      in
      (* brute force: every computation of C (from every state) must have
         some suffix in that set *)
      let brute = ref true in
      for start = 0 to Explicit.num_states c - 1 do
        List.iter
          (fun comp ->
            let ok = List.exists (fun s -> List.mem s a_suffixes) (suffixes comp) in
            if not ok then brute := false)
          (Computation.bounded_computations c ~start ~depth)
      done;
      verdict = !brute)

(* ---- abstraction-function metatheory: random quotient maps ----

   Generate an abstract system A over m states, an onto map q from n >= m
   concrete states, and a concrete C whose transitions project into A's
   (possibly with extra stuttering inside quotient classes).  The checkers
   must respect the theorems through the abstraction. *)

let gen_quotient =
  QCheck2.Gen.(
    let* m = int_range 2 4 in
    let* extra = int_bound 3 in
    let n = m + extra in
    (* onto map: first m states map to themselves, the rest randomly *)
    let* tail = list_repeat extra (int_bound (m - 1)) in
    let q = Array.of_list (List.init m (fun i -> i) @ tail) in
    let* a_edges = list_size (int_bound 8) (pair (int_bound (m - 1)) (int_bound (m - 1))) in
    let* c_edges = list_size (int_bound 12) (pair (int_bound (n - 1)) (int_bound (n - 1))) in
    let* i0 = int_bound (m - 1) in
    return (m, n, q, a_edges, c_edges, i0))

let prop_quotient_theorem1 =
  QCheck2.Test.make ~name:"Theorem 1 never refuted through abstractions"
    ~count:300 gen_quotient (fun (m, n, q, a_edges, c_edges, i0) ->
      ignore m;
      let a = explicit_of { n = m; edges = a_edges; inits = [ i0 ] } "A" in
      let inits = List.filter (fun i -> q.(i) = i0) (List.init n (fun i -> i)) in
      let c = explicit_of { n; edges = c_edges; inits } "C" in
      let alpha =
        Cr_kernel.Lane.of_array (Array.init n (fun i -> Explicit.find a q.(i)))
      in
      let p1 = (Cr_core.Refine.convergence_refinement ~alpha ~c ~a ()).Cr_core.Refine.holds in
      let p2 = (Cr_core.Stabilize.self_stabilizing a).Cr_core.Stabilize.holds in
      let concl = (Cr_core.Stabilize.stabilizing_to ~alpha ~c ~a ()).Cr_core.Stabilize.holds in
      (not (p1 && p2)) || concl)

let prop_quotient_strength =
  QCheck2.Test.make ~name:"strength chain through abstractions" ~count:300
    gen_quotient (fun (m, n, q, a_edges, c_edges, i0) ->
      let a = explicit_of { n = m; edges = a_edges; inits = [ i0 ] } "A" in
      let inits = List.filter (fun i -> q.(i) = i0) (List.init n (fun i -> i)) in
      let c = explicit_of { n; edges = c_edges; inits } "C" in
      let alpha =
        Cr_kernel.Lane.of_array (Array.init n (fun i -> Explicit.find a q.(i)))
      in
      Cr_core.Theorems.strength_chain ~alpha ~c ~a ())

(* The library's one-pass stabilization route against the reference
   route (test/stabilize_ref.ml: transpose, backward reachability, a
   separate longest-path DFS, a bool mask): identical reports, every
   field, on random systems — directly and through random quotient
   maps, plain and weakly fair (action tables drawn from C's own
   edges).  The reference runs the pure-stutter cycle test on every
   system over all of C's edges, so agreement also shows that the
   library's restriction of it (to the τ-steps its sweep collected from
   the states whose image is in L) loses nothing. *)
let same_as_reference ?alpha ~c ~a () =
  let tables =
    Array.init 2 (fun k ->
        Cr_kernel.Lane.of_array
          (Array.init (Explicit.num_states c) (fun s ->
               let d = Explicit.out_degree c s in
               if d = 0 || (s + k) mod 3 = 0 then -1
               else Explicit.successor c s ((s + k) mod d))))
  in
  List.for_all
    (fun fair ->
      Stabilize_ref.agrees
        (Cr_core.Stabilize.stabilizing_to ?alpha ?fair ~c ~a ())
        (Stabilize_ref.stabilizing_to ?alpha ?fair ~c ~a ()))
    [ None; Some tables ]

let prop_stabilize_reference =
  QCheck2.Test.make ~name:"stabilization report = reference route" ~count:300
    QCheck2.Gen.(pair gen_pair gen_quotient)
    (fun ((craw, araw), (m, n, q, a_edges, c_edges, i0)) ->
      let c = explicit_of craw "C" and a = explicit_of araw "A" in
      let qa = explicit_of { n = m; edges = a_edges; inits = [ i0 ] } "A" in
      let qc = explicit_of { n; edges = c_edges; inits = [] } "C" in
      let alpha =
        Cr_kernel.Lane.of_array (Array.init n (fun i -> Explicit.find qa q.(i)))
      in
      same_as_reference ~c ~a () && same_as_reference ~alpha ~c:qc ~a:qa ())

(* The library's bounded failure collector against the list-building
   route (test/refine_ref.ml): identical reports — verdict, stats, shown
   failures, total and printed line — for the four relations on random
   systems: sub-systems, systems through random quotient maps, and
   unrelated pairs with their own initial states, plain and weakly fair
   (action tables drawn from C's own edges). *)
let fair_tables c =
  Array.init 2 (fun k ->
      Cr_kernel.Lane.of_array
        (Array.init (Explicit.num_states c) (fun s ->
             let d = Explicit.out_degree c s in
             if d = 0 || (s + k) mod 3 = 0 then -1
             else Explicit.successor c s ((s + k) mod d))))

let refine_reports ?alpha ~c ~a () =
  let fair = fair_tables c in
  let open Cr_core.Refine in
  let got =
    [
      init_refinement ?alpha ~c ~a ();
      everywhere_refinement ?alpha ~c ~a ();
      convergence_refinement ?alpha ~c ~a ();
      everywhere_eventually_refinement ?alpha ~c ~a ();
      convergence_refinement ?alpha ~fair ~c ~a ();
      everywhere_eventually_refinement ?alpha ~fair ~c ~a ();
    ]
  in
  let want =
    List.map snd (Refine_ref.relations ?alpha ~c ~a ())
    @ [
        Refine_ref.convergence_refinement ?alpha ~fair ~c ~a ();
        Refine_ref.everywhere_eventually_refinement ?alpha ~fair ~c ~a ();
      ]
  in
  List.combine got want

let gen_refine_case =
  QCheck2.Gen.(
    let* pair = gen_pair in
    let* q = gen_quotient in
    let* unrelated_c = gen_raw in
    let* unrelated_a = gen_raw in
    return (pair, q, (unrelated_c, rescale ~onto:unrelated_c unrelated_a)))

let refine_case_reports ((craw, araw), (m, n, q, a_edges, c_edges, i0), (uc, ua))
    =
  let qa = explicit_of { n = m; edges = a_edges; inits = [ i0 ] } "A" in
  let qc = explicit_of { n; edges = c_edges; inits = [ 0; n - 1 ] } "C" in
  let alpha =
    Cr_kernel.Lane.of_array (Array.init n (fun i -> Explicit.find qa q.(i)))
  in
  refine_reports ~c:(explicit_of craw "C") ~a:(explicit_of araw "A") ()
  @ refine_reports ~alpha ~c:qc ~a:qa ()
  @ refine_reports
      ~c:(explicit_of uc "C")
      ~a:(explicit_of { ua with inits = List.map (fun i -> (i + 1) mod ua.n) ua.inits } "A")
      ()

let prop_refine_reference =
  QCheck2.Test.make ~name:"refinement report = list-building route"
    ~count:300 gen_refine_case (fun case ->
      List.for_all
        (fun (got, want) -> Refine_ref.mismatch got want = None)
        (refine_case_reports case))

(* The random systems above exercise every failure kind: on a fixed
   sample, the reference reports show each of them, and the collector
   agrees with it on every case. *)
let test_refine_reference_kinds () =
  let open Cr_core.Refine in
  let kind = function
    | Initial_not_initial _ -> "initial"
    | Init_edge_not_exact _ -> "init edge"
    | Edge_unmatched _ -> "unmatched"
    | Compression_on_cycle _ -> "compression on cycle"
    | Stutter_cycle _ -> "stutter cycle"
    | Terminal_not_terminal _ -> "terminal"
    | Non_exact_on_cycle _ -> "non-exact on cycle"
  in
  let seen = Hashtbl.create 8 in
  List.iter
    (fun case ->
      List.iter
        (fun (got, want) ->
          (match Refine_ref.mismatch got want with
          | None -> ()
          | Some field -> Alcotest.failf "%s differs from the reference" field);
          List.iter (fun f -> Hashtbl.replace seen (kind f) ()) want.failures)
        (refine_case_reports case))
    (QCheck2.Gen.generate ~rand:(Random.State.make [| 23 |]) ~n:300
       gen_refine_case);
  Alcotest.(check (list string))
    "every failure kind shown"
    [
      "compression on cycle"; "init edge"; "initial"; "non-exact on cycle";
      "stutter cycle"; "terminal"; "unmatched";
    ]
    (List.sort compare (List.of_seq (Hashtbl.to_seq_keys seen)))

(* ---- Theorems 0 and 1 at small scope, exhaustively ----

   The case that made Theorem 1 seed-dependent (hand-reduced): A = {1->0}
   from I_A = {1}; C over 0..3 with 1->2 and the τ-cycle 0<->3, all but
   state 1 imaged to 0.  C convergence-refines A (the τ-cycle sits at the
   A-terminal image 0), and C stabilizes to A: the image of 0,3,0,3,...
   normalizes to the finite sequence 0, a suffix of A's computation 1,0. *)
let test_four_state_case () =
  let a = explicit_of { n = 2; edges = [ (1, 0) ]; inits = [ 1 ] } "A" in
  let c =
    explicit_of { n = 4; edges = [ (1, 2); (0, 3); (3, 0) ]; inits = [ 1 ] } "C"
  in
  let alpha =
    Cr_kernel.Lane.of_array (Array.map (Explicit.find a) [| 0; 1; 0; 0 |])
  in
  Alcotest.(check bool)
    "Theorem 1 witnessed" true
    (Cr_core.Theorems.theorem_1 ~alpha_ca:alpha ~c ~a ~b:a ()
    = Cr_core.Theorems.Witnessed)

(* Every self-loop-free A over |Sigma_A| <= 2 states, every non-empty I_A,
   every onto non-decreasing α (so C up to renaming its states), every
   self-loop-free C over |Sigma_C| <= 4 states with I_C = α^-1(I_A):
   neither Theorem 0 nor Theorem 1 (B = A) is ever refuted. *)
let test_small_scope () =
  let states n = List.init n Fun.id in
  let pairs n =
    List.concat_map
      (fun i -> List.filter_map (fun j -> if i <> j then Some (i, j) else None) (states n))
      (states n)
  in
  let subsets l =
    List.fold_right (fun x acc -> acc @ List.map (List.cons x) acc) l [ [] ]
  in
  (* the non-decreasing maps from 0..n-1 onto 0..m-1: they start at 0,
     step by at most 1 and end at m - 1 *)
  let onto n m =
    let rec from k v =
      if k = n then if v = m - 1 then [ [] ] else []
      else
        List.concat_map
          (fun w -> List.map (List.cons w) (from (k + 1) w))
          (List.filter (fun w -> w < m) [ v; v + 1 ])
    in
    List.map (List.cons 0) (from 1 0)
  in
  let systems = ref 0 in
  (let ( let* ) l f = List.iter f l in
   let* m = [ 1; 2 ] in
   let* a_edges = subsets (pairs m) in
   let* a_inits = List.filter (( <> ) []) (subsets (states m)) in
   let a = explicit_of { n = m; edges = a_edges; inits = a_inits } "A" in
   let* n = List.init (5 - m) (fun k -> m + k) in
   let* q = List.map Array.of_list (onto n m) in
   let alpha =
     Cr_kernel.Lane.of_array (Array.map (Explicit.find a) q)
   in
   let inits = List.filter (fun i -> List.mem q.(i) a_inits) (states n) in
   let* edges = subsets (pairs n) in
   let c = explicit_of { n; edges; inits } "C" in
   incr systems;
   let* name, theorem =
     [ ("Theorem 0", Cr_core.Theorems.theorem_0);
       ("Theorem 1", Cr_core.Theorems.theorem_1) ]
   in
   if theorem ~alpha_ca:alpha ~c ~a ~b:a () = Cr_core.Theorems.Refuted then
     Alcotest.failf
       "%s refuted: A over %d states, edges %a, I_A %a; C over %d states, \
        edges %a; alpha %a"
       name m
       Fmt.(Dump.list (Dump.pair int int)) a_edges
       Fmt.(Dump.list int) a_inits n
       Fmt.(Dump.list (Dump.pair int int)) edges
       Fmt.(Dump.array int) q);
  Alcotest.(check int) "systems enumerated" 153_205 !systems

let cases =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_strength_chain;
      prop_theorem_0;
      prop_theorem_1;
      prop_theorem_3;
      prop_theorem_5;
      prop_convergence_witnesses;
      prop_cycle_witness_valid;
      prop_stabilization_walks;
      prop_stabilization_bruteforce;
      prop_quotient_theorem1;
      prop_quotient_strength;
      prop_stabilize_reference;
      prop_refine_reference;
    ]

let () =
  Alcotest.run "metatheory"
    [
      ("properties", cases);
      ( "refine-reference",
        [
          Alcotest.test_case "every failure kind, fixed sample" `Quick
            test_refine_reference_kinds;
        ] );
      ( "small-scope",
        [
          Alcotest.test_case "Theorem 1 on the 4-state τ-cycle case" `Quick
            test_four_state_case;
          Alcotest.test_case "Theorems 0 and 1, every system to 2 x 4 states"
            `Quick test_small_scope;
        ] );
    ]
