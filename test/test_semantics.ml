(* Unit and property tests for cr_semantics: symbolic systems, explicit
   compilation, computations, convergence isomorphism, abstractions. *)

open Cr_semantics

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* A small chain system 0 -> 1 -> 2 -> 3 with a branch 1 -> 3. *)
let chain =
  System.make ~name:"chain" ~states:[ 0; 1; 2; 3 ]
    ~step:(function 0 -> [ 1 ] | 1 -> [ 2; 3 ] | 2 -> [ 3 ] | _ -> [])
    ~is_initial:(fun s -> s = 0)
    ~pp:Fmt.int ()

let test_explicit_basics () =
  let e = Explicit.of_system chain in
  check_int "states" 4 (Explicit.num_states e);
  check_int "transitions" 4 (Explicit.num_transitions e);
  check "initial 0" true (Explicit.is_initial e (Explicit.find e 0));
  check "terminal 3" true (Explicit.is_terminal e (Explicit.find e 3));
  check "edge 1->3" true (Explicit.has_edge e (Explicit.find e 1) (Explicit.find e 3));
  check "no edge 0->2" false
    (Explicit.has_edge e (Explicit.find e 0) (Explicit.find e 2));
  check_int "initials" 1 (Array.length (Explicit.initials e))

let test_self_loops_dropped () =
  let sys =
    System.make ~name:"loop" ~states:[ 0; 1 ]
      ~step:(function 0 -> [ 0; 1 ] | _ -> [ 1 ])
      ~is_initial:(fun _ -> true) ~pp:Fmt.int ()
  in
  let e = Explicit.of_system sys in
  check_int "only 0->1 remains" 1 (Explicit.num_transitions e);
  check "1 terminal after loop removal" true
    (Explicit.is_terminal e (Explicit.find e 1))

let test_duplicate_states_rejected () =
  let sys =
    System.make ~name:"dup" ~states:[ 0; 0 ] ~step:(fun _ -> [])
      ~is_initial:(fun _ -> true) ~pp:Fmt.int ()
  in
  Alcotest.check_raises "duplicate rejected"
    (Invalid_argument "Explicit: duplicate state in enumeration of dup")
    (fun () -> ignore (Explicit.of_system sys))

let test_escaping_step_rejected () =
  let sys =
    System.make ~name:"escape" ~states:[ 0 ] ~step:(fun _ -> [ 7 ])
      ~is_initial:(fun _ -> true) ~pp:Fmt.int ()
  in
  check "raises Unknown_state" true
    (try
       ignore (Explicit.of_system sys);
       false
     with Explicit.Unknown_state _ -> true)

let test_box_union () =
  let s1 =
    System.make ~name:"s1" ~states:[ 0; 1; 2 ]
      ~step:(function 0 -> [ 1 ] | _ -> [])
      ~is_initial:(fun s -> s = 0) ~pp:Fmt.int ()
  in
  let s2 =
    System.make ~name:"s2" ~states:[ 0; 1; 2 ]
      ~step:(function 1 -> [ 2 ] | _ -> [])
      ~is_initial:(fun s -> s = 1) ~pp:Fmt.int ()
  in
  let b = Explicit.of_system (System.box s1 s2) in
  check_int "union has both edges" 2 (Explicit.num_transitions b);
  (* initial states come from the left operand *)
  check "initial from left" true (Explicit.is_initial b (Explicit.find b 0));
  check "not initial from right" false (Explicit.is_initial b (Explicit.find b 1));
  (* explicit-level box agrees *)
  let e1 = Explicit.of_system s1 and e2 = Explicit.of_system s2 in
  let be = Explicit.box e1 e2 in
  check "explicit box same transitions" true (Explicit.same_transitions b be)

let test_box_priority () =
  let base =
    System.make ~name:"base" ~states:[ 0; 1; 2 ]
      ~step:(function 0 -> [ 1 ] | _ -> [])
      ~is_initial:(fun s -> s = 0) ~pp:Fmt.int ()
  in
  let wrapper =
    System.make ~name:"w" ~states:[ 0; 1; 2 ]
      ~step:(function 0 -> [ 2 ] | _ -> [])
      ~is_initial:(fun s -> s = 0) ~pp:Fmt.int ()
  in
  let p = Explicit.of_system (System.box_priority base wrapper) in
  (* wrapper preempts: only 0 -> 2 *)
  check_int "only wrapper edge at 0" 1 (Explicit.num_transitions p);
  check "0->2" true (Explicit.has_edge p (Explicit.find p 0) (Explicit.find p 2));
  (* a no-op wrapper does not preempt *)
  let noop =
    System.make ~name:"noop" ~states:[ 0; 1; 2 ]
      ~step:(function 0 -> [ 0 ] | _ -> [])
      ~is_initial:(fun s -> s = 0) ~pp:Fmt.int ()
  in
  let q = Explicit.of_system (System.box_priority base noop) in
  check "base acts when wrapper is a no-op" true
    (Explicit.has_edge q (Explicit.find q 0) (Explicit.find q 1))

let test_with_initials () =
  let e = Explicit.of_system chain in
  let e' = Explicit.with_initials e (fun s -> s >= 2) in
  check_int "two initials now" 2 (Array.length (Explicit.initials e'))

(* Computations *)

let test_paths () =
  let e = Explicit.of_system chain in
  let idx v = Explicit.find e v in
  check "path" true (Computation.is_path e [ idx 0; idx 1; idx 2; idx 3 ]);
  check "not a path" false (Computation.is_path e [ idx 0; idx 2 ]);
  check "computation ends terminal" true
    (Computation.is_computation e [ idx 0; idx 1; idx 3 ]);
  check "non-maximal is not a computation" false
    (Computation.is_computation e [ idx 0; idx 1 ])

let test_convergence_isomorphism () =
  (* the paper's own example: s1 s3 s6 vs s1 s2 s3 s4 s5 s6 *)
  check "paper positive example" true
    (Computation.is_convergence_isomorphism ~candidate:[ 1; 3; 6 ]
       ~of_:[ 1; 2; 3; 4; 5; 6 ]);
  (* and the negative: s1 s3 s5 s6 vs s1 s2 s5 s6 (insertion not allowed) *)
  check "paper negative example" false
    (Computation.is_convergence_isomorphism ~candidate:[ 1; 3; 5; 6 ]
       ~of_:[ 1; 2; 5; 6 ]);
  check "first state must match" false
    (Computation.is_convergence_isomorphism ~candidate:[ 2; 6 ]
       ~of_:[ 1; 2; 6 ]);
  check "last state must match" false
    (Computation.is_convergence_isomorphism ~candidate:[ 1; 2 ]
       ~of_:[ 1; 2; 6 ]);
  check "reflexive" true
    (Computation.is_convergence_isomorphism ~candidate:[ 1; 2; 3 ]
       ~of_:[ 1; 2; 3 ])

let test_omissions () =
  Alcotest.(check (option int))
    "three dropped" (Some 3)
    (Computation.omissions ~candidate:[ 1; 3; 6 ] ~of_:[ 1; 2; 3; 4; 5; 6 ]);
  Alcotest.(check (option int))
    "not a subsequence" None
    (Computation.omissions ~candidate:[ 3; 1 ] ~of_:[ 1; 2; 3 ])

let test_stutter_normalize () =
  Alcotest.(check (list int))
    "collapse" [ 1; 2; 3 ]
    (Computation.stutter_normalize [ 1; 1; 2; 2; 2; 3 ]);
  Alcotest.(check (list int)) "idempotent" [] (Computation.stutter_normalize [])

let test_bounded_computations () =
  let e = Explicit.of_system chain in
  let idx v = Explicit.find e v in
  let cs = Computation.bounded_computations e ~start:(idx 0) ~depth:10 in
  (* two maximal computations: 0123 and 013 *)
  check_int "two computations" 2 (List.length cs);
  check "all end at 3" true
    (List.for_all
       (fun p -> match List.rev p with x :: _ -> x = idx 3 | [] -> false)
       cs)

let test_random_walk () =
  let e = Explicit.of_system chain in
  let rng = Random.State.make [| 7 |] in
  let w = Computation.random_walk e ~rng ~start:(Explicit.find e 0) ~max_len:100 in
  check "walk is a path" true (Computation.is_path e w);
  check "walk reaches terminal" true (Computation.is_computation e w)

(* Abstractions *)

let test_abstraction () =
  let parity =
    System.make ~name:"parity" ~states:[ 0; 1 ]
      ~step:(function 0 -> [ 1 ] | _ -> [ 0 ])
      ~is_initial:(fun s -> s = 0) ~pp:Fmt.int ()
  in
  let e = Explicit.of_system chain in
  let p = Explicit.of_system parity in
  let a = Abstraction.make ~name:"mod2" (fun v -> v mod 2) in
  let table = Abstraction.tabulate a e p in
  check_int "0 maps to 0" (Explicit.find p 0) table.(Explicit.find e 0);
  check_int "3 maps to 1" (Explicit.find p 1) table.(Explicit.find e 3);
  check "onto" true (Abstraction.is_onto table ~num_abstract:(Explicit.num_states p));
  check "identity table" true (Abstraction.identity_table 3 = [| 0; 1; 2 |]);
  (* non-total mapping raises *)
  let bad = Abstraction.make ~name:"bad" (fun v -> v + 100) in
  check "not total" true
    (try
       ignore (Abstraction.tabulate bad e p);
       false
     with Abstraction.Not_total _ -> true);
  (* ... unless partial: images outside the compiled fragment map to -1 *)
  let part = Abstraction.make ~name:"part" (fun v -> if v < 2 then v else v + 100) in
  let ptable = Abstraction.tabulate ~partial:true part e p in
  check_int "partial: 1 maps to 1" (Explicit.find p 1) ptable.(Explicit.find e 1);
  check_int "partial: 3 maps to -1" (-1) ptable.(Explicit.find e 3);
  check "partial: default still raises" true
    (try
       ignore (Abstraction.tabulate part e p);
       false
     with Abstraction.Not_total _ -> true)

let test_abstraction_compose () =
  let a1 = Abstraction.make ~name:"half" (fun v -> v / 2) in
  let a2 = Abstraction.make ~name:"mod2" (fun v -> v mod 2) in
  let c = Abstraction.compose a2 a1 in
  check_int "compose applies inner first" ((7 / 2) mod 2) (Abstraction.apply c 7)

(* DOT export *)

let test_dot_export () =
  let e = Explicit.of_system chain in
  let dot = Dot.to_string ~highlight:(fun i -> if i = 0 then Some "red" else None) e in
  check "digraph header" true
    (String.length dot > 0 && String.sub dot 0 7 = "digraph");
  (* one node line per state, one edge line per transition *)
  let count_sub needle hay =
    let n = String.length needle and h = String.length hay in
    let c = ref 0 in
    for i = 0 to h - n do
      if String.sub hay i n = needle then incr c
    done;
    !c
  in
  check_int "edges" (Explicit.num_transitions e) (count_sub " -> " dot);
  check_int "one highlight" 1 (count_sub "fillcolor=\"red\"" dot);
  check_int "one initial (penwidth)" 1 (count_sub "penwidth=2" dot);
  check "size guard" true
    (try
       ignore (Dot.to_string ~max_states:2 e);
       false
     with Invalid_argument _ -> true)

(* qcheck properties for the sequence notions *)

let gen_small_list = QCheck2.Gen.(list_size (int_bound 8) (int_bound 5))

let prop_subsequence_refl =
  QCheck2.Test.make ~name:"subsequence is reflexive" ~count:200 gen_small_list
    (fun l -> Computation.is_subsequence ~sub:l ~of_:l)

let prop_subsequence_drop =
  QCheck2.Test.make ~name:"dropping any element keeps subsequence" ~count:200
    QCheck2.Gen.(pair gen_small_list (int_bound 20))
    (fun (l, i) ->
      match l with
      | [] -> true
      | _ ->
          let i = i mod List.length l in
          let dropped = List.filteri (fun j _ -> j <> i) l in
          Computation.is_subsequence ~sub:dropped ~of_:l)

let prop_conv_isom_refl =
  QCheck2.Test.make ~name:"convergence isomorphism is reflexive" ~count:200
    gen_small_list (fun l -> Computation.is_convergence_isomorphism ~candidate:l ~of_:l)

let prop_conv_isom_interior_drop =
  QCheck2.Test.make ~name:"dropping interior states preserves conv isom"
    ~count:200
    QCheck2.Gen.(pair gen_small_list (int_bound 20))
    (fun (l, i) ->
      if List.length l < 3 then true
      else
        let i = 1 + (i mod (List.length l - 2)) in
        let dropped = List.filteri (fun j _ -> j <> i) l in
        Computation.is_convergence_isomorphism ~candidate:dropped ~of_:l)

let prop_normalize_idempotent =
  QCheck2.Test.make ~name:"stutter_normalize is idempotent" ~count:200
    gen_small_list (fun l ->
      let n = Computation.stutter_normalize l in
      Computation.stutter_normalize n = n)

(* qcheck properties for the indexed hot path: mixed-radix rank/unrank
   and the binary-search edge membership test. *)

let gen_layout =
  QCheck2.Gen.(
    let* doms = list_size (int_range 1 5) (int_range 1 4) in
    return (Cr_guarded.Layout.make (List.mapi (fun i d -> (Printf.sprintf "v%d" i, d)) doms)))

let prop_rank_unrank_roundtrip =
  QCheck2.Test.make ~name:"Layout: rank/unrank roundtrip both ways" ~count:200
    QCheck2.Gen.(pair gen_layout (int_bound 10_000))
    (fun (l, r) ->
      let n = Cr_guarded.Layout.num_states l in
      let r = r mod n in
      let s = Cr_guarded.Layout.unrank l r in
      Cr_guarded.Layout.valid l s
      && Cr_guarded.Layout.rank l s = r
      && Cr_guarded.Layout.unrank l (Cr_guarded.Layout.rank l s) = s)

let prop_rank_matches_enumerate =
  QCheck2.Test.make ~name:"Layout: rank agrees with enumerate order" ~count:50
    gen_layout (fun l ->
      List.for_all
        (fun (i, s) -> Cr_guarded.Layout.rank l s = i && Cr_guarded.Layout.unrank l i = s)
        (List.mapi (fun i s -> (i, s)) (Cr_guarded.Layout.enumerate l)))

let gen_graph_sys =
  QCheck2.Gen.(
    let* n = int_range 1 10 in
    let* edges =
      list_size (int_bound 25) (pair (int_bound (n - 1)) (int_bound (n - 1)))
    in
    return (n, List.filter (fun (i, j) -> i <> j) edges))

let prop_has_edge_binary_eq_linear =
  QCheck2.Test.make ~name:"Explicit.has_edge = linear successor scan" ~count:100
    gen_graph_sys (fun (n, edges) ->
      let sys =
        System.make ~name:"rand"
          ~states:(List.init n Fun.id)
          ~step:(fun i -> List.filter_map (fun (a, b) -> if a = i then Some b else None) edges)
          ~is_initial:(fun _ -> true) ~pp:Fmt.int ()
      in
      let e = Explicit.of_system sys in
      let ok = ref true in
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          let linear = Array.exists (fun k -> k = j) (Explicit.successors e i) in
          if Explicit.has_edge e i j <> linear then ok := false
        done
      done;
      !ok)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_subsequence_refl;
      prop_subsequence_drop;
      prop_conv_isom_refl;
      prop_conv_isom_interior_drop;
      prop_normalize_idempotent;
      prop_rank_unrank_roundtrip;
      prop_rank_matches_enumerate;
      prop_has_edge_binary_eq_linear;
    ]

let () =
  Alcotest.run "semantics"
    [
      ( "explicit",
        [
          Alcotest.test_case "basics" `Quick test_explicit_basics;
          Alcotest.test_case "self-loops dropped" `Quick test_self_loops_dropped;
          Alcotest.test_case "duplicate states rejected" `Quick
            test_duplicate_states_rejected;
          Alcotest.test_case "escaping step rejected" `Quick
            test_escaping_step_rejected;
          Alcotest.test_case "box union" `Quick test_box_union;
          Alcotest.test_case "box priority" `Quick test_box_priority;
          Alcotest.test_case "with_initials" `Quick test_with_initials;
          Alcotest.test_case "dot export" `Quick test_dot_export;
        ] );
      ( "computation",
        [
          Alcotest.test_case "paths" `Quick test_paths;
          Alcotest.test_case "convergence isomorphism (paper examples)" `Quick
            test_convergence_isomorphism;
          Alcotest.test_case "omissions" `Quick test_omissions;
          Alcotest.test_case "stutter normalize" `Quick test_stutter_normalize;
          Alcotest.test_case "bounded computations" `Quick
            test_bounded_computations;
          Alcotest.test_case "random walk" `Quick test_random_walk;
        ] );
      ( "abstraction",
        [
          Alcotest.test_case "tabulate and onto" `Quick test_abstraction;
          Alcotest.test_case "compose" `Quick test_abstraction_compose;
        ] );
      ("properties", qcheck_cases);
    ]
