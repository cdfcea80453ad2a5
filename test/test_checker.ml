(* Unit and property tests for cr_checker: reachability, SCC, paths and
   the forward settle pass, over the lane-backed CSR graphs of
   cr_kernel.
   The properties compare the CSR and each kernel with the textbook
   references in [Graph_ref]. *)

(* lift the pool's busy-domain cap so the CR_JOBS-invariance properties
   really fan out across domains on a single-core host *)
let () = Unix.putenv "CR_PAR_CAP" "8"

module Csr = Cr_kernel.Csr
module Bs = Cr_kernel.Bitset

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* adjacency: 0->1->2->0 (cycle), 2->3, 3->4, 5 isolated *)
let g = Csr.of_rows [| [| 1 |]; [| 2 |]; [| 0; 3 |]; [| 4 |]; [||]; [||] |]

let test_forward () =
  let r = Cr_checker.Reach.forward ~succ:g ~seeds:(Graph_ref.mask 6 [ 0 ]) in
  check "reaches 4" true (Bs.get r 4);
  check "not 5" false (Bs.get r 5);
  check_int "count" 5 (Bs.count r);
  Alcotest.(check (list int)) "members" [ 0; 1; 2; 3; 4 ] (Bs.members r)

let test_backward () =
  let r = Cr_checker.Reach.backward ~succ:g ~seeds:(Graph_ref.mask 6 [ 4 ]) in
  check "0 reaches 4" true (Bs.get r 0);
  check "5 does not" false (Bs.get r 5)

let test_scc () =
  let t = Cr_checker.Scc.compute g in
  check "0,1,2 same comp" true
    (t.Cr_checker.Scc.component.(0) = t.Cr_checker.Scc.component.(1)
    && t.Cr_checker.Scc.component.(1) = t.Cr_checker.Scc.component.(2));
  check "3 different" true
    (t.Cr_checker.Scc.component.(3) <> t.Cr_checker.Scc.component.(0));
  check "0 on cycle" true (Cr_checker.Scc.on_cycle t 0);
  check "3 not on cycle" false (Cr_checker.Scc.on_cycle t 3);
  check "edge 1->2 on cycle" true (Cr_checker.Scc.edge_on_cycle t 1 2);
  check "edge 2->3 not" false (Cr_checker.Scc.edge_on_cycle t 2 3)

(* The subgraph induced by a mask is acyclic iff no masked state lies on
   a cycle of the restricted graph. *)
let test_acyclic_within () =
  let acyclic_within mask =
    let mask = Bs.of_bool_array mask in
    let t = Cr_checker.Scc.compute (Csr.restrict g mask) in
    List.for_all
      (fun i -> not (Cr_checker.Scc.on_cycle t i))
      (Bs.members mask)
  in
  check "whole graph cyclic" false (acyclic_within (Array.make 6 true));
  check "without 0 acyclic" true
    (acyclic_within [| false; true; true; true; true; true |])

let test_bfs () =
  let o = Cr_checker.Paths.oracle ~succ:g ~sources:[| 0 |] in
  check_int "dist to 4" 4 (Cr_checker.Paths.distance o ~src:0 ~dst:4);
  check_int "dist to 0" 0 (Cr_checker.Paths.distance o ~src:0 ~dst:0);
  check_int "unreachable" (-1) (Cr_checker.Paths.distance o ~src:0 ~dst:5)

let test_shortest_nonempty () =
  let o = Cr_checker.Paths.oracle ~succ:g ~sources:[| 1; 4 |] in
  check_int "1 to 0" 2 (Cr_checker.Paths.distance o ~src:1 ~dst:0);
  (* the shortest cycle through 0 leaves by its only edge, 0 -> 1 *)
  check_int "cycle through 0" 3 (1 + Cr_checker.Paths.distance o ~src:1 ~dst:0);
  check_int "4 to 0 impossible" (-1) (Cr_checker.Paths.distance o ~src:4 ~dst:0)

let test_oracle_unseeded () =
  let o = Cr_checker.Paths.oracle ~succ:g ~sources:[| 0; 0 |] in
  check_int "seeded source answers" 2 (Cr_checker.Paths.distance o ~src:0 ~dst:2);
  check "unseeded source raises Invalid_argument" true
    (match Cr_checker.Paths.distance o ~src:1 ~dst:0 with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_shortest_path () =
  (match Cr_checker.Paths.shortest_path ~succ:g ~src:0 ~dst:4 with
  | Some p ->
      Alcotest.(check (list int)) "path 0..4" [ 0; 1; 2; 3; 4 ] p
  | None -> Alcotest.fail "expected path");
  Alcotest.(check (option (list int)))
    "src=dst" (Some [ 3 ])
    (Cr_checker.Paths.shortest_path ~succ:g ~src:3 ~dst:3);
  Alcotest.(check (option (list int)))
    "unreachable" None
    (Cr_checker.Paths.shortest_path ~succ:g ~src:4 ~dst:0)

(* The forward settle pass on the three longest-path cases: a DAG, the
   same DAG with a smaller region, and a cyclic region. *)
let test_settle () =
  let settle g bad = Cr_checker.Paths.settle ~succ:(Csr.source g) ~bad in
  let depths (s : Cr_checker.Paths.settled) =
    match s.depth with
    | Some d -> Array.init (Bs.length s.reaches) (Cr_kernel.Lane.get d)
    | None -> Alcotest.fail "acyclic region"
  in
  (* DAG: 0->1->2, 0->2; every state reaches bad = {2} *)
  let dag = Csr.of_rows [| [| 1; 2 |]; [| 2 |]; [||] |] in
  let s = settle dag (Graph_ref.mask 3 [ 2 ]) in
  Alcotest.(check (list int)) "all reach 2" [ 0; 1; 2 ] (Bs.members s.reaches);
  Alcotest.(check (option int)) "2 is the terminal" (Some 2) s.terminal;
  check_int "longest from 0" 2 (depths s).(0);
  check_int "longest from 2" 0 (depths s).(2);
  (* only 0 and 1 reach bad = {1}: the edge out of the region still
     counts, and 2 outside it gets 0 *)
  let s2 = settle dag (Graph_ref.mask 3 [ 1 ]) in
  Alcotest.(check (list int)) "region {0, 1}" [ 0; 1 ] (Bs.members s2.reaches);
  check_int "stops at the region" 2 (depths s2).(0);
  check_int "0 outside the region" 0 (depths s2).(2);
  (* on [g], the cycle 0->1->2->0 reaches bad = {4} *)
  let s3 = settle g (Graph_ref.mask 6 [ 4 ]) in
  Alcotest.(check (list int))
    "0..4 reach 4" [ 0; 1; 2; 3; 4 ] (Bs.members s3.reaches);
  check "a cycle in the region gives no depth" true (s3.depth = None);
  (* a 2^20-state chain 0 -> 1 -> ... -> n-1 into bad = {n-1}: one DFS
     as deep as the graph, depth n - 1 at its head; closed into a ring
     by n-1 -> 0 it is one SCC through the DFS root, with no depth *)
  let n = 1 lsl 20 in
  let chain ~ring =
    let m = if ring then n else n - 1 in
    let row_ptr = Cr_kernel.Lane.create (n + 1)
    and targets = Cr_kernel.Lane.create m in
    for i = 0 to n do
      Cr_kernel.Lane.set row_ptr i (min i m)
    done;
    for k = 0 to m - 1 do
      Cr_kernel.Lane.set targets k ((k + 1) mod n)
    done;
    Csr.unsafe_of_lanes ~states:n ~row_ptr ~targets
  in
  let bad = Graph_ref.mask n [ n - 1 ] in
  let s4 = settle (chain ~ring:false) bad in
  check_int "the whole chain reaches its end" n (Bs.count s4.reaches);
  check_int "depth n - 1 at the head" (n - 1) (depths s4).(0);
  check_int "depth 0 at the end" 0 (depths s4).(n - 1);
  let s5 = settle (chain ~ring:true) bad in
  check_int "the whole ring reaches bad" n (Bs.count s5.reaches);
  check "a ring through the DFS root gives no depth" true (s5.depth = None)

(* properties: on random graphs, SCC component equality agrees with mutual
   reachability, and bfs distance agrees with reconstructed path length. *)

let gen_graph =
  QCheck2.Gen.(
    let* n = int_range 1 12 in
    let* edges = list_size (int_bound 30) (pair (int_bound (n - 1)) (int_bound (n - 1))) in
    return (n, edges))

let adj_of (n, edges) =
  let a = Array.make n [] in
  List.iter (fun (i, j) -> if i <> j then a.(i) <- j :: a.(i)) edges;
  Array.map (fun l -> Array.of_list (List.sort_uniq compare l)) a

let all_sources n = Array.init n Fun.id

let prop_scc_mutual_reach =
  QCheck2.Test.make ~name:"same SCC iff mutually reachable" ~count:100 gen_graph
    (fun g ->
      let csr = Csr.of_rows (adj_of g) in
      let n = Csr.num_states csr in
      let t = Cr_checker.Scc.compute csr in
      let ok = ref true in
      for i = 0 to n - 1 do
        let ri = Cr_checker.Reach.forward ~succ:csr ~seeds:(Graph_ref.mask n [ i ]) in
        for j = 0 to n - 1 do
          let rj = Cr_checker.Reach.forward ~succ:csr ~seeds:(Graph_ref.mask n [ j ]) in
          let mutual = Bs.get ri j && Bs.get rj i in
          let same = t.Cr_checker.Scc.component.(i) = t.Cr_checker.Scc.component.(j) in
          if mutual <> same then ok := false
        done
      done;
      !ok)

let prop_bfs_path_agree =
  QCheck2.Test.make ~name:"bfs distance = reconstructed path length" ~count:100
    gen_graph (fun g ->
      let csr = Csr.of_rows (adj_of g) in
      let n = Csr.num_states csr in
      let o = Cr_checker.Paths.oracle ~succ:csr ~sources:(all_sources n) in
      let ok = ref true in
      for src = 0 to n - 1 do
        for dst = 0 to n - 1 do
          let d = Cr_checker.Paths.distance o ~src ~dst in
          match Cr_checker.Paths.shortest_path ~succ:csr ~src ~dst with
          | Some p -> if List.length p - 1 <> d then ok := false
          | None -> if d >= 0 then ok := false
        done
      done;
      !ok)

(* The oracle as classify uses it: one batch entry per query (here one
   per edge, so sources repeat and sinks are never seeded). *)
let prop_oracle_eq_fresh_bfs =
  QCheck2.Test.make ~name:"memoized oracle = fresh BFS shortest_nonempty"
    ~count:100 gen_graph (fun g ->
      let adj = adj_of g in
      let n = Array.length adj in
      let sources =
        Array.concat
          (Array.to_list (Array.mapi (fun i row -> Array.map (fun _ -> i) row) adj))
      in
      let o = Cr_checker.Paths.oracle ~succ:(Csr.of_rows adj) ~sources in
      let ok = ref true in
      for src = 0 to n - 1 do
        let seeded = Array.length adj.(src) > 0 in
        let d = Graph_ref.bfs adj src in
        for dst = 0 to n - 1 do
          match Cr_checker.Paths.distance o ~src ~dst with
          | got -> if (not seeded) || got <> d.(dst) then ok := false
          | exception Invalid_argument _ -> if seeded then ok := false
        done
      done;
      !ok)

let prop_par_map_eq_seq =
  QCheck2.Test.make ~name:"Par.map_array with jobs>1 = Array.map" ~count:50
    QCheck2.Gen.(pair (list_size (int_bound 40) (int_bound 1000)) (int_range 2 6))
    (fun (l, jobs) ->
      let a = Array.of_list l in
      Cr_kernel.Par.map_array ~jobs (fun x -> x * x + 1) a
      = Array.map (fun x -> x * x + 1) a)

(* ---- CSR kernels agree with the textbook references ---- *)

let prop_csr_reach_agree =
  QCheck2.Test.make ~name:"Reach.forward/backward = reference DFS" ~count:200
    gen_graph (fun g ->
      let adj = adj_of g in
      let csr = Csr.of_rows adj in
      let n = Array.length adj in
      let ok = ref true in
      (* single seeds, and every prefix {0 .. s} as a multi-seed mask *)
      for s = 0 to n - 1 do
        List.iter
          (fun seeds ->
            let f = Cr_checker.Reach.forward ~succ:csr ~seeds:(Graph_ref.mask n seeds) in
            let b = Cr_checker.Reach.backward ~succ:csr ~seeds:(Graph_ref.mask n seeds) in
            if
              Bs.to_bool_array f <> Graph_ref.reach adj seeds
              || Bs.to_bool_array b <> Graph_ref.coreach adj seeds
            then ok := false)
          [ [ s ]; List.init (s + 1) Fun.id ]
      done;
      !ok)

(* Components match mutual reachability, with sizes and count to match,
   and are numbered in reverse topological order (Tarjan completion
   order): an edge never climbs to a higher component id. *)
let prop_csr_scc_agree =
  QCheck2.Test.make ~name:"Scc.compute = reference components" ~count:200
    gen_graph (fun g ->
      let adj = adj_of g in
      let n = Array.length adj in
      let t = Cr_checker.Scc.compute (Csr.of_rows adj) in
      let comp = t.Cr_checker.Scc.component in
      let class_of i =
        List.filter (fun j -> Graph_ref.same_scc adj i j) (List.init n Fun.id)
      in
      let classes = List.sort_uniq compare (List.init n class_of) in
      let ok = ref (t.Cr_checker.Scc.count = List.length classes) in
      for i = 0 to n - 1 do
        if t.Cr_checker.Scc.sizes.(comp.(i)) <> List.length (class_of i) then
          ok := false;
        for j = 0 to n - 1 do
          if (comp.(i) = comp.(j)) <> Graph_ref.same_scc adj i j then ok := false
        done;
        Array.iter (fun j -> if comp.(j) > comp.(i) then ok := false) adj.(i)
      done;
      !ok)

let prop_csr_paths_agree =
  QCheck2.Test.make ~name:"bfs/shortest kernels = reference BFS" ~count:100
    gen_graph (fun g ->
      let adj = adj_of g in
      let csr = Csr.of_rows adj in
      let n = Array.length adj in
      let o = Cr_checker.Paths.oracle ~succ:csr ~sources:(all_sources n) in
      let ok = ref true in
      for src = 0 to n - 1 do
        let d = Graph_ref.bfs adj src in
        for dst = 0 to n - 1 do
          if Cr_checker.Paths.distance o ~src ~dst <> d.(dst) then ok := false;
          match Cr_checker.Paths.shortest_path ~succ:csr ~src ~dst with
          | None -> if d.(dst) >= 0 then ok := false
          | Some p ->
              let rec walks = function
                | i :: (j :: _ as rest) -> Array.mem j adj.(i) && walks rest
                | _ -> true
              in
              if
                List.hd p <> src
                || List.nth p (List.length p - 1) <> dst
                || List.length p - 1 <> d.(dst)
                || not (walks p)
              then ok := false
        done
      done;
      !ok)

(* Random graphs, half of them DAGs (every edge oriented upward), with a
   random [bad] mask (each state bad with odds 1/2 to 1/9): the settle
   pass marks exactly the reference co-reachable set, names its least
   state with no successor, and gives the reference longest runs inside
   it exactly when the reference finds no cycle there. *)
let prop_settle_agree =
  QCheck2.Test.make ~name:"Paths.settle = reference coreach and longest_within"
    ~count:300
    QCheck2.Gen.(
      (* up to 64 states and 4n edges: nested SCCs and cycles through the
         DFS root; a sparse or a dense [bad] *)
      let* n = int_range 1 64 in
      let* edges =
        list_size (int_bound (4 * n))
          (pair (int_bound (n - 1)) (int_bound (n - 1)))
      in
      let* dag = bool in
      let edges =
        if dag then List.map (fun (i, j) -> (min i j, max i j)) edges
        else edges
      in
      let* odds = int_range 1 8 in
      let* bits = array_repeat n (map (( = ) 0) (int_bound odds)) in
      return ((n, edges), bits))
    (fun (g, bits) ->
      let adj = adj_of g in
      let n = Array.length adj in
      let s =
        Cr_checker.Paths.settle ~succ:(Csr.source (Csr.of_rows adj))
          ~bad:(Bs.of_bool_array bits)
      in
      let region =
        Graph_ref.coreach adj
          (List.filter (fun i -> bits.(i)) (List.init n Fun.id))
      in
      Bs.to_bool_array s.reaches = region
      && s.terminal
         = List.find_opt
             (fun i -> region.(i) && adj.(i) = [||])
             (List.init n Fun.id)
      &&
      match (s.depth, Graph_ref.longest_within adj region) with
      | Some got, Ok want -> Array.init n (Cr_kernel.Lane.get got) = want
      | None, Error () -> true
      | _ -> false)

let prop_csr_fair_agree =
  QCheck2.Test.make ~name:"Fair.analyze = reference per-SCC fairness"
    ~count:200
    QCheck2.Gen.(
      triple gen_graph (array_size (int_bound 12) bool) (int_range 1 3))
    (fun (g, mask_bits, num_actions) ->
      let adj = adj_of g in
      let n = Array.length adj in
      let mask = Array.init n (fun i -> i < Array.length mask_bits && mask_bits.(i)) in
      (* deterministic pseudo-random action tables drawn from the graph's
         own edges, so admissibility is non-trivial *)
      let tables =
        Array.init num_actions (fun a ->
            Array.init n (fun s ->
                let row = adj.(s) in
                let d = Array.length row in
                if d = 0 || (s + a) mod 3 = 0 then -1
                else row.((s * 7 + a) mod d)))
      in
      let r =
        Cr_core.Fair.analyze
          (Array.map Cr_kernel.Lane.of_array tables)
          ~succ:(Csr.of_rows adj)
          ~mask:(Bs.of_bool_array mask)
      in
      let want = Graph_ref.fair_sccs tables adj mask in
      let sub = Graph_ref.restrict adj mask in
      let comp = r.Cr_core.Fair.component in
      let ok = ref true in
      for i = 0 to n - 1 do
        if (comp.(i) = -1) = mask.(i) then ok := false;
        if r.Cr_core.Fair.fair.(i) <> List.exists (List.mem i) want then
          ok := false;
        for j = 0 to n - 1 do
          if
            mask.(i) && mask.(j)
            && (comp.(i) = comp.(j)) <> Graph_ref.same_scc sub i j
          then ok := false
        done
      done;
      !ok && List.sort compare r.Cr_core.Fair.sccs = want)

(* ---- classify is byte-identical for CR_JOBS in {1, 2, 4} ---- *)

let explicit_of_adj name adj inits =
  let n = Array.length adj in
  Cr_semantics.Explicit.of_edge_lists ~name
    ~states:(Array.init n (fun i -> i))
    ~pp_state:Fmt.int
    ~is_initial:(fun s -> List.mem s inits)
    ~succ_lists:(Array.map Array.to_list adj)

(* The classified edges as a list, through [iter_classified]. *)
let classified_edges cl =
  let acc = ref [] in
  Cr_core.Refine.iter_classified cl (fun i j c -> acc := (i, j, c) :: !acc);
  List.rev !acc

let prop_classify_jobs_invariant =
  QCheck2.Test.make ~name:"classify invariant under CR_JOBS in {1,2,4}"
    ~count:60
    QCheck2.Gen.(triple gen_graph gen_graph (int_bound 1000))
    (fun (gc, ga, salt) ->
      let c = explicit_of_adj "C" (adj_of gc) [ 0 ] in
      let a = explicit_of_adj "A" (adj_of ga) [ 0 ] in
      let nc = Cr_semantics.Explicit.num_states c in
      let na = Cr_semantics.Explicit.num_states a in
      let alpha =
        Cr_kernel.Lane.of_array
          (Array.init nc (fun i -> ((i * 31) + salt) mod na))
      in
      let run jobs =
        Unix.putenv "CR_JOBS" (string_of_int jobs);
        Fun.protect
          ~finally:(fun () -> Unix.putenv "CR_JOBS" "1")
          (fun () -> Cr_core.Refine.classify ~alpha ~c ~a)
      in
      let (cl1, st1) = run 1 in
      let (cl2, st2) = run 2 in
      let (cl4, st4) = run 4 in
      let same (x, sx) (y, sy) = classified_edges x = classified_edges y && sx = sy in
      same (cl1, st1) (cl2, st2) && same (cl1, st1) (cl4, st4))

(* Classification against a per-edge reference on the same random
   systems: Stutter on equal images, Exact on an A-edge between them,
   Compression d for a reference BFS distance d >= 2, unmatched
   otherwise; the stats are the tallies of that table. *)
let prop_classify_matches_reference =
  QCheck2.Test.make ~name:"classify = per-edge reference classes" ~count:60
    QCheck2.Gen.(triple gen_graph gen_graph (int_bound 1000))
    (fun (gc, ga, salt) ->
      let adj_c = adj_of gc and adj_a = adj_of ga in
      let c = explicit_of_adj "C" adj_c [ 0 ] in
      let a = explicit_of_adj "A" adj_a [ 0 ] in
      let nc = Array.length adj_c and na = Array.length adj_a in
      let alpha = Array.init nc (fun i -> (i * 31 + salt) mod na) in
      let edges =
        List.concat_map
          (fun i -> List.map (fun j -> (i, j)) (Array.to_list adj_c.(i)))
          (List.init nc Fun.id)
      in
      let class_of (i, j) =
        let ai = alpha.(i) and aj = alpha.(j) in
        if ai = aj then Some Cr_core.Refine.Stutter
        else if Array.mem aj adj_a.(ai) then Some Cr_core.Refine.Exact
        else
          let d = (Graph_ref.bfs adj_a ai).(aj) in
          if d >= 2 then Some (Cr_core.Refine.Compression d) else None
      in
      let want = List.map class_of edges in
      let count p = List.length (List.filter p want) in
      let want_stats =
        {
          Cr_core.Refine.edges = List.length edges;
          exact = count (( = ) (Some Cr_core.Refine.Exact));
          stutter = count (( = ) (Some Cr_core.Refine.Stutter));
          compressions =
            count (function
              | Some (Cr_core.Refine.Compression _) -> true
              | _ -> false);
          max_dropped =
            List.fold_left
              (fun acc -> function
                | Some (Cr_core.Refine.Compression d) -> max acc (d - 1)
                | _ -> acc)
              0 want;
        }
      in
      let got, stats =
        Cr_core.Refine.classify ~alpha:(Cr_kernel.Lane.of_array alpha) ~c ~a
      in
      classified_edges got
      = List.map2 (fun (i, j) c -> (i, j, c)) edges want
      && stats = want_stats)

(* The CR_JOBS fan-out must be observationally invisible: the full report
   at N = 2..4 prints the same bytes whether computed sequentially or on
   four domains.  Capture redirects the stdout file descriptor: once a
   domain has been spawned, Format's std_formatter writes through a
   domain-local buffer straight to [Stdlib.stdout], so formatter-level
   out-function swapping would miss everything after the first spawn. *)
let test_report_jobs_invariant () =
  let capture () =
    let tmp = Filename.temp_file "cr_jobs" ".out" in
    let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
    flush stdout;
    Format.print_flush ();
    let saved = Unix.dup Unix.stdout in
    Unix.dup2 fd Unix.stdout;
    Unix.close fd;
    Fun.protect
      ~finally:(fun () ->
        flush stdout;
        Format.print_flush ();
        Unix.dup2 saved Unix.stdout;
        Unix.close saved)
      (fun () -> Cr_experiments.Report.all ~ns:[ 2; 3; 4 ] ());
    let ic = open_in_bin tmp in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    Sys.remove tmp;
    s
  in
  Unix.putenv "CR_JOBS" "1";
  let seq = capture () in
  Unix.putenv "CR_JOBS" "4";
  let par = capture () in
  Unix.putenv "CR_JOBS" "1";
  check "report output non-trivial" true (String.length seq > 1000);
  Alcotest.(check string) "CR_JOBS=4 output = CR_JOBS=1 output" seq par

(* ---- the lane CSR itself ---- *)

(* Random graphs as [gen_graph], but from n = 0 on. *)
let gen_graph0 =
  QCheck2.Gen.(
    let* n = int_bound 12 in
    if n = 0 then return (0, [])
    else
      let* edges =
        list_size (int_bound 30) (pair (int_bound (n - 1)) (int_bound (n - 1)))
      in
      return (n, edges))

(* A CSR's rows, read back through [iter_row]. *)
let rows_of csr =
  Array.init (Csr.num_states csr) (fun i ->
      let acc = ref [] in
      Csr.iter_row csr i (fun j -> acc := j :: !acc);
      Array.of_list (List.rev !acc))

let prop_csr_ops_agree =
  QCheck2.Test.make ~name:"lane CSR operations = array-of-rows reference"
    ~count:300
    QCheck2.Gen.(triple gen_graph0 (int_bound 1000) (array_size (int_bound 12) bool))
    (fun (g, salt, mask_bits) ->
      let adj = adj_of g in
      let n = Array.length adj in
      let csr = Csr.of_rows adj in
      let mask = Array.init n (fun i -> i < Array.length mask_bits && mask_bits.(i)) in
      let keep i j = ((i * 7) + (j * 3) + salt) mod 3 <> 0 in
      let edges = ref [] in
      Csr.iter_edges csr (fun i j -> edges := (i, j) :: !edges);
      Csr.num_states csr = n
      && Csr.num_edges csr = Array.fold_left (fun m r -> m + Array.length r) 0 adj
      && rows_of csr = adj
      && List.rev !edges
         = List.concat
             (List.init n (fun i -> List.map (fun j -> (i, j)) (Array.to_list adj.(i))))
      && List.for_all
           (fun i ->
             Csr.row csr i = adj.(i)
             && Csr.degree csr i = Array.length adj.(i)
             && List.for_all
                  (fun j -> Csr.mem csr i j = Array.mem j adj.(i))
                  (List.init n Fun.id))
           (List.init n Fun.id)
      && rows_of (Csr.transpose csr) = Graph_ref.transpose adj
      && rows_of (Csr.filter csr keep) = Graph_ref.filter adj keep
      && rows_of (Csr.restrict csr (Bs.of_bool_array mask))
         = Graph_ref.restrict adj mask
      && Csr.equal csr (Csr.of_rows (rows_of csr)))

(* Two CSRs whose lanes in use agree but whose reserved tails differ:
   every comparison must read the lanes in use only, so a read of the
   tail shows up as a difference. *)
let test_reserved_tail () =
  let with_tail ?(first = 1) fill =
    (* 3 states, 0 -> 1, 0 -> 2, 1 -> 2, each store 4 lanes too long *)
    let row_ptr = Bytes.make (4 * (4 + 4)) fill
    and targets = Bytes.make (4 * (3 + 4)) fill in
    List.iteri (Cr_kernel.Lane.set row_ptr) [ 0; 2; 3; 3 ];
    List.iteri (Cr_kernel.Lane.set targets) [ first; 2; 2 ];
    Csr.unsafe_of_lanes ~states:3 ~row_ptr ~targets
  in
  let explicit succ =
    let space =
      Cr_semantics.Space.dense ~size:3 ~state_of_index:Fun.id
        ~index_of_state:(fun s -> if s >= 0 && s < 3 then Some s else None)
        ~iter_range:(fun lo hi f ->
          for i = lo to hi - 1 do
            f i i
          done)
        ()
    in
    Cr_semantics.Explicit.of_sparse ~name:"tail"
      { Cr_semantics.Space.space; succ; keys = [| 0; 1; 2 |] }
      ~is_initial:(fun s -> s = 0) ~pp_state:Fmt.int
  in
  let zeros = with_tail '\000' and ones = with_tail '\255' in
  let other = with_tail ~first:2 '\000' in
  check "Csr.equal ignores the tails" true (Csr.equal zeros ones);
  check "equal to the exact graph" true
    (Csr.equal ones (Csr.of_rows [| [| 1; 2 |]; [| 2 |]; [||] |]));
  check "a differing lane in use differs" false (Csr.equal zeros other);
  let ez = explicit zeros and eo = explicit ones in
  check "same_transitions ignores the tails" true
    (Cr_semantics.Explicit.same_transitions ez eo)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_csr_ops_agree;
      prop_scc_mutual_reach;
      prop_bfs_path_agree;
      prop_oracle_eq_fresh_bfs;
      prop_par_map_eq_seq;
      prop_csr_reach_agree;
      prop_csr_scc_agree;
      prop_csr_paths_agree;
      prop_settle_agree;
      prop_csr_fair_agree;
      prop_classify_jobs_invariant;
      prop_classify_matches_reference;
    ]

let () =
  Alcotest.run "checker"
    [
      ( "csr",
        [
          Alcotest.test_case "the reserved tail is never read" `Quick
            test_reserved_tail;
        ] );
      ( "reach",
        [
          Alcotest.test_case "forward" `Quick test_forward;
          Alcotest.test_case "backward" `Quick test_backward;
        ] );
      ( "scc",
        [
          Alcotest.test_case "components" `Quick test_scc;
          Alcotest.test_case "acyclic_within" `Quick test_acyclic_within;
        ] );
      ( "paths",
        [
          Alcotest.test_case "bfs" `Quick test_bfs;
          Alcotest.test_case "shortest_nonempty" `Quick test_shortest_nonempty;
          Alcotest.test_case "oracle rejects an unseeded source" `Quick
            test_oracle_unseeded;
          Alcotest.test_case "shortest_path" `Quick test_shortest_path;
          Alcotest.test_case "settle" `Quick test_settle;
        ] );
      ( "parallel",
        [
          Alcotest.test_case "CR_JOBS invariance of Report.all" `Quick
            test_report_jobs_invariant;
        ] );
      ("properties", qcheck_cases);
    ]
