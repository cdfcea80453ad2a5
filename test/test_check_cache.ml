(* Memo tests.  The generic single-flight table (Cr_kernel.Memo): a
   raising computation leaves no entry, concurrent requesters of one
   key count exactly one miss, and key fingerprints separate
   sign-flipped elements.  The verdict memos over the full registry
   at N = 3: warm hits return the same verdicts a fresh check computes,
   a report table and crcheck's route share one entry per question,
   a registry sweep under CR_CACHE=0 counts no verdict cache traffic
   and yields the same verdicts, and CR_CACHE_PARANOID=1
   recheck-and-assert passes on every hit, and a stabilization key
   leaves out C's initial states while a refinement key folds them.
   And two compiles of one program in different index orders
   (closure-seeded and seeded with [?roots]) each keep their own
   order. *)

module Obs = Cr_obs.Obs
module Memo = Cr_kernel.Memo
module Registry = Cr_experiments.Registry

let check = Alcotest.(check bool)
let n = 3

let counter snap name =
  match List.assoc_opt name snap with Some v -> v | None -> 0

(* Cold caches + fresh counters, then [f]; returns (result, counters). *)
let with_cold_counters f =
  Cr_core.Check_cache.clear_all ();
  Obs.reset ();
  Obs.force_collect ();
  let r = f () in
  (r, Obs.merged_snapshot ())

(* ---- the generic memo ---- *)

let memo : int Memo.t = Memo.create ~name:"memo_test"
let find ?(key = "k") f = Memo.find memo ~key:(fun () -> key) ~same:( = ) f

let test_raise_leaves_no_entry () =
  Memo.clear memo;
  (match find (fun () -> failwith "boom") with
  | _ -> Alcotest.fail "the raising computation must propagate"
  | exception Failure _ -> ());
  let v, ran = find (fun () -> 42) in
  check "next find recomputes" true (ran && v = 42);
  let v, ran = find (fun () -> 0) in
  check "and the recomputed value is stored" true ((not ran) && v = 42)

let test_single_flight () =
  Memo.clear memo;
  Unix.putenv "CR_PAR_CAP" "4";
  let runs = Atomic.make 0 in
  let _, snap =
    with_cold_counters (fun () ->
        Cr_kernel.Par.with_jobs 4 (fun () ->
            Cr_kernel.Par.map_array
              (fun _ ->
                find ~key:"shared" (fun () ->
                    Atomic.incr runs;
                    (* long enough for the other requesters to queue *)
                    Unix.sleepf 0.05;
                    7))
              (Array.make 8 ())))
  in
  Alcotest.(check int) "one computation" 1 (Atomic.get runs);
  Alcotest.(check int) "one miss" 1 (counter snap "memo_test.cache.misses");
  Alcotest.(check int) "seven hits" 7 (counter snap "memo_test.cache.hits")

(* Sign-flipped elements fold apart: the bare xor-multiply fold left
   [x; x] and [-x; -x] on the same state from every even one, so
   verdict keys whose α-tables differed only there (an image index
   against the -1 of an image outside the spec fragment) collided. *)
let test_fp_sign_flips () =
  let fp prefix tail =
    let t = Memo.Fp.create () in
    List.iter (Memo.Fp.add_int t) prefix;
    Memo.Fp.add_int_array t tail;
    Memo.Fp.to_hex t
  in
  let collisions = ref 0 in
  for p = 0 to 255 do
    let prefix = List.init (p mod 5) (fun i -> (p * 7) + i - 3) in
    for x = 1 to 4 do
      if fp prefix [| x; x |] = fp prefix [| -x; -x |] then incr collisions
    done
  done;
  Alcotest.(check int) "no collision in 1024 sign-flipped pairs" 0 !collisions

(* ---- the verdict memos over the registry ---- *)

(* All registry verdicts at N: every stabilization and refinement report,
   with cost snapshots dropped so cached and fresh runs compare equal. *)
let all_verdicts () =
  List.concat_map
    (fun name ->
      match Registry.find name with
      | None -> []
      | Some e ->
          let stab = Registry.stabilization e n () in
          let refs = Registry.refinements e n in
          ( name ^ "/stabilize",
            `Stab { stab with Cr_core.Stabilize.cost = None } )
          :: List.map
               (fun (label, r) ->
                 (name ^ "/" ^ label, `Ref { r with Cr_core.Refine.cost = None }))
               refs)
    (Registry.names ())

let test_warm_hits_match_fresh () =
  let cold, snap_cold = with_cold_counters all_verdicts in
  check "cold run misses" true (counter snap_cold "check.cache.hits" = 0);
  check "cold run populates" true (counter snap_cold "check.cache.misses" > 0);
  (* warm: same questions, all answered from the cache *)
  Obs.reset ();
  Obs.force_collect ();
  let warm = all_verdicts () in
  let snap_warm = Obs.merged_snapshot () in
  check "warm run hits" true
    (counter snap_warm "check.cache.hits"
    >= List.length warm);
  check "warm run adds no misses" true
    (counter snap_warm "check.cache.misses" = 0);
  check "warm verdicts = cold verdicts" true (warm = cold);
  (* fresh (bypassed) verdicts agree with the cached ones *)
  let fresh = Memo.bypass all_verdicts in
  check "bypassed fresh verdicts = cached verdicts" true (fresh = warm)

(* One question, one memo entry: E8b's table row and crcheck verify ask
   "Dijkstra-3 stabilizing to BTR via α₃" through the same route, so the
   second asker is answered from the first one's verdict. *)
let test_table_and_verify_share_entry () =
  let (), before =
    with_cold_counters (fun () ->
        ignore (Cr_experiments.Ring_exps.theorem11_dijkstra3 n))
  in
  let e = Option.get (Registry.find "dijkstra3") in
  ignore (Registry.stabilization e n ());
  let after = Obs.merged_snapshot () in
  let moved name = counter after name - counter before name in
  Alcotest.(check int) "one check hit" 1 (moved "check.cache.hits");
  Alcotest.(check int) "no check miss" 0 (moved "check.cache.misses");
  Alcotest.(check int) "no stabilize run" 0 (moved "stabilize.runs")

let cache_counters = [ "check.cache.hits"; "check.cache.misses" ]

let test_cache_disabled_by_env () =
  let cached, _ = with_cold_counters all_verdicts in
  Unix.putenv "CR_CACHE" "0";
  Fun.protect
    ~finally:(fun () -> Unix.putenv "CR_CACHE" "")
    (fun () ->
      let first, snap1 = with_cold_counters all_verdicts in
      let second = all_verdicts () in
      let snap2 = Obs.merged_snapshot () in
      List.iter
        (fun name ->
          Alcotest.(check int) ("no " ^ name ^ " counted") 0
            (counter snap1 name + counter snap2 name))
        cache_counters;
      check "verdicts unchanged without the cache" true
        (first = cached && second = cached))

let test_paranoid_recheck_passes () =
  Unix.putenv "CR_CACHE_PARANOID" "1";
  Fun.protect
    ~finally:(fun () -> Unix.putenv "CR_CACHE_PARANOID" "0")
    (fun () ->
      (* cold fill, then warm hits: each hit rechecks and asserts the
         cached report equals the fresh one — any divergence raises *)
      let cold, _ = with_cold_counters all_verdicts in
      let warm = all_verdicts () in
      check "paranoid warm run agrees" true (warm = cold))

(* A closure-seeded compile is renumbered in ascending rank; a compile
   from the same seeds given as [?roots] keeps discovery order.  Two
   index orders of one graph: whichever is compiled first, each keeps
   its own. *)
let test_closure_and_roots_orders () =
  let module Program = Cr_guarded.Program in
  let p = Cr_tokenring.Btr3.dijkstra3 n in
  let layout = Program.layout p in
  let roots =
    Array.of_list
      (List.map (Cr_guarded.Layout.rank layout)
         (Option.get (Program.closure_seeds p)))
  in
  let sparse ?roots () =
    Program.to_explicit ?roots ~space:Cr_semantics.Space.Sparse p
  in
  let closure () = sparse () and from_roots () = sparse ~roots () in
  let same a b =
    Cr_semantics.Explicit.same_transitions a b
    && Cr_semantics.Explicit.initials a = Cr_semantics.Explicit.initials b
  in
  let fresh_closure = closure () in
  let fresh_roots = from_roots () in
  check "the two index orders differ" false
    (Cr_semantics.Explicit.same_transitions fresh_closure fresh_roots);
  List.iter
    (fun closure_first ->
      let label = if closure_first then "closure first" else "roots first" in
      let c, r =
        if closure_first then
          let c = closure () in
          (c, from_roots ())
        else
          let r = from_roots () in
          (closure (), r)
      in
      check (label ^ ": closure-seeded graph") true (same c fresh_closure);
      check (label ^ ": roots graph") true (same r fresh_roots))
    [ true; false ]

(* Two same-named graphs of dijkstra3 that differ only in their initial
   predicate: a stabilization verdict never reads C's initial states, so
   both ask one question (one miss, one hit); a refinement verdict reads
   them, so they never share an entry (two misses). *)
let test_initials_in_keys () =
  let module Program = Cr_guarded.Program in
  let e = Option.get (Registry.find "dijkstra3") in
  let p = e.Registry.program n in
  let q = Program.with_initial (fun s -> s.(0) = 0) p in
  let graphs () = (Program.to_explicit p, Program.to_explicit q) in
  let moved label snap ~misses ~hits =
    Alcotest.(check int) (label ^ ": misses") misses
      (counter snap "check.cache.misses");
    Alcotest.(check int) (label ^ ": hits") hits
      (counter snap "check.cache.hits")
  in
  let (cp, cq), snap =
    with_cold_counters (fun () ->
        let cp, cq = graphs () in
        List.iter
          (fun c ->
            ignore (Registry.stabilizing ~alpha:(e.alpha n) c (e.spec n) ()))
          [ cp; cq ];
        (cp, cq))
  in
  check "same names" true
    (Cr_semantics.Explicit.name cp = Cr_semantics.Explicit.name cq);
  check "different initial states" true
    (Cr_semantics.Explicit.initials cp <> Cr_semantics.Explicit.initials cq);
  moved "stabilization" snap ~misses:1 ~hits:1;
  let (), snap =
    with_cold_counters (fun () ->
        let cp, cq = graphs () in
        List.iter
          (fun c ->
            let r = Registry.refining ~alpha:(e.alpha n) c (e.spec n) in
            ignore (r.init ()))
          [ cp; cq ])
  in
  moved "refinement" snap ~misses:2 ~hits:0

(* A key folds every lane of the α-table: two tables differing in one
   lane key two questions, the same lanes in another store one. *)
let test_alpha_lanes_in_keys () =
  let module Program = Cr_guarded.Program in
  let module Lane = Cr_kernel.Lane in
  let e = Option.get (Registry.find "dijkstra3") in
  let c = Program.to_explicit (e.program n) in
  let a = Program.to_explicit (e.spec n) in
  let table = Cr_semantics.Abstraction.tabulate (e.alpha n) c a in
  let key alpha =
    Cr_core.Check_cache.key ~relation:"stab" ~c_initials:false ~alpha
      ~fair:None ~c ~a
  in
  let last = Lane.length table - 1 in
  let moved = Bytes.copy table in
  Lane.set moved last
    ((Lane.get table last + 1) mod Cr_semantics.Explicit.num_states a);
  check "same lanes, same key" true (key table = key (Bytes.copy table));
  check "one lane apart, two keys" false (key table = key moved)

let () =
  Alcotest.run "check_cache"
    [
      ( "memo",
        [
          Alcotest.test_case "a raising computation leaves no entry" `Quick
            test_raise_leaves_no_entry;
          Alcotest.test_case "8 concurrent finds: 1 miss, 7 hits" `Quick
            test_single_flight;
          Alcotest.test_case "fingerprints separate sign flips" `Quick
            test_fp_sign_flips;
        ] );
      ( "verdict cache",
        [
          Alcotest.test_case "warm hits match fresh checks" `Quick
            test_warm_hits_match_fresh;
          Alcotest.test_case "table and verify share one entry" `Quick
            test_table_and_verify_share_entry;
          Alcotest.test_case "CR_CACHE=0 bypasses" `Quick
            test_cache_disabled_by_env;
          Alcotest.test_case "CR_CACHE_PARANOID=1 passes" `Quick
            test_paranoid_recheck_passes;
          Alcotest.test_case "C's initial states key refinement only" `Quick
            test_initials_in_keys;
          Alcotest.test_case "every alpha lane keys the verdict" `Quick
            test_alpha_lanes_in_keys;
        ] );
      ( "compile",
        [
          Alcotest.test_case "closure and roots compiles keep their orders"
            `Quick test_closure_and_roots_orders;
        ] );
    ]
