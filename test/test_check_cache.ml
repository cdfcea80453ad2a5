(* Memo tests.  The generic single-flight table (Cr_kernel.Memo): a
   raising computation leaves no entry, and concurrent requesters of one
   key count exactly one miss.  The verdict memos over the full registry
   at N = 3: warm hits return the same verdicts a fresh check computes,
   a registry sweep under CR_CACHE=0 counts no compile or verdict cache
   traffic and yields the same verdicts, and
   CR_CACHE_PARANOID=1 recheck-and-assert passes on every hit. *)

module Obs = Cr_obs.Obs
module Memo = Cr_kernel.Memo
module Registry = Cr_experiments.Registry

let check = Alcotest.(check bool)
let n = 3

let counter snap name =
  match List.assoc_opt name snap with Some v -> v | None -> 0

(* Cold caches + fresh counters, then [f]; returns (result, counters). *)
let with_cold_counters f =
  Cr_guarded.Program.clear_compile_cache ();
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

(* ---- the verdict memos over the registry ---- *)

(* All registry verdicts at N: every stabilization and refinement report,
   with cost snapshots dropped so cached and fresh runs compare equal. *)
let all_verdicts () =
  List.concat_map
    (fun name ->
      match Registry.find name with
      | None -> []
      | Some e ->
          let stab = Registry.stabilization e n in
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

let cache_counters =
  [
    "compile.cache.hits";
    "compile.cache.misses";
    "check.cache.hits";
    "check.cache.misses";
  ]

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

let () =
  Alcotest.run "check_cache"
    [
      ( "memo",
        [
          Alcotest.test_case "a raising computation leaves no entry" `Quick
            test_raise_leaves_no_entry;
          Alcotest.test_case "8 concurrent finds: 1 miss, 7 hits" `Quick
            test_single_flight;
        ] );
      ( "verdict cache",
        [
          Alcotest.test_case "warm hits match fresh checks" `Quick
            test_warm_hits_match_fresh;
          Alcotest.test_case "CR_CACHE=0 bypasses" `Quick
            test_cache_disabled_by_env;
          Alcotest.test_case "CR_CACHE_PARANOID=1 passes" `Quick
            test_paranoid_recheck_passes;
        ] );
    ]
