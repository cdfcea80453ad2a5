(* Pool and bitset properties for the PR 9 parallel layer: map_array
   determinism on a warm pool across job counts and repeated calls,
   nested-call sequentiality, with_jobs exception safety, the
   small-work cutoff, clean pool shutdown, and agreement of the
   word-parallel Bitset operations with a byte-wide boolean reference
   (including non-multiple-of-64 tails). *)

module Par = Cr_kernel.Par
module Bitset = Cr_kernel.Bitset

(* The pool caps busy domains at the host's core count by default; lift
   the cap so these tests exercise real worker domains even on a
   single-core CI host. *)
let () = Unix.putenv "CR_PAR_CAP" "16"

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ---------- pool determinism ---------- *)

(* A work function whose result depends only on the item (never on the
   executing domain or claim order), with enough mixing that a misplaced
   slot write would be caught. *)
let mix i x = (x * 1_000_003) lxor (i * 97) lxor ((x lsr 7) + i)

let prop_warm_pool_determinism =
  QCheck2.Test.make ~name:"map_array identical across warm-pool job counts"
    ~count:30
    QCheck2.Gen.(list_size (int_range 0 200) small_int)
    (fun xs ->
      let a = Array.of_list xs in
      let expected = Array.mapi mix a in
      (* repeated calls at every job count reuse (and grow) the same
         pool; each must reproduce the sequential map exactly *)
      List.for_all
        (fun jobs ->
          Par.with_jobs jobs (fun () ->
              let once () = Par.map_array (fun x -> x) a |> Array.mapi mix in
              once () = expected && once () = expected))
        [ 1; 2; 4; 8 ]
      && Par.map_array ~jobs:4 (fun x -> x) a |> Array.mapi mix = expected)

let prop_map_matches_list_map =
  QCheck2.Test.make ~name:"Par.map equals List.map on the warm pool"
    ~count:30
    QCheck2.Gen.(pair (int_range 1 8) (list_size (int_range 0 64) small_int))
    (fun (jobs, xs) ->
      Par.map ~jobs (fun x -> (2 * x) + 1) xs = List.map (fun x -> (2 * x) + 1) xs)

let test_nested_sequential () =
  (* a mapped function that itself maps must run its inner sweep
     sequentially on the same domain (current_jobs = 1 inside) *)
  let inner_jobs =
    Par.with_jobs 4 (fun () ->
        Par.map_array
          (fun _ -> Par.current_jobs ())
          (Array.make 16 ()))
  in
  Array.iter (fun j -> check_int "inner jobs" 1 j) inner_jobs

let test_with_jobs_restores_on_exception () =
  let before = Par.current_jobs () in
  (try Par.with_jobs 7 (fun () -> failwith "boom") with Failure _ -> ());
  check_int "override restored" before (Par.current_jobs ())

let test_exception_propagates () =
  let raised =
    try
      ignore
        (Par.map_array ~jobs:4
           (fun i -> if i = 37 then failwith "item 37" else i)
           (Array.init 64 (fun i -> i)));
      false
    with Failure _ -> true
  in
  check "exception from a pool item reaches the caller" true raised;
  (* and the pool is still usable afterwards *)
  let a = Array.init 64 (fun i -> i) in
  check "pool survives a failing task" true
    (Par.map_array ~jobs:4 succ a = Array.map succ a)

let test_min_items_cutoff () =
  (* below the cutoff no worker is needed: a 2-item map at jobs=8 on a
     fresh (shut-down) pool must not spawn anything *)
  Par.shutdown_pool ();
  check_int "pool empty after shutdown" 0 (Par.pool_size ());
  let out = Par.map_array ~jobs:8 succ [| 1; 2 |] in
  check "tiny map correct" true (out = [| 2; 3 |]);
  check_int "tiny map spawned no workers" 0 (Par.pool_size ());
  (* a map over >= the cutoff does spawn, and shutdown joins *)
  ignore (Par.map_array ~jobs:4 succ (Array.init 64 (fun i -> i)));
  check "large map spawned workers" true (Par.pool_size () > 0);
  Par.shutdown_pool ();
  check_int "shutdown empties the pool" 0 (Par.pool_size ());
  (* and the next parallel call transparently respawns *)
  check "pool respawns after shutdown" true
    (Par.map_array ~jobs:2 succ (Array.init 64 (fun i -> i))
    = Array.init 64 (fun i -> i + 1))

(* ---------- word-parallel bitset vs boolean reference ---------- *)

(* Random lengths around the word boundaries, including exact multiples
   of 64 and ragged tails. *)
let gen_len =
  QCheck2.Gen.(
    oneof
      [
        int_range 0 20;
        int_range 55 75;
        int_range 120 135;
        map (fun k -> 64 * k) (int_range 0 4);
      ])

let gen_mask =
  QCheck2.Gen.(gen_len >>= fun len -> array_repeat len bool)

let prop_bitset_ops_match_reference =
  QCheck2.Test.make ~name:"word-parallel bitset ops agree with bool arrays"
    ~count:200
    QCheck2.Gen.(
      gen_len >>= fun len ->
      pair (array_repeat len bool) (array_repeat len bool))
    (fun (xa, ya) ->
      let x = Bitset.of_bool_array xa and y = Bitset.of_bool_array ya in
      let to_b = Bitset.to_bool_array in
      to_b (Bitset.union x y) = Array.map2 ( || ) xa ya
      && to_b (Bitset.inter x y) = Array.map2 ( && ) xa ya
      && to_b (Bitset.diff x y) = Array.map2 (fun a b -> a && not b) xa ya
      && to_b (Bitset.complement x) = Array.map not xa
      && Bitset.count x
         = Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 xa
      && Bitset.equal x (Bitset.of_bool_array xa)
      && Bitset.equal x y = (xa = ya)
      &&
      let into = Bitset.of_bool_array xa in
      Bitset.union_into ~into y;
      to_b into = Array.map2 ( || ) xa ya)

let prop_iter_set_bits_ascending =
  QCheck2.Test.make ~name:"iter_set_bits yields members ascending" ~count:200
    gen_mask
    (fun ba ->
      let t = Bitset.of_bool_array ba in
      let seen = ref [] in
      Bitset.iter_set_bits t (fun i -> seen := i :: !seen);
      let got = List.rev !seen in
      got = Bitset.members t
      && got
         = List.filter
             (fun i -> ba.(i))
             (List.init (Array.length ba) (fun i -> i)))

let prop_set_clear_roundtrip =
  QCheck2.Test.make ~name:"set/clear/get roundtrip at ragged lengths"
    ~count:200
    QCheck2.Gen.(
      gen_len >>= fun len ->
      pair (return len) (list_size (int_range 0 32) (int_range 0 (max 0 (len - 1)))))
    (fun (len, idxs) ->
      QCheck2.assume (len > 0);
      let t = Bitset.create len in
      List.iter (Bitset.set t) idxs;
      let want = Array.make len false in
      List.iter (fun i -> want.(i) <- true) idxs;
      let ok_set = Bitset.to_bool_array t = want in
      List.iter (Bitset.clear t) idxs;
      ok_set && Bitset.count t = 0 && Bitset.equal t (Bitset.create len))

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "par"
    [
      ( "pool",
        [
          qt prop_warm_pool_determinism;
          qt prop_map_matches_list_map;
          Alcotest.test_case "nested calls sequential" `Quick
            test_nested_sequential;
          Alcotest.test_case "with_jobs restores on exception" `Quick
            test_with_jobs_restores_on_exception;
          Alcotest.test_case "exceptions propagate, pool survives" `Quick
            test_exception_propagates;
          Alcotest.test_case "min-items cutoff and shutdown" `Quick
            test_min_items_cutoff;
        ] );
      ( "bitset",
        [
          qt prop_bitset_ops_match_reference;
          qt prop_iter_set_bits_ascending;
          qt prop_set_clear_roundtrip;
        ] );
    ]
