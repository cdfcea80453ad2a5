(* Tests of the chunked, memoized explicit compiler: domain-chunked
   [Program.to_explicit] must be byte-identical to the sequential path
   for every execution mode, the compile memo must be transparent
   (including under CR_CACHE_PARANOID) and bypassable with CR_CACHE=0, and
   predecessor rows must stay lazy until a backward query needs them. *)

open Cr_guarded
module E = Cr_semantics.Explicit
module Memo = Cr_kernel.Memo
module Par = Cr_kernel.Par
module Obs = Cr_obs.Obs

(* ---- random program generation (as in test_guarded_props) ---- *)

type raw_action = {
  proc : int;
  slot : int;
  guard_slot : int;
  guard_val : int;
  write_val : int;
}

type raw_prog = { doms : int list; acts : raw_action list }

let gen_prog =
  QCheck2.Gen.(
    let* nv = int_range 1 4 in
    let* doms = list_repeat nv (int_range 1 3) in
    let* na = int_bound 6 in
    let* acts =
      list_size (return na)
        (let* slot = int_bound (nv - 1) in
         let* guard_slot = int_bound (nv - 1) in
         let* guard_val = int_bound 2 in
         let* write_val = int_bound 2 in
         let* proc = int_bound 3 in
         return { proc; slot; guard_slot; guard_val; write_val })
    in
    return { doms; acts })

let build { doms; acts } =
  let nv = List.length doms in
  let layout =
    Layout.make (List.mapi (fun i d -> (Printf.sprintf "v%d" i, d)) doms)
  in
  let clamp slot v = v mod Layout.dom layout slot in
  let actions =
    List.mapi
      (fun i ra ->
        let slot = ra.slot mod nv and guard_slot = ra.guard_slot mod nv in
        Action.make
          ~label:(Printf.sprintf "a%d" i)
          ~proc:ra.proc ~writes:[ slot ]
          ~guard:(fun s -> s.(guard_slot) = clamp guard_slot ra.guard_val)
          ~effect:(fun s -> Action.set s [ (slot, clamp slot ra.write_val) ])
          ())
      acts
  in
  Program.make ~name:"rand" ~layout ~actions ~initial:(fun s -> s.(0) = 0)

(* Equality of compiled graphs: same Sigma, same transitions, same
   initial states (names may differ). *)
let same a b = E.same_transitions a b && E.initials a = E.initials b

let fresh_with_jobs jobs f =
  Memo.bypass (fun () -> Par.with_jobs jobs (fun () -> f ()))

(* ---- chunked compilation is byte-identical to sequential ---- *)

let prop_chunked_plain_sync =
  QCheck2.Test.make
    ~name:"chunked compile (jobs=4) = sequential: plain and synchronous"
    ~count:150 gen_prog
    (fun raw ->
      let p = build raw in
      same
        (fresh_with_jobs 1 (fun () -> Program.to_explicit p))
        (fresh_with_jobs 4 (fun () -> Program.to_explicit p))
      && same
           (fresh_with_jobs 1 (fun () -> Program.to_explicit_synchronous p))
           (fresh_with_jobs 4 (fun () -> Program.to_explicit_synchronous p)))

let prop_chunked_priority =
  QCheck2.Test.make
    ~name:"chunked compile (jobs=4) = sequential: priority mode" ~count:100
    QCheck2.Gen.(pair gen_prog gen_prog)
    (fun (rb, rw) ->
      let rw = { rw with doms = rb.doms } in
      let combined, is_w = Program.box_priority (build rb) (build rw) in
      same
        (fresh_with_jobs 1 (fun () ->
             Program.to_explicit ~priority_of:is_w combined))
        (fresh_with_jobs 4 (fun () ->
             Program.to_explicit ~priority_of:is_w combined)))

(* The same invariance through the real environment contract. *)
let test_env_jobs () =
  let p = Cr_tokenring.Btr3.dijkstra3 4 in
  let seq = fresh_with_jobs 1 (fun () -> Program.to_explicit p) in
  Unix.putenv "CR_JOBS" "4";
  let par = Memo.bypass (fun () -> Program.to_explicit p) in
  Unix.putenv "CR_JOBS" "1";
  Alcotest.(check bool) "CR_JOBS=4 graph equals sequential" true (same seq par)

(* ---- compile cache ---- *)

let counter snap name =
  match List.assoc_opt name snap with Some v -> v | None -> 0

(* Sharing is observed on the CSR adjacency itself: a cache hit hands
   back the same physical graph, so the two views are [==]. *)
let rows_shared e1 e2 = Some (E.csr e1 == E.csr e2)

let with_counters f =
  Obs.reset ();
  Obs.force_collect ();
  let r = f () in
  (r, Obs.merged_snapshot ())

let test_cache_hit_shares () =
  Program.clear_compile_cache ();
  let (e1, e2), snap =
    with_counters (fun () ->
        ( Program.to_explicit (Cr_tokenring.Btr.program 3),
          Program.to_explicit (Cr_tokenring.Btr.program 3) ))
  in
  Alcotest.(check bool) "identical graphs" true (same e1 e2);
  Alcotest.(check (option bool))
    "successor rows physically shared" (Some true) (rows_shared e1 e2);
  Alcotest.(check bool)
    "at least one miss then one hit" true
    (counter snap "compile.cache.misses" >= 1
    && counter snap "compile.cache.hits" >= 1)

let test_cache_retargets_initials () =
  Program.clear_compile_cache ();
  let p = Cr_tokenring.Btr.program 3 in
  let q = Program.with_initial (fun s -> s.(0) = 1) p in
  let ep = Program.to_explicit p in
  let eq = Program.to_explicit q in
  Alcotest.(check bool)
    "same transitions across initial predicates" true
    (E.same_transitions ep eq);
  let expected_initials e pred =
    Array.for_all (fun i -> pred (E.state e i)) (E.initials e)
  in
  Alcotest.(check bool)
    "hit graph obeys the requesting program's initial predicate" true
    (expected_initials eq (fun s -> s.(0) = 1)
    && E.initials ep <> E.initials eq)

let test_cache_paranoid () =
  Program.clear_compile_cache ();
  Unix.putenv "CR_CACHE_PARANOID" "1";
  Fun.protect
    ~finally:(fun () -> Unix.putenv "CR_CACHE_PARANOID" "")
    (fun () ->
      let e1 = Program.to_explicit (Cr_tokenring.Btr3.dijkstra3 3) in
      (* hit: paranoid mode recompiles and asserts equality — must not
         raise *)
      let e2 = Program.to_explicit (Cr_tokenring.Btr3.dijkstra3 3) in
      Alcotest.(check bool) "paranoid hit equals miss" true (same e1 e2))

let test_cache_disabled () =
  Program.clear_compile_cache ();
  Unix.putenv "CR_CACHE" "0";
  Fun.protect
    ~finally:(fun () -> Unix.putenv "CR_CACHE" "")
    (fun () ->
      let (e1, e2), snap =
        with_counters (fun () ->
            ( Program.to_explicit (Cr_tokenring.Btr.program 3),
              Program.to_explicit (Cr_tokenring.Btr.program 3) ))
      in
      Alcotest.(check bool) "identical graphs without the cache" true (same e1 e2);
      Alcotest.(check int)
        "no hits counted" 0
        (counter snap "compile.cache.hits");
      Alcotest.(check int)
        "no misses counted" 0
        (counter snap "compile.cache.misses");
      Alcotest.(check (option bool))
        "rows not shared" (Some false) (rows_shared e1 e2))

(* Warm-cache compiles of random programs still agree with the step
   function: the content-addressed key (with its semantic probe) must
   never alias two behaviourally different programs.  The cache is
   deliberately left warm across the 200 cases. *)
let prop_cache_never_aliases =
  QCheck2.Test.make ~name:"warm cache: compile agrees with step function"
    ~count:200 gen_prog
    (fun raw ->
      let p = build raw in
      let e = Program.to_explicit p in
      let ok = ref true in
      List.iter
        (fun s ->
          let i = E.find e s in
          let expected =
            Program.step p s
            |> List.filter (fun s' -> s' <> s)
            |> List.map (E.find e)
            |> List.sort_uniq compare
          in
          let actual = Array.to_list (E.successors e i) in
          if expected <> actual then ok := false)
        (Layout.enumerate (Program.layout p));
      !ok)

(* ---- lazy predecessors ---- *)

let test_lazy_pred () =
  let e =
    Memo.bypass (fun () -> Program.to_explicit (Cr_tokenring.Btr3.dijkstra3 3))
  in
  Alcotest.(check bool) "pred not forced by compile" false (E.pred_forced e);
  ignore (E.successors e 0);
  ignore (E.num_transitions e);
  Alcotest.(check bool)
    "forward queries leave pred lazy" false (E.pred_forced e);
  let with_inits = E.with_initials e (fun _ -> false) in
  ignore (E.predecessors e 0);
  Alcotest.(check bool) "backward query forces pred" true (E.pred_forced e);
  Alcotest.(check bool)
    "with_initials shares the forced transpose" true
    (E.pred_forced with_inits);
  (* the transpose is consistent with the successor rows *)
  let n = E.num_states e in
  let ok = ref true in
  for i = 0 to n - 1 do
    Array.iter
      (fun j ->
        if not (Array.exists (fun i' -> i' = i) (E.predecessors e j)) then
          ok := false)
      (E.successors e i)
  done;
  for j = 0 to n - 1 do
    Array.iter
      (fun i -> if not (E.has_edge e i j) then ok := false)
      (E.predecessors e j)
  done;
  Alcotest.(check bool) "pred = transpose of succ" true !ok

let () =
  Alcotest.run "compile"
    [
      ( "chunking",
        List.map QCheck_alcotest.to_alcotest
          [ prop_chunked_plain_sync; prop_chunked_priority ]
        @ [ Alcotest.test_case "env CR_JOBS=4" `Quick test_env_jobs ] );
      ( "cache",
        [
          Alcotest.test_case "hit shares the compiled graph" `Quick
            test_cache_hit_shares;
          Alcotest.test_case "hit re-targets initial states" `Quick
            test_cache_retargets_initials;
          Alcotest.test_case "paranoid mode accepts honest hits" `Quick
            test_cache_paranoid;
          Alcotest.test_case "CR_CACHE=0 disables" `Quick test_cache_disabled;
        ]
        @ List.map QCheck_alcotest.to_alcotest [ prop_cache_never_aliases ] );
      ( "lazy-pred",
        [ Alcotest.test_case "forced only on backward use" `Quick test_lazy_pred ]
      );
    ]
