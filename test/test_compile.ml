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

(* ---- streamed compile = the materializing reference ---- *)

(* A table-driven program, all data so that a counterexample prints:
   per action a guard table and an in-domain successor table by rank
   (identity entries are no-op firings), an owning process, declared
   writes and a wrapper bit; plus an initial-state table. *)
type tab_action = {
  tproc : int;
  twrites : int list;
  wrapper : bool;
  gtab : bool array;
  etab : int array;
}

type tab_prog = { tdoms : int list; tacts : tab_action list; itab : bool array }

let print_tab_prog p =
  let ints a = String.concat ";" (Array.to_list (Array.map string_of_int a)) in
  let bools a =
    String.concat "" (Array.to_list (Array.map (fun b -> if b then "1" else "0") a))
  in
  Printf.sprintf "doms=[%s] init=%s %s"
    (String.concat ";" (List.map string_of_int p.tdoms))
    (bools p.itab)
    (String.concat " "
       (List.map
          (fun a ->
            Printf.sprintf "{proc=%d writes=[%s]%s guard=%s succ=[|%s|]}" a.tproc
              (String.concat ";" (List.map string_of_int a.twrites))
              (if a.wrapper then " W" else "")
              (bools a.gtab) (ints a.etab))
          p.tacts))

let gen_tab_prog =
  QCheck2.Gen.(
    (* up to 4^5 states, so that many cases span several 64-state
       words and CR_JOBS = 2, 4 really split the sweep *)
    let* nv = int_range 1 5 in
    let* tdoms = list_repeat nv (int_range 1 4) in
    let ns = List.fold_left ( * ) 1 tdoms in
    let* na = int_bound 5 in
    let* tacts =
      list_repeat na
        (let* tproc = int_bound 2 in
         let* twrites = list_size (int_bound 2) (int_bound (nv - 1)) in
         let* wrapper = bool in
         let* gtab = array_repeat ns bool in
         let* etab = array_repeat ns (int_bound (ns - 1)) in
         return { tproc; twrites = List.sort_uniq compare twrites; wrapper; gtab; etab })
    in
    let* itab = array_repeat ns bool in
    return { tdoms; tacts; itab })

let build_tab p =
  let layout =
    Layout.make (List.mapi (fun i d -> (Printf.sprintf "v%d" i, d)) p.tdoms)
  in
  let actions =
    List.mapi
      (fun i a ->
        Action.make ~label:(Printf.sprintf "t%d" i) ~proc:a.tproc
          ~writes:a.twrites
          ~guard:(fun s -> a.gtab.(Layout.rank layout s))
          ~effect:(fun s -> Layout.unrank layout a.etab.(Layout.rank layout s))
          ())
      p.tacts
  in
  let wrappers =
    List.filteri (fun i _ -> (List.nth p.tacts i).wrapper) actions
  in
  ( Program.make ~name:"tab" ~layout ~actions
      ~initial:(fun s -> p.itab.(Layout.rank layout s)),
    fun a -> List.memq a wrappers )

(* Equal CSR and initials, and the index bijection round-trips at every
   index: [state], [find_opt] and the [iter_states] sweep all agree with
   the reference's boxed enumeration. *)
let agrees_with_ref (r : Compile_ref.compiled) e =
  let n = Array.length r.Compile_ref.states in
  let swept = ref 0 in
  E.iter_states e (fun i s ->
      if i = !swept && s = r.Compile_ref.states.(i) then incr swept);
  Cr_kernel.Csr.equal (E.csr e) r.Compile_ref.succ
  && E.initials e = r.Compile_ref.initials
  && E.num_states e = n
  && !swept = n
  && Array.for_all Fun.id
       (Array.mapi
          (fun i s -> E.state e i = s && E.find_opt e s = Some i)
          r.Compile_ref.states)

let all_jobs = [ 1; 2; 4 ]

let prop_streamed_eq_reference =
  QCheck2.Test.make
    ~name:"streamed compile = materializing reference: plain, priority, sync"
    ~count:300 ~print:print_tab_prog gen_tab_prog
    (fun raw ->
      let p, is_w = build_tab raw in
      let plain = Compile_ref.compile p in
      let prio = Compile_ref.compile ~priority_of:is_w p in
      let sync = Compile_ref.compile ~sync:true p in
      List.for_all
        (fun jobs ->
          agrees_with_ref plain (fresh_with_jobs jobs (fun () -> Program.to_explicit p))
          && agrees_with_ref prio
               (fresh_with_jobs jobs (fun () ->
                    Program.to_explicit ~priority_of:is_w p))
          && agrees_with_ref sync
               (fresh_with_jobs jobs (fun () -> Program.to_explicit_synchronous p)))
        all_jobs)

(* Every registry program at N = 2..4 whose dense space the reference
   can box in a test (rw-dijkstra3 at N = 4 has 3^14 states and is left
   out), interleaving and synchronous, under every job count. *)
let registry_cases =
  List.concat_map
    (fun (e : Cr_experiments.Registry.entry) ->
      List.filter_map
        (fun n ->
          if Layout.num_states (Program.layout (e.program n)) <= 1_000_000 then
            Some (e, n)
          else None)
        [ 2; 3; 4 ])
    Cr_experiments.Registry.entries

let test_registry_reference ((e : Cr_experiments.Registry.entry), n) () =
  let p = e.program n in
  let plain = Compile_ref.compile p in
  let sync = Compile_ref.compile ~sync:true p in
  List.iter
    (fun jobs ->
      Alcotest.(check bool)
        (Printf.sprintf "%s n=%d jobs=%d: plain = reference" e.name n jobs)
        true
        (agrees_with_ref plain (fresh_with_jobs jobs (fun () -> Program.to_explicit p)));
      Alcotest.(check bool)
        (Printf.sprintf "%s n=%d jobs=%d: sync = reference" e.name n jobs)
        true
        (agrees_with_ref sync
           (fresh_with_jobs jobs (fun () -> Program.to_explicit_synchronous p))))
    all_jobs

(* An effect that leaves Sigma is reported exactly as the reference
   reports it, from whichever chunk the escaping state falls in. *)
let test_escape_message () =
  (* 384 states: six 64-state words, so jobs = 2 and 4 split the sweep;
     the first escape is at rank 142, in the third word *)
  let layout = Layout.make [ ("x", 2); ("y", 4); ("z", 3); ("w", 16) ] in
  let escaping =
    Action.make ~label:"escape" ~proc:0 ~writes:[ 1 ]
      ~guard:(fun s -> s.(2) = 2 && s.(1) = 3 && s.(3) >= 5)
      ~effect:(fun s -> Action.set s [ (1, 4) ])
      ()
  in
  let step_x =
    Action.make ~label:"flip" ~proc:1 ~writes:[ 0 ]
      ~guard:(fun _ -> true)
      ~effect:(fun s -> Action.set s [ (0, 1 - s.(0)) ])
      ()
  in
  let p =
    Program.make ~name:"leaky" ~layout ~actions:[ step_x; escaping ]
      ~initial:(fun _ -> true)
  in
  let message f =
    match f () with
    | _ -> None
    | exception E.Unknown_state msg -> Some msg
  in
  List.iter
    (fun (label, reference, streamed) ->
      let expected = message reference in
      Alcotest.(check bool) (label ^ ": reference raises") true (expected <> None);
      List.iter
        (fun jobs ->
          Alcotest.(check (option string))
            (Printf.sprintf "%s jobs=%d: same Unknown_state message" label jobs)
            expected
            (message (fun () -> fresh_with_jobs jobs streamed)))
        all_jobs)
    [
      ( "plain",
        (fun () -> Compile_ref.compile p),
        fun () -> Program.to_explicit p );
      ( "sync",
        (fun () -> Compile_ref.compile ~sync:true p),
        fun () -> Program.to_explicit_synchronous p );
    ]

(* ---- state counts past what an array or an int can index ---- *)

(* [bits] binary slots; one action flips slot 0, and the initial states
   are the closure of the all-zero state, so the reachable fragment has
   two states whatever the size of Sigma (and the sparse engine seeds
   from the closure instead of scanning Sigma). *)
let flip_program bits =
  let layout = Layout.make (List.init bits (fun i -> (Printf.sprintf "b%d" i, 2))) in
  let flip =
    Action.make ~label:"flip" ~proc:0 ~writes:[ 0 ]
      ~guard:(fun _ -> true)
      ~effect:(fun s -> Action.set s [ (0, 1 - s.(0)) ])
      ()
  in
  Program.make ~name:(Printf.sprintf "flip%d" bits) ~layout ~actions:[ flip ]
    ~initial:(fun _ -> false)
  |> Program.with_initial_closure ~seeds:[ Array.make bits 0 ]

(* 2^60 states: the fingerprint probe's sample index [k * n / 256]
   overflowed here and sampled invalid states, which the probe then
   reported as escaping Sigma. *)
let test_probe_past_overflow () =
  Program.clear_compile_cache ();
  let e = Program.to_explicit ~space:Cr_semantics.Space.Sparse (flip_program 60) in
  Alcotest.(check int) "two reachable states" 2 (E.num_states e);
  Alcotest.(check (list (pair int int)))
    "one flip each way" [ (0, 1); (1, 0) ]
    (E.fold_edges e (fun i j acc -> (i, j) :: acc) [] |> List.rev)

let too_large f =
  match f () with
  | _ -> None
  | exception Cr_semantics.Space.Too_large msg -> Some msg

let test_dense_refuses () =
  Alcotest.(check (option string))
    "2^60 states: more than an array holds"
    (Some
       (Printf.sprintf
          "flip60: the dense engine cannot index 1152921504606846976 states \
           (at most %d states)"
          (Sys.max_array_length - 1)))
    (too_large (fun () -> Program.to_explicit (flip_program 60)));
  Alcotest.(check (option string))
    "2^70 states: the count saturates, worded like lint's B1"
    (Some
       (Printf.sprintf
          "flip70[sync]: the dense engine cannot index more than %d states \
           (at most %d states)"
          max_int (Sys.max_array_length - 1)))
    (too_large (fun () -> Program.to_explicit_synchronous (flip_program 70)));
  Alcotest.(check bool)
    "2^70 states: ranks overflow, so the sparse engine refuses too" true
    (too_large (fun () ->
         Program.to_explicit ~space:Cr_semantics.Space.Sparse (flip_program 70))
    <> None)

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
      ( "reference",
        List.map QCheck_alcotest.to_alcotest [ prop_streamed_eq_reference ]
        @ Alcotest.test_case "escaping effect: same Unknown_state" `Quick
            test_escape_message
          :: List.map
               (fun ((e : Cr_experiments.Registry.entry), n) ->
                 Alcotest.test_case
                   (Printf.sprintf "registry %s n=%d" e.name n)
                   `Quick
                   (test_registry_reference (e, n)))
               registry_cases );
      ( "overflow",
        [
          Alcotest.test_case "probe samples a 2^60-state space" `Quick
            test_probe_past_overflow;
          Alcotest.test_case "dense engine refuses unindexable spaces" `Quick
            test_dense_refuses;
        ] );
      ( "lazy-pred",
        [ Alcotest.test_case "forced only on backward use" `Quick test_lazy_pred ]
      );
    ]
