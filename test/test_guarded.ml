(* Tests for the guarded-command substrate. *)

open Cr_guarded

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let layout = Layout.make [ ("x", 2); ("y", 3); ("pinned", 1) ]

let test_layout () =
  check_int "vars" 3 (Layout.num_vars layout);
  check_int "states" 6 (Layout.num_states layout);
  check_int "dom y" 3 (Layout.dom layout 1);
  check_int "slot y" 1 (Layout.slot layout "y");
  Alcotest.check_raises "unknown var"
    (Invalid_argument "Layout.slot: unknown variable z") (fun () ->
      ignore (Layout.slot layout "z"));
  check_int "enumeration covers all" 6 (List.length (Layout.enumerate layout));
  check "all valid" true (List.for_all (Layout.valid layout) (Layout.enumerate layout));
  check "invalid out of range" false (Layout.valid layout [| 2; 0; 0 |]);
  (* pinned variables hidden from printing *)
  let s = Fmt.str "%a" (Layout.pp_state layout) [| 1; 2; 0 |] in
  check "pinned hidden" true (not (String.length s > 0 && String.contains s 'p'))

let test_layout_errors () =
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Layout.make: duplicate variable x") (fun () ->
      ignore (Layout.make [ ("x", 2); ("x", 2) ]));
  Alcotest.check_raises "empty domain"
    (Invalid_argument "Layout.make: empty domain for x") (fun () ->
      ignore (Layout.make [ ("x", 0) ]))

let incr_x =
  Action.make ~label:"incr_x" ~proc:0 ~writes:[ 0 ]
    ~guard:(fun s -> s.(0) = 0)
    ~effect:(fun s -> Action.set s [ (0, 1) ])
    ()

let noop =
  Action.make ~label:"noop" ~proc:1 ~writes:[]
    ~guard:(fun _ -> true)
    ~effect:(fun s -> Array.copy s)
    ()

let test_action_fire () =
  check "enabled" true (Action.enabled incr_x [| 0; 0; 0 |]);
  check "fires" true (Action.fire incr_x [| 0; 0; 0 |] = Some [| 1; 0; 0 |]);
  check "disabled" true (Action.fire incr_x [| 1; 0; 0 |] = None);
  check "no-op firing dropped" true (Action.fire noop [| 0; 0; 0 |] = None);
  (* effects are pure: the input state is untouched *)
  let s = [| 0; 2; 0 |] in
  ignore (Action.fire incr_x s);
  check "input untouched" true (s = [| 0; 2; 0 |])

let dec_y =
  Action.make ~label:"dec_y" ~proc:1 ~writes:[ 1 ]
    ~guard:(fun s -> s.(1) > 0)
    ~effect:(fun s -> Action.set s [ (1, s.(1) - 1) ])
    ()

let prog =
  Program.make ~name:"p" ~layout ~actions:[ incr_x; dec_y ]
    ~initial:(fun s -> s.(0) = 0 && s.(1) = 0)

let test_program_step () =
  check_int "two firings" 2 (List.length (Program.firings prog [| 0; 1; 0 |]));
  check_int "one firing" 1 (List.length (Program.firings prog [| 1; 1; 0 |]));
  check "terminal" true (Program.step prog [| 1; 0; 0 |] = []);
  let e = Program.to_explicit prog in
  check_int "explicit states" 6 (Cr_semantics.Explicit.num_states e);
  (* every state eventually reaches the terminal [|1;0;0|] *)
  check "terminal state" true
    (Cr_semantics.Explicit.is_terminal e (Cr_semantics.Explicit.find e [| 1; 0; 0 |]))

let test_box () =
  let w =
    Program.make ~name:"w" ~layout
      ~actions:
        [
          Action.make ~label:"reset" ~proc:(-1) ~writes:[ 1 ]
            ~guard:(fun s -> s.(1) = 2)
            ~effect:(fun s -> Action.set s [ (1, 0) ])
            ();
        ]
      ~initial:(fun _ -> true)
  in
  let b = Program.box prog w in
  check_int "actions concatenated" 3 (List.length (Program.actions b));
  (* initial from the left operand *)
  check "initial from base" true (Program.initial b [| 0; 0; 0 |]);
  check "not from wrapper" false (Program.initial b [| 1; 1; 0 |]);
  let incompatible =
    Program.make ~name:"q" ~layout:(Layout.make [ ("z", 2) ]) ~actions:[]
      ~initial:(fun _ -> true)
  in
  Alcotest.check_raises "incompatible layouts"
    (Invalid_argument "Program.box: incompatible layouts") (fun () ->
      ignore (Program.box prog incompatible))

let test_box_priority () =
  let w =
    Program.make ~name:"w" ~layout
      ~actions:
        [
          Action.make ~label:"repair" ~proc:(-1) ~writes:[ 1 ]
            ~guard:(fun s -> s.(1) = 2)
            ~effect:(fun s -> Action.set s [ (1, 0) ])
            ();
        ]
      ~initial:(fun _ -> true)
  in
  let combined, is_wrapper = Program.box_priority prog w in
  let e = Program.to_explicit ~priority_of:is_wrapper combined in
  (* at y=2 only the wrapper may act: successors of [|0;2;0|] = {[|0;0;0|]} *)
  let i = Cr_semantics.Explicit.find e [| 0; 2; 0 |] in
  check_int "wrapper preempts" 1 (Array.length (Cr_semantics.Explicit.successors e i));
  check "wrapper successor" true
    (Cr_semantics.Explicit.successors e i
    = [| Cr_semantics.Explicit.find e [| 0; 0; 0 |] |]);
  (* at y=1 the wrapper is disabled: base actions run *)
  let j = Cr_semantics.Explicit.find e [| 0; 1; 0 |] in
  check_int "base acts when wrapper disabled" 2
    (Array.length (Cr_semantics.Explicit.successors e j))

let test_closure () =
  let seen = Program.reachable_from prog [ [| 0; 2; 0 |] ] in
  (* reachable: x 0->1, y 2->1->0: all (x,y) with x in {0,1}, y <= 2 that
     are coordinatewise moves: {0,1}x{0,1,2} = 6 states *)
  check_int "closure size" 6 (Layout.Tbl.length seen);
  let p' = Program.with_initial_closure ~seeds:[ [| 1; 1; 0 |] ] prog in
  check "seed initial" true (Program.initial p' [| 1; 1; 0 |]);
  check "downstream initial" true (Program.initial p' [| 1; 0; 0 |]);
  check "not upstream" false (Program.initial p' [| 0; 2; 0 |])

(* An rw-dijkstra3 state has 20 slots at N = 6 and the polymorphic
   Hashtbl.hash reads only the first 10, which puts this closure into a
   handful of buckets with long chains.  The whole-state hash must tell
   nearly all closure states apart. *)
let test_closure_hash_spread () =
  let n = 6 in
  let p = Cr_tokenring.Rw_atomicity.program n in
  let closure =
    Program.reachable_from p [ Cr_tokenring.Rw_atomicity.canonical n ]
  in
  let states = Layout.Tbl.length closure in
  check_int "rw-dijkstra3(6) closure size" 4896 states;
  let hashes = Hashtbl.create states in
  Layout.Tbl.iter (fun s () -> Hashtbl.replace hashes (Layout.hash s) ()) closure;
  let spread = float_of_int (Hashtbl.length hashes) /. float_of_int states in
  check (Printf.sprintf "distinct hashes / states = %.3f >= 0.9" spread) true
    (spread >= 0.9);
  let stats = Layout.Tbl.stats closure in
  check
    (Printf.sprintf "longest bucket chain %d <= 8" stats.Hashtbl.max_bucket_length)
    true
    (stats.Hashtbl.max_bucket_length <= 8)

let test_faults_program () =
  let f = Cr_fault.Injector.faults layout in
  (* x has 2 values, y has 3, pinned none: actions = 2 + 3 = 5 *)
  check_int "fault actions" 5 (List.length (Program.actions f));
  (* fault saturation: from any single state the whole space is reachable *)
  let b = Program.box prog f in
  let seen = Program.reachable_from b [ [| 0; 0; 0 |] ] in
  check_int "fault span is everything" 6 (Layout.Tbl.length seen)

let test_injector () =
  let rng = Random.State.make [| 3 |] in
  let s = [| 0; 1; 0 |] in
  let s' = Cr_fault.Injector.corrupt_one ~rng layout s in
  check "one variable changed" true
    (s' <> s
    && (s'.(0) <> s.(0)) <> (s'.(1) <> s.(1))
    && s'.(2) = s.(2));
  let s'' = Cr_fault.Injector.corrupt_slot ~rng layout s ~slot:1 in
  check "slot corrupted to different value" true (s''.(1) <> s.(1));
  let pinned = Cr_fault.Injector.corrupt_slot ~rng layout s ~slot:2 in
  check "pinned slot unchanged" true (pinned = s);
  let r = Cr_fault.Injector.randomize ~rng layout in
  check "randomize in range" true (Layout.valid layout r)

let () =
  Alcotest.run "guarded"
    [
      ( "layout",
        [
          Alcotest.test_case "basics" `Quick test_layout;
          Alcotest.test_case "errors" `Quick test_layout_errors;
        ] );
      ("action", [ Alcotest.test_case "fire" `Quick test_action_fire ]);
      ( "program",
        [
          Alcotest.test_case "step and explicit" `Quick test_program_step;
          Alcotest.test_case "box" `Quick test_box;
          Alcotest.test_case "box priority" `Quick test_box_priority;
          Alcotest.test_case "closure" `Quick test_closure;
          Alcotest.test_case "closure hash spread" `Quick test_closure_hash_spread;
        ] );
      ( "faults",
        [
          Alcotest.test_case "fault program" `Quick test_faults_program;
          Alcotest.test_case "injector" `Quick test_injector;
        ] );
    ]
