(* Tests for the mini stack machine and the compiler example (E2). *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let cfg = Cr_vm.Source.machine_config

let test_compiler_reproduces_paper_listing () =
  let ours =
    Cr_vm.Instr.layout_addresses (Cr_vm.Source.compile Cr_vm.Source.paper_program)
  in
  check "identical listing" true (ours = Cr_vm.Source.paper_listing)

let test_widths_and_addresses () =
  check_int "goto is 3 bytes" 3 (Cr_vm.Instr.width (Cr_vm.Instr.Goto 7));
  check_int "iconst is 1 byte" 1 (Cr_vm.Instr.width (Cr_vm.Instr.Iconst 0));
  let l = Cr_vm.Instr.layout_addresses [ Cr_vm.Instr.Iconst 0; Cr_vm.Instr.Goto 0; Cr_vm.Instr.Return ] in
  Alcotest.(check (list int)) "addresses" [ 0; 1; 4 ] (List.map fst l)

let run_from s =
  let rec go s k =
    if k > 1000 then s
    else match Cr_vm.Machine.step cfg s with None -> s | Some s' -> go s' (k + 1)
  in
  go s 0

let test_fault_free_execution_loops () =
  (* from the initial state the program never reaches return and x stays 0 *)
  let s0 = Cr_vm.Machine.initial_state cfg in
  let rec go s k seen_return =
    if k > 200 then seen_return
    else
      match Cr_vm.Machine.step cfg s with
      | None -> true
      | Some s' -> go s' (k + 1) (seen_return || s'.Cr_vm.Machine.pc = Cr_vm.Machine.halted_pc)
  in
  check "never returns" false (go s0 0 false);
  let s = run_from s0 in
  check_int "x stays 0" 0 s.Cr_vm.Machine.locals.(1)

let test_corruption_mid_comparison_terminates () =
  (* the paper's scenario: x corrupted after the first iload (pc=8 with
     old x on the stack), before the second *)
  let s0 = Cr_vm.Machine.initial_state cfg in
  (* execute until pc = 8 *)
  let rec to_pc8 s =
    if s.Cr_vm.Machine.pc = 8 then s
    else
      match Cr_vm.Machine.step cfg s with
      | None -> Alcotest.fail "stuck before pc 8"
      | Some s' -> to_pc8 s'
  in
  let s8 = to_pc8 s0 in
  check_int "stack holds old x" 1 (List.length s8.Cr_vm.Machine.stack);
  (* corrupt x *)
  let locals = Array.copy s8.Cr_vm.Machine.locals in
  locals.(1) <- 1;
  let corrupted = { s8 with Cr_vm.Machine.locals } in
  let final = run_from corrupted in
  check_int "terminates at return" Cr_vm.Machine.halted_pc final.Cr_vm.Machine.pc;
  check_int "with x = 1, never reset" 1 final.Cr_vm.Machine.locals.(1)

let test_corruption_elsewhere_recovers () =
  (* corrupting x while the stack is empty (pc = 7) is recovered: the
     comparison still sees equal values and the loop resets x *)
  let s0 = Cr_vm.Machine.initial_state cfg in
  let rec to_pc7 s =
    if s.Cr_vm.Machine.pc = 7 && s.Cr_vm.Machine.stack = [] then s
    else
      match Cr_vm.Machine.step cfg s with
      | None -> Alcotest.fail "stuck"
      | Some s' -> to_pc7 s'
  in
  let s7 = to_pc7 s0 in
  let locals = Array.copy s7.Cr_vm.Machine.locals in
  locals.(1) <- 1;
  let corrupted = { s7 with Cr_vm.Machine.locals } in
  (* run 20 steps: should pass through istore_1 resetting x, never return *)
  let rec go s k reset =
    if k >= 20 then (reset, s)
    else
      match Cr_vm.Machine.step cfg s with
      | None -> (reset, s)
      | Some s' -> go s' (k + 1) (reset || s'.Cr_vm.Machine.locals.(1) = 0)
  in
  let reset, final = go corrupted 0 false in
  check "x reset by the loop body" true reset;
  check "still running" true (final.Cr_vm.Machine.pc <> Cr_vm.Machine.halted_pc)

let test_experiment_verdicts () =
  let v = Cr_experiments.Intro_exps.vm_experiment () in
  check "compiler matches paper" true v.Cr_experiments.Intro_exps.compiler_matches_paper;
  check "source stabilizes" true v.Cr_experiments.Intro_exps.source_stabilizes;
  check "bytecode does not" false v.Cr_experiments.Intro_exps.bytecode_stabilizes;
  check "bytecode refines fault-free" true
    v.Cr_experiments.Intro_exps.bytecode_refines_init;
  check "witness is a halted state with x<>0" true
    (match v.Cr_experiments.Intro_exps.bad_terminal with
    | Some s ->
        s.Cr_vm.Machine.pc = Cr_vm.Machine.halted_pc && s.Cr_vm.Machine.locals.(1) = 1
    | None -> false)

let test_machine_enumeration () =
  let states = Cr_vm.Machine.enumerate cfg in
  (* 10 pcs (9 + halted) x 7 stacks x 4 locals = 280 *)
  check_int "state count" 280 (List.length states);
  let e = Cr_semantics.Explicit.of_system (Cr_vm.Machine.to_system ~name:"vm" cfg) in
  check_int "explicit agrees" 280 (Cr_semantics.Explicit.num_states e)

let test_stack_safety () =
  (* overflow and underflow become stuck (terminal), never exceptions *)
  let s_over = { Cr_vm.Machine.pc = 7; stack = [ 0; 0 ]; locals = [| 0; 0 |] } in
  check "iload on full stack is stuck" true (Cr_vm.Machine.step cfg s_over = None);
  let s_under = { Cr_vm.Machine.pc = 9; stack = [ 0 ]; locals = [| 0; 0 |] } in
  check "if_icmpeq on short stack is stuck" true
    (Cr_vm.Machine.step cfg s_under = None)

(* ---- the drain program: a multi-step recovery path at source level ---- *)

let test_drain_source_recovers () =
  let dom = 4 in
  let src = Cr_semantics.Explicit.of_system (Cr_vm.Source.drain_abstract_system ~dom) in
  let tgt = Cr_semantics.Explicit.of_system (Cr_vm.Source.target_system ~value_dom:dom) in
  let r = Cr_core.Stabilize.stabilizing_to ~c:src ~a:tgt () in
  check "drain source stabilizes to x=0" true r.Cr_core.Stabilize.holds;
  Alcotest.(check (option int))
    "recovery takes dom-1 steps" (Some (dom - 1))
    r.Cr_core.Stabilize.worst_case_recovery

let test_drain_bytecode_runs () =
  let dom = 4 in
  let cfg = Cr_vm.Source.drain_machine_config ~dom in
  (* fault-free: loops forever with x = 0 (the loop never executes) *)
  let s0 = Cr_vm.Machine.initial_state cfg in
  let rec go s k =
    if k = 0 then s
    else match Cr_vm.Machine.step cfg s with None -> s | Some s' -> go s' (k - 1)
  in
  let s = go s0 40 in
  check "terminates with x = 0 (loop body never runs)" true
    (s.Cr_vm.Machine.pc = Cr_vm.Machine.halted_pc && s.Cr_vm.Machine.locals.(1) = 0);
  (* recovery: corrupt x at the loop test with an empty stack; the drain
     loop brings it back to 0 and exits *)
  let test_pc =
    (* address of the first instruction of the loop test = target of the
       initial goto *)
    match List.assoc_opt 2 cfg.Cr_vm.Machine.code with
    | Some (Cr_vm.Instr.Goto t) -> t
    | _ -> Alcotest.fail "expected goto at address 2"
  in
  let corrupted =
    { Cr_vm.Machine.pc = test_pc; stack = []; locals = [| 0; 3 |] }
  in
  let final = go corrupted 200 in
  check "drains back to 0 and halts" true
    (final.Cr_vm.Machine.pc = Cr_vm.Machine.halted_pc
    && final.Cr_vm.Machine.locals.(1) = 0)

let test_drain_bytecode_not_stabilizing () =
  let dom = 3 in
  let cfg = Cr_vm.Source.drain_machine_config ~dom in
  let machine =
    Cr_semantics.Explicit.of_system (Cr_vm.Machine.to_system ~name:"drain-vm" cfg)
  in
  let tgt = Cr_semantics.Explicit.of_system (Cr_vm.Source.target_system ~value_dom:dom) in
  let alpha = Cr_semantics.Abstraction.tabulate Cr_vm.Source.alpha_x machine tgt in
  let r = Cr_core.Stabilize.stabilizing_to ~alpha ~c:machine ~a:tgt () in
  check "drain bytecode does not stabilize to x=0" false r.Cr_core.Stabilize.holds;
  (* the witness is again a halted state with x <> 0 *)
  check "witness halted with x<>0" true
    (match r.Cr_core.Stabilize.bad_terminal with
    | Some i ->
        let s = Cr_semantics.Explicit.state machine i in
        s.Cr_vm.Machine.pc = Cr_vm.Machine.halted_pc && s.Cr_vm.Machine.locals.(1) <> 0
    | None -> false)

let test_new_instructions () =
  let cfg =
    {
      Cr_vm.Machine.code =
        Cr_vm.Instr.layout_addresses
          [ Cr_vm.Instr.Iconst 1; Cr_vm.Instr.Dup; Cr_vm.Instr.Iadd;
            Cr_vm.Instr.Istore 0; Cr_vm.Instr.Iinc (0, 1); Cr_vm.Instr.Iconst 0;
            Cr_vm.Instr.Pop; Cr_vm.Instr.Return ];
      num_locals = 1;
      value_dom = 4;
      max_stack = 2;
    }
  in
  let rec run s =
    match Cr_vm.Machine.step cfg s with None -> s | Some s' -> run s'
  in
  let final = run (Cr_vm.Machine.initial_state cfg) in
  (* 1 dup -> [1;1]; iadd -> [2]; istore0 -> x=2; iinc x+=1 -> 3; push 0; pop *)
  Alcotest.(check int) "arithmetic" 3 final.Cr_vm.Machine.locals.(0);
  Alcotest.(check int) "halted" Cr_vm.Machine.halted_pc final.Cr_vm.Machine.pc

let () =
  Alcotest.run "vm"
    [
      ( "compiler",
        [
          Alcotest.test_case "reproduces the paper's listing" `Quick
            test_compiler_reproduces_paper_listing;
          Alcotest.test_case "widths and addresses" `Quick
            test_widths_and_addresses;
        ] );
      ( "machine",
        [
          Alcotest.test_case "fault-free loop" `Quick
            test_fault_free_execution_loops;
          Alcotest.test_case "corruption mid-comparison terminates (paper)"
            `Quick test_corruption_mid_comparison_terminates;
          Alcotest.test_case "corruption elsewhere recovers" `Quick
            test_corruption_elsewhere_recovers;
          Alcotest.test_case "enumeration" `Quick test_machine_enumeration;
          Alcotest.test_case "stack safety" `Quick test_stack_safety;
        ] );
      ( "experiment",
        [ Alcotest.test_case "E2 verdicts" `Quick test_experiment_verdicts ] );
      ( "drain program",
        [
          Alcotest.test_case "source recovers in x steps" `Quick
            test_drain_source_recovers;
          Alcotest.test_case "bytecode drains after loop-test faults" `Quick
            test_drain_bytecode_runs;
          Alcotest.test_case "bytecode not stabilizing" `Quick
            test_drain_bytecode_not_stabilizing;
          Alcotest.test_case "new instructions" `Quick test_new_instructions;
        ] );
    ]
