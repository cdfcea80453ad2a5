(* The introduction's two motivating examples as runnable experiments
   (DESIGN.md E2, E3). *)

open Cr_semantics

(* ---- E2: the Java compiler example ---- *)

type vm_verdicts = {
  compiler_matches_paper : bool;
      (* our compiler reproduces the paper's exact listing *)
  source_stabilizes : bool;  (* the source-level system stabilizes to x=0 *)
  bytecode_stabilizes : bool;  (* ... and the bytecode does not *)
  bytecode_refines_init : bool;
      (* fault-free, the bytecode tracks the source (modulo stuttering) *)
  bad_terminal : Cr_vm.Machine.state option;  (* the witness: return with x<>0 *)
}

let vm_experiment () =
  let cfg = Cr_vm.Source.machine_config in
  let compiled = Instr_eq.listings_equal
      (Cr_vm.Instr.layout_addresses (Cr_vm.Source.compile Cr_vm.Source.paper_program))
      Cr_vm.Source.paper_listing
  in
  let source = Explicit.of_system (Cr_vm.Source.abstract_system ~value_dom:2) in
  let target = Explicit.of_system (Cr_vm.Source.target_system ~value_dom:2) in
  let machine = Explicit.of_system (Cr_vm.Machine.to_system ~name:"bytecode" cfg) in
  let source_stabilizes =
    (Cr_core.Stabilize.stabilizing_to ~c:source ~a:target ()).Cr_core.Stabilize.holds
  in
  let alpha = Abstraction.tabulate Cr_vm.Source.alpha_x machine target in
  let r = Cr_core.Stabilize.stabilizing_to ~alpha ~c:machine ~a:target () in
  let alpha_src = Abstraction.tabulate Cr_vm.Source.alpha_x machine source in
  (* fault-free refinement: from the initial state, the machine's image
     never leaves x=0; since the source has no move at 0 this is exactly
     "all reachable steps are stutters at 0" *)
  let reach = Cr_checker.Reach.reachable_from_initial machine in
  let refines_init = ref true in
  Explicit.iter_edges machine (fun i j ->
      if Cr_kernel.Bitset.get reach i
         &&
         let ai = Cr_kernel.Lane.get alpha_src i in
         not
           (ai = Cr_kernel.Lane.get alpha_src j
           && ai = Explicit.find source 0)
      then refines_init := false);
  {
    compiler_matches_paper = compiled;
    source_stabilizes;
    bytecode_stabilizes = r.Cr_core.Stabilize.holds;
    bytecode_refines_init = !refines_init;
    bad_terminal =
      Option.map (Explicit.state machine) r.Cr_core.Stabilize.bad_terminal;
  }

(* ---- E3: the bidding server ---- *)

type bidding_verdicts = {
  impl_refines_init : bool;  (* fault-free, the sorted list refines the spec *)
  impl_convergence : bool;  (* [impl ⪯ spec] — expected false *)
  impl_blocked_terminal : int list option;
      (* a corrupted implementation state that wrongly stops accepting bids *)
  wrapped_convergence : bool;
      (* the repaired implementation is a convergence refinement of the
         spec (repair steps are stutters, so it is not an *everywhere*
         refinement — Theorem 1 rather than Theorem 0 applies) *)
  wrapped_not_everywhere : bool;
  spec_diff_bound_holds : bool;
      (* single corruption changes at most one stored bid forever (sampled) *)
  impl_diff_bound_fails : bool;  (* the implementation violates that bound *)
}

let bidding_experiment ?(b = 3) ?(k = 2) () =
  let spec = Explicit.of_system (Cr_bidding.Automaton.spec_system ~b ~k) in
  let impl = Explicit.of_system (Cr_bidding.Automaton.impl_system ~b ~k) in
  let wrapped = Explicit.of_system (Cr_bidding.Automaton.wrapped_system ~b ~k) in
  let alpha_impl = Abstraction.tabulate Cr_bidding.Automaton.alpha impl spec in
  let alpha_wrapped = Abstraction.tabulate Cr_bidding.Automaton.alpha wrapped spec in
  let init_ok =
    (Cr_core.Refine.init_refinement ~alpha:alpha_impl ~c:impl ~a:spec ())
      .Cr_core.Refine.holds
  in
  let conv =
    Cr_core.Refine.convergence_refinement ~alpha:alpha_impl ~c:impl ~a:spec ()
  in
  let blocked =
    List.find_map
      (function
        | Cr_core.Refine.Terminal_not_terminal i -> Some (Explicit.state impl i)
        | _ -> None)
      conv.Cr_core.Refine.failures
  in
  let wrapped_conv =
    (Cr_core.Refine.convergence_refinement ~alpha:alpha_wrapped ~c:wrapped ~a:spec ())
      .Cr_core.Refine.holds
  in
  let wrapped_ev =
    (Cr_core.Refine.everywhere_refinement ~alpha:alpha_wrapped ~c:wrapped ~a:spec ())
      .Cr_core.Refine.holds
  in
  (* diff-bound simulations *)
  let rng = Random.State.make [| 2026 |] in
  let random_seq len = List.init len (fun _ -> Random.State.int rng (b + 1)) in
  let spec_bound = ref true and impl_violation = ref false in
  for _ = 1 to 500 do
    let k' = k in
    let base = Cr_bidding.Spec.of_list ~k:k' (List.init k' (fun _ -> Random.State.int rng (b + 1))) in
    let idx = Random.State.int rng k' in
    let v = Random.State.int rng (b + 1) in
    let corrupted = Cr_bidding.Spec.corrupt ~index:idx ~value:v base in
    let seq = random_seq (Random.State.int rng 8) in
    let r1 = Cr_bidding.Spec.run base seq in
    let r2 = Cr_bidding.Spec.run corrupted seq in
    if Cr_bidding.Spec.diff r1 r2 > 1 then spec_bound := false;
    (* same campaign against the sorted-list implementation *)
    let ibase =
      Cr_bidding.Sorted_impl.of_list ~k:k' (Cr_bidding.Spec.stored base)
    in
    let icorr = Cr_bidding.Sorted_impl.corrupt ~index:idx ~value:v ibase in
    let ir1 = Cr_bidding.Sorted_impl.run ibase seq in
    let ir2 = Cr_bidding.Sorted_impl.run icorr seq in
    if
      Cr_bidding.Spec.diff
        (Cr_bidding.Sorted_impl.to_spec ir1)
        (Cr_bidding.Sorted_impl.to_spec ir2)
      > 1
    then impl_violation := true
  done;
  {
    impl_refines_init = init_ok;
    impl_convergence = conv.Cr_core.Refine.holds;
    impl_blocked_terminal = blocked;
    wrapped_convergence = wrapped_conv;
    wrapped_not_everywhere = not wrapped_ev;
    spec_diff_bound_holds = !spec_bound;
    impl_diff_bound_fails = !impl_violation;
  }
