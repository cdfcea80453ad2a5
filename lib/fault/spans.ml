(* Fault spans: how far can at most k transient faults push the system,
   and how expensive is recovery from there?

   The k-fault span is the set of states reachable from the legitimate
   states by interleaving program transitions (free) with fault
   transitions (each costing one fault).  Computed by 0-1 BFS on the
   explicit graph.  Recovery cost from the span is the longest path back
   to the converged region, restricted to span states.

   This quantifies the usual informal claim that "a single fault is
   cheap to recover from": see the E19 table in the benchmark harness. *)

open Cr_guarded

(* minimal number of faults needed to reach each state from the sources;
   -1 when unreachable. *)
let min_faults ~(succ : Cr_kernel.Csr.t) ~(fault_succ : int array array)
    ~(sources : int list) : int array =
  let n = Cr_kernel.Csr.num_states succ in
  let dist = Array.make n (-1) in
  let dq = Queue.create () and dq1 = Queue.create () in
  (* layered BFS: process all 0-cost closure of the current layer, then
     advance one fault *)
  List.iter
    (fun i ->
      if dist.(i) = -1 then begin
        dist.(i) <- 0;
        Queue.push i dq
      end)
    sources;
  let layer = ref 0 in
  let continue = ref true in
  while !continue do
    (* 0-cost closure at the current fault count *)
    while not (Queue.is_empty dq) do
      let i = Queue.pop dq in
      Cr_kernel.Csr.iter_row succ i (fun j ->
          if dist.(j) = -1 then begin
            dist.(j) <- !layer;
            Queue.push j dq
          end);
      Array.iter
        (fun j -> if dist.(j) = -1 then Queue.push j dq1)
        fault_succ.(i)
    done;
    (* advance one fault *)
    if Queue.is_empty dq1 then continue := false
    else begin
      incr layer;
      while not (Queue.is_empty dq1) do
        let j = Queue.pop dq1 in
        if dist.(j) = -1 then begin
          dist.(j) <- !layer;
          Queue.push j dq
        end
      done
    end
  done;
  dist

type row = {
  k : int;  (* number of faults *)
  span : int;  (* states reachable with <= k faults *)
  worst_recovery : int;  (* longest recovery path from the span *)
  expected_recovery : float;  (* max expected steps from the span *)
}

(* Full analysis for a stabilizing program [p], given its compiled graph
   [e] and its stabilization verdict [r]: one row per fault budget until
   the span saturates. *)
let analyze ?(max_k = 8) (p : Program.t)
    (e : Layout.state Cr_semantics.Explicit.t) (r : Cr_core.Stabilize.report)
    : row list =
  if not r.Cr_core.Stabilize.holds then
    invalid_arg "Spans.analyze: program is not stabilizing";
  let good = r.Cr_core.Stabilize.good_mask in
  let succ = Cr_semantics.Explicit.csr e in
  let layout = Program.layout p in
  let faults = Injector.faults layout in
  let n = Cr_semantics.Explicit.num_states e in
  let fault_succ = Array.make n [||] in
  Cr_semantics.Explicit.iter_states e (fun i s ->
      fault_succ.(i) <-
        Program.step faults s
        |> List.map (Cr_semantics.Explicit.find e)
        |> Array.of_list);
  let dist =
    min_faults ~succ ~fault_succ ~sources:(Cr_kernel.Bitset.members good)
  in
  (* Recovery depths: the states outside Good are exactly those that
     reach a state outside Good (Good is successor-closed), so settling
     that set gives each one's longest run outside Good. *)
  let depth =
    match
      (Cr_checker.Paths.settle ~succ:(Cr_kernel.Csr.source succ)
         ~bad:(Cr_kernel.Bitset.complement good))
        .Cr_checker.Paths.depth
    with
    | Some depth -> depth
    | None -> invalid_arg "Spans.analyze: the recovery region is cyclic"
  in
  let expected =
    Cr_checker.Hitting.expected ~succ
      ~pred:(Cr_semantics.Explicit.pred_csr e) ~target:good ()
  in
  let rec rows k prev_span acc =
    if k > max_k then List.rev acc
    else begin
      let span = ref 0 and worst = ref 0 and eworst = ref 0.0 in
      for i = 0 to n - 1 do
        if dist.(i) >= 0 && dist.(i) <= k then begin
          incr span;
          let d = Cr_kernel.Lane.get depth i in
          if d > !worst then worst := d;
          if Float.is_finite expected.(i) && expected.(i) > !eworst then
            eworst := expected.(i)
        end
      done;
      let row =
        { k; span = !span; worst_recovery = !worst; expected_recovery = !eworst }
      in
      if !span = prev_span then List.rev (row :: acc)
      else rows (k + 1) !span (row :: acc)
    end
  in
  rows 0 (-1) []
