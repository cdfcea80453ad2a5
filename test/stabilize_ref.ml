(* The stabilization route [Stabilize.stabilizing_to] replaced, kept as
   its reference: the bad seeds marked by a sequential sweep, the
   pure-stutter cycle test run on every system over all of C's edges
   (the library runs it over the τ-steps its sweep collected from the
   states whose image is in L), the seeds walked back over
   the transpose of C ([Reach.backward]) to the states that reach one,
   the recovery depths by a separate iterative longest-path DFS (which
   doubles as the cycle test), and the converged region copied into a
   bool array.  Uncached; tests compare its reports with the library's
   field by field. *)

open Cr_semantics
module Csr = Cr_kernel.Csr
module Bitset = Cr_kernel.Bitset

type report = {
  holds : bool;
  concrete : string;
  abstract : string;
  legitimate : int;
  good : int;
  states : int;
  worst_case_recovery : int option;
  bad_cycle : int list option;
  bad_terminal : int option;
  good_mask : bool array;
}

exception Cyclic

(* Longest path (number of edges) from each masked state while staying
   in the masked region, where leaving the region (or stopping) costs
   nothing beyond the edge itself; raises [Cyclic] when the masked
   subgraph has a cycle.  Iterative DFS with an explicit (node,
   next-child) stack. *)
let longest_within ~succ ~mask =
  let n = Csr.num_states succ in
  let lane b k = Cr_kernel.Lane.get b k in
  let rp = Csr.row_ptr succ and tg = Csr.targets succ in
  let memo = Array.make n (-1) in
  let visiting = Array.make n false in
  let call_v = Array.make n 0 in
  let call_c = Array.make n 0 in
  let cp = ref 0 in
  let compute root =
    visiting.(root) <- true;
    call_v.(0) <- root;
    call_c.(0) <- 0;
    cp := 1;
    while !cp > 0 do
      let i = call_v.(!cp - 1) in
      let c = call_c.(!cp - 1) in
      if c < lane rp (i + 1) - lane rp i then begin
        let j = lane tg (lane rp i + c) in
        call_c.(!cp - 1) <- c + 1;
        if Bitset.get mask j then begin
          if visiting.(j) then raise Cyclic;
          if memo.(j) < 0 then begin
            visiting.(j) <- true;
            call_v.(!cp) <- j;
            call_c.(!cp) <- 0;
            incr cp
          end
        end
      end
      else begin
        decr cp;
        visiting.(i) <- false;
        let best = ref 0 in
        for k = lane rp i to lane rp (i + 1) - 1 do
          let j = lane tg k in
          let v = 1 + if Bitset.get mask j then memo.(j) else 0 in
          if v > !best then best := v
        done;
        memo.(i) <- !best
      end
    done
  in
  Array.init n (fun i ->
      if not (Bitset.get mask i) then 0
      else begin
        if memo.(i) < 0 then compute i;
        memo.(i)
      end)

(* One cycle inside the masked region: the least state on a cycle of
   the restricted graph, closed by a shortest path back to it. *)
let find_cycle_within succ mask =
  let n = Csr.num_states succ in
  let restricted = Csr.restrict succ mask in
  let scc = Cr_checker.Scc.compute restricted in
  let witness = ref None in
  for i = n - 1 downto 0 do
    if Bitset.get mask i && Cr_checker.Scc.on_cycle scc i then
      witness := Some i
  done;
  match !witness with
  | None -> None
  | Some i -> (
      let comp = scc.Cr_checker.Scc.component.(i) in
      let in_comp = Bitset.create n in
      for j = 0 to n - 1 do
        if Bitset.get mask j && scc.Cr_checker.Scc.component.(j) = comp then
          Bitset.set in_comp j
      done;
      let comp_succ = Csr.restrict restricted in_comp in
      if Csr.degree comp_succ i = 0 then Some [ i ]
      else
        match
          Cr_checker.Paths.shortest_path ~succ:comp_succ
            ~src:(Csr.kth comp_succ i 0) ~dst:i
        with
        | Some p -> Some (i :: p)
        | None -> Some [ i ])

let stabilizing_to ?alpha ?fair ~(c : _ Explicit.t) ~(a : _ Explicit.t) () =
  let n = Explicit.num_states c in
  let alpha =
    Cr_kernel.Lane.to_array
      (match alpha with Some t -> t | None -> Abstraction.identity_table n)
  in
  let legit = Cr_checker.Reach.reachable_from_initial a in
  let in_legit ai = ai >= 0 && Bitset.get legit ai in
  let succ_c = Explicit.csr c in
  let bad_seed = Bitset.create n in
  Explicit.iter_edges c (fun i j ->
      let ai = alpha.(i) and aj = alpha.(j) in
      if
        not
          (in_legit ai && in_legit aj
          && (Explicit.has_edge a ai aj || ai = aj))
      then Bitset.set bad_seed i);
  (let sscc =
     Cr_checker.Scc.compute
       (Csr.filter succ_c (fun i j -> alpha.(i) = alpha.(j)))
   in
   for i = 0 to n - 1 do
     if
       Cr_checker.Scc.on_cycle sscc i
       && not (in_legit alpha.(i) && Explicit.is_terminal a alpha.(i))
     then Bitset.set bad_seed i
   done);
  let bad_terminal = ref None in
  for i = 0 to n - 1 do
    if Explicit.is_terminal c i then
      let ai = alpha.(i) in
      if not (in_legit ai && Explicit.is_terminal a ai) then begin
        Bitset.set bad_seed i;
        if !bad_terminal = None then bad_terminal := Some i
      end
  done;
  let reaches_bad = Cr_checker.Reach.backward ~succ:succ_c ~seeds:bad_seed in
  let good = Bitset.complement reaches_bad in
  let terminal_outside =
    match !bad_terminal with
    | Some i -> Some i
    | None ->
        let w = ref None in
        for i = n - 1 downto 0 do
          if Bitset.get reaches_bad i && Explicit.is_terminal c i then
            w := Some i
        done;
        !w
  in
  let depths () =
    match longest_within ~succ:succ_c ~mask:reaches_bad with
    | d -> Some d
    | exception Cyclic -> None
  in
  let cycle, depth =
    match fair with
    | None -> (
        match depths () with
        | Some d -> (None, Some d)
        | None -> (find_cycle_within succ_c reaches_bad, None))
    | Some tables -> (
        match
          (Cr_core.Fair.analyze tables ~succ:succ_c ~mask:reaches_bad)
            .Cr_core.Fair.sccs
        with
        | [] -> (None, depths ())
        | scc :: _ -> (Some scc, None))
  in
  let holds = cycle = None && terminal_outside = None in
  {
    holds;
    concrete = Explicit.name c;
    abstract = Explicit.name a;
    legitimate = Bitset.count legit;
    good = Bitset.count good;
    states = n;
    worst_case_recovery =
      (if holds then Option.map (Array.fold_left max 0) depth else None);
    bad_cycle = cycle;
    bad_terminal = terminal_outside;
    good_mask = Bitset.to_bool_array good;
  }

(* Every field but the telemetry [cost]. *)
let agrees (r : Cr_core.Stabilize.report) (ref_ : report) =
  let open Cr_core.Stabilize in
  r.holds = ref_.holds
  && r.concrete = ref_.concrete
  && r.abstract = ref_.abstract
  && r.legitimate = ref_.legitimate
  && r.good = ref_.good
  && r.states = ref_.states
  && r.worst_case_recovery = ref_.worst_case_recovery
  && r.bad_cycle = ref_.bad_cycle
  && r.bad_terminal = ref_.bad_terminal
  && Bitset.to_bool_array r.good_mask = ref_.good_mask
