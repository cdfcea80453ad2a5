(* Exact expected hitting times under a uniformly random daemon.

   Treat the system as a Markov chain where each state picks uniformly
   among its successors; [expected ~succ ~target] returns E[steps to
   reach the target set] per state (infinity when the target is not
   reached almost surely — i.e. when some reachable sink or closed
   component avoids it).

   Solved by value iteration, which converges geometrically on absorbing
   chains.  Used by the convergence-cost experiments as the exact
   counterpart of the Monte-Carlo mean (they are cross-checked in the
   test suite). *)

module Csr = Cr_kernel.Csr
module Bitset = Cr_kernel.Bitset

let c_runs = Cr_obs.Obs.counter "hitting.runs"
let c_iterations = Cr_obs.Obs.counter "hitting.iterations"

let expected ?(epsilon = 1e-9) ?(max_iter = 1_000_000) ?pred
    ~(succ : Csr.t) ~(target : bool array) () : float array =
  Cr_obs.Obs.span "hitting.expected" @@ fun () ->
  let n = Csr.num_states succ in
  let rp = Csr.row_ptr succ and tg = Csr.targets succ in
  (* states that cannot reach the target at all diverge; callers that hold
     an explicit system pass its stored predecessor CSR to skip the
     transposition *)
  let seeds = Bitset.of_bool_array target in
  let can_reach =
    match pred with
    | Some p -> Reach.forward ~succ:p ~seeds
    | None -> Reach.backward ~succ ~seeds
  in
  (* Any state that CAN reach the target reaches it almost surely under
     uniform choice iff no reachable closed component avoids it; value
     iteration handles that case (expectations converge iff escape is
     a.s.), so only the states that cannot reach the target are marked
     infinite up front. *)
  let e = Array.make n 0.0 in
  let next = Array.make n 0.0 in
  for i = 0 to n - 1 do
    if not (Bitset.get can_reach i) then e.(i) <- infinity
  done;
  let iter = ref 0 in
  let delta = ref infinity in
  while !delta > epsilon && !iter < max_iter do
    delta := 0.0;
    for i = 0 to n - 1 do
      if target.(i) then next.(i) <- 0.0
      else if not (Bitset.get can_reach i) then next.(i) <- infinity
      else begin
        let lo = rp.(i) and hi = rp.(i + 1) in
        if hi = lo then next.(i) <- infinity (* non-target deadlock *)
        else begin
          let sum = ref 0.0 in
          for k = lo to hi - 1 do
            sum := !sum +. e.(tg.(k))
          done;
          next.(i) <- 1.0 +. (!sum /. float_of_int (hi - lo))
        end
      end;
      let diff = Float.abs (next.(i) -. e.(i)) in
      if Float.is_nan diff then ()
      else if diff > !delta then delta := diff
    done;
    Array.blit next 0 e 0 n;
    incr iter
  done;
  Cr_obs.Obs.incr c_runs;
  Cr_obs.Obs.add c_iterations !iter;
  e

let max_finite (e : float array) =
  Array.fold_left
    (fun acc v -> if Float.is_finite v && v > acc then v else acc)
    0.0 e

let mean_finite (e : float array) =
  let total = ref 0.0 and count = ref 0 in
  Array.iter
    (fun v ->
      if Float.is_finite v then begin
        total := !total +. v;
        incr count
      end)
    e;
  if !count = 0 then nan else !total /. float_of_int !count
