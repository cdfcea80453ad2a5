(* Strongly connected components of a CSR graph, iterative Tarjan. *)

module Csr = Cr_kernel.Csr

let[@inline] lane b k = Int32.to_int (Cr_kernel.Lane.get32u b (4 * k))

type t = {
  component : int array;  (* state index -> component id *)
  count : int;
  sizes : int array;  (* component id -> number of states *)
}

let c_runs = Cr_obs.Obs.counter "scc.runs"
let c_components = Cr_obs.Obs.counter "scc.components"
let c_largest = Cr_obs.Obs.counter ~kind:Cr_obs.Obs.Max "scc.largest"

let compute (g : Csr.t) : t =
  Cr_obs.Obs.span "scc.compute" @@ fun () ->
  let n = Csr.num_states g in
  let rp = Csr.row_ptr g and tg = Csr.targets g in
  let index = Array.make n (-1) in
  let lowlink = Array.make n 0 in
  let on_stack = Array.make n false in
  let component = Array.make n (-1) in
  (* Tarjan stack and DFS call stack as flat int arrays (both bounded by
     n), so a compute costs no allocation beyond these six arrays.  The
     DFS visits each row's successors in their sorted order. *)
  let stack = Array.make n 0 in
  let sp = ref 0 in
  let call_v = Array.make n 0 in
  let call_c = Array.make n 0 in
  let cp = ref 0 in
  let next_index = ref 0 in
  let next_comp = ref 0 in
  let start v =
    index.(v) <- !next_index;
    lowlink.(v) <- !next_index;
    incr next_index;
    stack.(!sp) <- v;
    incr sp;
    on_stack.(v) <- true;
    call_v.(!cp) <- v;
    call_c.(!cp) <- 0;
    incr cp
  in
  for root = 0 to n - 1 do
    if index.(root) = -1 then begin
      start root;
      while !cp > 0 do
        let v = call_v.(!cp - 1) in
        let c = call_c.(!cp - 1) in
        if c < lane rp (v + 1) - lane rp v then begin
          let w = lane tg (lane rp v + c) in
          call_c.(!cp - 1) <- c + 1;
          if index.(w) = -1 then start w
          else if on_stack.(w) && index.(w) < lowlink.(v) then
            lowlink.(v) <- index.(w)
        end
        else begin
          decr cp;
          if lowlink.(v) = index.(v) then begin
            let continue = ref true in
            while !continue do
              decr sp;
              let w = stack.(!sp) in
              on_stack.(w) <- false;
              component.(w) <- !next_comp;
              if w = v then continue := false
            done;
            incr next_comp
          end;
          if !cp > 0 then begin
            let parent = call_v.(!cp - 1) in
            if lowlink.(v) < lowlink.(parent) then
              lowlink.(parent) <- lowlink.(v)
          end
        end
      done
    end
  done;
  let sizes = Array.make !next_comp 0 in
  Array.iter (fun c -> sizes.(c) <- sizes.(c) + 1) component;
  if Cr_obs.Obs.tracking () then begin
    Cr_obs.Obs.incr c_runs;
    Cr_obs.Obs.add c_components !next_comp;
    Cr_obs.Obs.record_max c_largest (Array.fold_left max 0 sizes)
  end;
  { component; count = !next_comp; sizes }

(* Is state [i] on some cycle?  True iff its component has >= 2 states
   (self-loops are excluded from our graphs by construction). *)
let on_cycle t i = t.sizes.(t.component.(i)) >= 2

(* Does edge (i, j) lie on a cycle, i.e. are i and j in the same
   component? *)
let edge_on_cycle t i j = t.component.(i) = t.component.(j)
