(* The mutual-exclusion service view of the token rings.

   Dijkstra's systems are mutual-exclusion protocols: holding a token is
   the privilege to act.  Beyond stabilization, the service guarantees
   are:

   - safety   : in converged behaviour, at most one process is privileged;
   - liveness : in converged behaviour, every process is privileged (and
     acts) infinitely often;
   - I4       : the paper's fourth invariant — the token alternates
     direction, i.e. along the legitimate cycle each process's up-token
     and down-token events occur equally often.

   On finite systems converged behaviour is the set of states/edges inside
   the Good region, which for all our rings is a single cycle per
   "colour class"; the checks below are exact. *)

open Cr_guarded

type verdict = {
  safety : bool;  (* <= 1 privileged process in every Good state *)
  liveness : bool;  (* every process acts on every Good cycle *)
  processes : int;
}

(* Which process "acts" on a transition: the unique process whose
   variables changed (token-ring actions write one process's state in the
   concrete systems; for abstract systems with neighbour writes we use
   the acting process of the generating action instead). *)
let acting_process (p : Program.t) s s' =
  List.find_map
    (fun a ->
      match Action.fire a s with
      | Some t when t = s' -> Some (Action.proc a)
      | _ -> None)
    (Program.actions p)

let check ~(privileged : Layout.state -> int -> bool) ~(num_procs : int)
    (p : Program.t) ~(good : Cr_kernel.Bitset.t)
    (e : Layout.state Cr_semantics.Explicit.t) : verdict =
  let n = Cr_semantics.Explicit.num_states e in
  (* safety *)
  let safety = ref true in
  for i = 0 to n - 1 do
    if Cr_kernel.Bitset.get good i then begin
      let s = Cr_semantics.Explicit.state e i in
      let count = ref 0 in
      for j = 0 to num_procs - 1 do
        if privileged s j then incr count
      done;
      if !count > 1 then safety := false
    end
  done;
  (* liveness: in the Good subgraph, every nontrivial SCC must contain an
     acting edge for every process (each process acts on every recurrent
     behaviour) *)
  let restricted =
    Cr_kernel.Csr.restrict (Cr_semantics.Explicit.csr e) good
  in
  let scc = Cr_checker.Scc.compute restricted in
  let members = Array.make scc.Cr_checker.Scc.count [] in
  for i = n - 1 downto 0 do
    if Cr_kernel.Bitset.get good i then begin
      let c = scc.Cr_checker.Scc.component.(i) in
      members.(c) <- i :: members.(c)
    end
  done;
  let liveness = ref true in
  Array.iteri
    (fun c states ->
      if scc.Cr_checker.Scc.sizes.(c) >= 2 then begin
        let actors = Array.make num_procs false in
        List.iter
          (fun i ->
            Cr_kernel.Csr.iter_row restricted i (fun j ->
                if scc.Cr_checker.Scc.component.(j) = c then
                  match
                    acting_process p
                      (Cr_semantics.Explicit.state e i)
                      (Cr_semantics.Explicit.state e j)
                  with
                  | Some pr when pr >= 0 && pr < num_procs -> actors.(pr) <- true
                  | _ -> ()))
          states;
        if not (Array.for_all (fun b -> b) actors) then liveness := false
      end)
    members;
  { safety = !safety; liveness = !liveness; processes = num_procs }

(* I4 for BTR: on every legitimate cycle, each middle process receives the
   token from below (↑t.j) and from above (↓t.j) equally often.  We count
   token events along each Good cycle. *)
let i4_equal_frequency n (p : Program.t)
    ~(to_tokens : Layout.state -> Btr.state) ~(good : Cr_kernel.Bitset.t)
    (e : Layout.state Cr_semantics.Explicit.t) : bool =
  ignore p;
  let num = Cr_semantics.Explicit.num_states e in
  let restricted =
    Cr_kernel.Csr.restrict (Cr_semantics.Explicit.csr e) good
  in
  let scc = Cr_checker.Scc.compute restricted in
  let members = Array.make scc.Cr_checker.Scc.count [] in
  for i = num - 1 downto 0 do
    if Cr_kernel.Bitset.get good i then begin
      let c = scc.Cr_checker.Scc.component.(i) in
      members.(c) <- i :: members.(c)
    end
  done;
  let ok = ref true in
  Array.iteri
    (fun c states ->
      if scc.Cr_checker.Scc.sizes.(c) >= 2 then begin
        (* count, over all edges of the SCC, appearances of fresh ↑t.j and
           ↓t.j (token arriving at j); on a deterministic legitimate cycle
           every edge is traversed once per round *)
        let ups = Array.make (n + 1) 0 and dns = Array.make (n + 1) 0 in
        List.iter
          (fun i ->
            Cr_kernel.Csr.iter_row restricted i (fun j ->
                if scc.Cr_checker.Scc.component.(j) = c then begin
                  let before = to_tokens (Cr_semantics.Explicit.state e i) in
                  let after = to_tokens (Cr_semantics.Explicit.state e j) in
                  for pr = 0 to n do
                    if Btr.up n after pr && not (Btr.up n before pr) then
                      ups.(pr) <- ups.(pr) + 1;
                    if Btr.dn n after pr && not (Btr.dn n before pr) then
                      dns.(pr) <- dns.(pr) + 1
                  done
                end))
          states;
        (* middle processes must receive from both directions equally *)
        for pr = 1 to n - 1 do
          if ups.(pr) <> dns.(pr) then ok := false
        done
      end)
    members;
  !ok
