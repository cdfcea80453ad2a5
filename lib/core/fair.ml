(* Weak fairness.

   The paper (like much of the stabilization literature) is silent about
   the daemon; several of its wrapped-system claims fail under a fully
   adversarial interleaving daemon because the daemon can starve an
   enabled wrapper or ring action forever (see EXPERIMENTS.md).  Under
   *weak fairness* — an action that is continuously enabled is eventually
   taken — those starvation cycles are excluded.

   Decision procedure: an infinite run of a finite system eventually stays
   inside one SCC and can visit all its states infinitely often.  Hence a
   weakly-fair divergent run confined to an SCC [C] exists iff for every
   action [a] enabled at *every* state of [C] there is an [a]-labelled
   transition that stays inside [C].  (If [a] is disabled somewhere in
   [C], a run is fair w.r.t. [a] by visiting that state infinitely often;
   if [a] is enabled everywhere in [C] but always exits [C], every run
   confined to [C] — or to any subset of [C] — starves [a].)  This makes
   the per-SCC check exact.

   Actions are given as a table over state indices, one four-byte lane
   per state ([Cr_kernel.Lane]): lane [i] of [next.(a)] is [j] when
   action [a] fires from state [i] to [j], and [-1] when [a] is
   disabled at [i] (a no-op firing counts as disabled: it generates no
   transition). *)

type tables = Bytes.t array
(** lane [state] of [next.(action)] = successor index, or [-1]. *)

let[@inline] lane b k = Int32.to_int (Cr_kernel.Lane.get32u b (4 * k))

type analysis = {
  component : int array;  (* component id per state; -1 outside the mask *)
  fair : bool array;  (* state lies in a fair-admissible SCC *)
  sccs : int list list;  (* the fair-admissible SCCs *)
}

let enabled (next : tables) a i = lane next.(a) i >= 0

(* [edge] is membership in the (restricted) adjacency the run is confined
   to: a step counts as "taken inside" only if it is an edge of that graph
   within the SCC.  (For stuttering analyses the graph is a strict
   subgraph of the system, so the edge-membership test matters.) *)
let admissible (next : tables) ~(edge : int -> int -> bool)
    ~(in_scc : int -> bool) (states : int list) =
  match states with
  | [] | [ _ ] -> false
  | _ ->
      let num_actions = Array.length next in
      let ok = ref true in
      for a = 0 to num_actions - 1 do
        if !ok then begin
          let always_enabled = List.for_all (fun i -> enabled next a i) states in
          if always_enabled then begin
            let taken_inside =
              List.exists
                (fun i ->
                  let j = lane next.(a) i in
                  j >= 0 && in_scc j && edge i j)
                states
            in
            if not taken_inside then ok := false
          end
        end
      done;
      !ok

let c_runs = Cr_obs.Obs.counter "fair.analyze.runs"
let c_admissible = Cr_obs.Obs.counter "fair.admissible_sccs"

(* Analyze the subgraph induced by [mask]: compute its SCCs and which of
   them carry a weakly-fair infinite run.  The restriction stays flat and
   the taken-inside test is a binary search in the restricted row. *)
let analyze (next : tables) ~(succ : Cr_kernel.Csr.t)
    ~(mask : Cr_kernel.Bitset.t) : analysis =
  Cr_obs.Obs.span "fair.analyze" @@ fun () ->
  let n = Cr_kernel.Csr.num_states succ in
  let restricted = Cr_kernel.Csr.restrict succ mask in
  let scc = Cr_checker.Scc.compute restricted in
  let members = Array.make scc.Cr_checker.Scc.count [] in
  let component = Array.make n (-1) in
  (* one word-skipping pass over the mask builds both tables; the
     prepend-then-reverse keeps each member list ascending, as the
     witness-cycle rendering expects *)
  Cr_kernel.Bitset.iter_set_bits mask (fun i ->
      let c = scc.Cr_checker.Scc.component.(i) in
      members.(c) <- i :: members.(c);
      component.(i) <- c);
  Array.iteri (fun c states -> members.(c) <- List.rev states) members;
  let fair = Array.make n false in
  let sccs = ref [] in
  Array.iteri
    (fun c states ->
      if scc.Cr_checker.Scc.sizes.(c) >= 2 then begin
        let in_scc j =
          Cr_kernel.Bitset.get mask j
          && scc.Cr_checker.Scc.component.(j) = c
        in
        let edge i j = Cr_kernel.Csr.mem restricted i j in
        if admissible next ~edge ~in_scc states then begin
          List.iter (fun i -> fair.(i) <- true) states;
          sccs := states :: !sccs
        end
      end)
    members;
  Cr_obs.Obs.incr c_runs;
  Cr_obs.Obs.add c_admissible (List.length !sccs);
  { component; fair; sccs = List.rev !sccs }

let edge_on_fair_cycle analysis i j =
  analysis.fair.(i) && analysis.component.(i) = analysis.component.(j)
