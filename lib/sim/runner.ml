(* Trace execution and convergence measurement under explicit daemons. *)

open Cr_guarded

type trace_entry = { action : string; state : Layout.state }

type trace = { start : Layout.state; steps : trace_entry list }

let run (d : Daemon.t) (p : Program.t) ~(start : Layout.state) ~(max_steps : int)
    : trace =
  let rec go acc s k =
    if k >= max_steps then List.rev acc
    else
      match Daemon.step d p s with
      | None -> List.rev acc
      | Some (a, s') -> go ({ action = Action.label a; state = s' } :: acc) s' (k + 1)
  in
  { start; steps = go [] start 0 }

(* Number of daemon steps until [converged] first holds (and remains to be
   checked by the caller); [None] when the bound is hit first. *)
let steps_to ~(converged : Layout.state -> bool) (d : Daemon.t) (p : Program.t)
    ~(start : Layout.state) ~(max_steps : int) : int option =
  let rec go s k =
    if converged s then Some k
    else if k >= max_steps then None
    else
      match Daemon.step d p s with
      | None -> if converged s then Some k else None
      | Some (_, s') -> go s' (k + 1)
  in
  go start 0

type stats = {
  samples : int;
  converged : int;  (* runs that reached the predicate within the bound *)
  mean_steps : float;  (* over converged runs *)
  max_steps_observed : int;
  min_steps_observed : int;
}

(* With zero converged runs there is no step distribution: mean is NaN
   and min/max carry sentinel values, so print "-" instead of garbage. *)
let pp_stats fmt s =
  if s.converged = 0 then
    Fmt.pf fmt "%d/%d converged, steps mean - min - max -" s.converged
      s.samples
  else
    Fmt.pf fmt "%d/%d converged, steps mean %.1f min %d max %d" s.converged
      s.samples s.mean_steps s.min_steps_observed s.max_steps_observed

let c_episodes = Cr_obs.Obs.counter "runner.episodes"
let c_converged = Cr_obs.Obs.counter "runner.converged"
let c_steps_total = Cr_obs.Obs.counter "runner.steps_total"

(* The convergence-episode length distribution (steps of each converged
   episode).  Observed on the calling domain in sample order after the
   fan-out returns, so the merged histogram depends only on the episode
   multiset — identical for every CR_JOBS. *)
let h_episode_steps = Cr_obs.Obs.histogram "runner.episode_steps"

(* Monte-Carlo convergence statistics from random corrupted states. *)
let convergence_stats ?(samples = 200) ?(max_steps = 100_000) ~seed
    ~(converged : Layout.state -> bool) (mk_daemon : int -> Daemon.t)
    (p : Program.t) : stats =
  Cr_obs.Obs.span "runner.convergence_stats" @@ fun () ->
  let rng = Random.State.make [| seed |] in
  let layout = Program.layout p in
  let random_state () =
    Array.init (Layout.num_vars layout) (fun i ->
        Random.State.int rng (Layout.dom layout i))
  in
  (* Episodes are seeded sequentially (one daemon and one start state per
     sample, in sample order) so the random draws never depend on the job
     count; only the independent runs fan out across domains. *)
  let episodes =
    Array.init samples (fun i -> (mk_daemon (i + 1), random_state ()))
  in
  let outcomes =
    Cr_kernel.Par.map_array
      (fun (d, start) -> steps_to ~converged d p ~start ~max_steps)
      episodes
  in
  let conv = ref 0 and total = ref 0 in
  let maxi = ref 0 and mini = ref max_int in
  Array.iter
    (function
      | Some k ->
          incr conv;
          total := !total + k;
          if k > !maxi then maxi := k;
          if k < !mini then mini := k;
          Cr_obs.Obs.observe h_episode_steps k
      | None -> ())
    outcomes;
  if Cr_obs.Obs.tracking () then begin
    Cr_obs.Obs.add c_episodes samples;
    Cr_obs.Obs.add c_converged !conv;
    Cr_obs.Obs.add c_steps_total !total;
    Cr_obs.Obs.event "runner.episodes"
      [
        ("program", Cr_obs.Obs.S (Program.name p));
        ("samples", Cr_obs.Obs.I samples);
        ("converged", Cr_obs.Obs.I !conv);
        ("steps_total", Cr_obs.Obs.I !total);
        ("max_steps_observed", Cr_obs.Obs.I !maxi);
      ]
  end;
  {
    samples;
    converged = !conv;
    mean_steps =
      (if !conv = 0 then nan else float_of_int !total /. float_of_int !conv);
    max_steps_observed = !maxi;
    min_steps_observed = (if !conv = 0 then 0 else !mini);
  }

let pp_trace ?(limit = 30) (p : Program.t) fmt (t : trace) =
  let layout = Program.layout p in
  Fmt.pf fmt "@[<v>start  %a@," (Layout.pp_state layout) t.start;
  List.iteri
    (fun i e ->
      if i < limit then
        Fmt.pf fmt "%-6s %a@," e.action (Layout.pp_state layout) e.state)
    t.steps;
  if List.length t.steps > limit then
    Fmt.pf fmt "... (%d more steps)@," (List.length t.steps - limit);
  Fmt.pf fmt "@]"
