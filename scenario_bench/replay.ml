(* In-process replay of a workload's queries: the calls crcheck makes
   into each layer's public functions, each wrapped in a bench-side
   span.  Work crcheck repeats (refine builds its program, and so its
   init closure, twice) is replayed once, so it lands in
   crcheck.unattributed_s rather than in a layer. *)

open Cr_guarded
module Registry = Cr_experiments.Registry
module Explicit = Cr_semantics.Explicit
module Stabilize = Cr_core.Stabilize
module Refine = Cr_core.Refine

let pf = Format.printf

(* Every layer call the replay times, as span names; metric
   [<name>_s] is a layer's summed time over a workload's queries. *)
let layers =
  [
    "guarded.init_closure";
    "semantics.compile";
    "semantics.compile_spec";
    "semantics.alpha";
    "core.refine";
    "checker.reach";
    "core.stabilize";
    "sim.fair_tables";
    "core.stabilize_fair";
    "experiments.report";
    "lint.audit";
    "flow.audit";
  ]

type span = { name : string; start : float; dur : float }

let recorded : span list ref = ref []

let span name f =
  let start = Stats.now () in
  let r = f () in
  recorded := { name; start; dur = Stats.now () -. start } :: !recorded;
  r

let entry sys =
  match Registry.find sys with
  | Some e -> e
  | None -> invalid_arg ("unknown registry system " ^ sys)

(* The first [Program.initial] application forces a
   [with_initial_closure] program's lazy reachability closure. *)
let force_initial p =
  span "guarded.init_closure" (fun () ->
      ignore (Program.initial p (Layout.unrank (Program.layout p) 0)))

(* Sizes of the concrete compile a query makes (zero when the bench
   makes none): states, transitions, initial states, and the distinct
   [Hashtbl.hash] values among the initial states. *)
type facts = { states : int; transitions : int; init_states : int; init_hashes : int }

let no_facts = { states = 0; transitions = 0; init_states = 0; init_hashes = 0 }

let facts ep =
  let init = Explicit.initials ep in
  let h = Hashtbl.create 64 in
  Array.iter (fun i -> Hashtbl.replace h (Hashtbl.hash (Explicit.state ep i)) ()) init;
  {
    states = Explicit.num_states ep;
    transitions = Explicit.num_transitions ep;
    init_states = Array.length init;
    init_hashes = Hashtbl.length h;
  }

(* Replay one query; returns (exit code, facts) and prints the verdict
   lines the known-answer table checks. *)
let replay (kind : Workloads.kind) =
  match kind with
  | Refine (sys, n) ->
      let e = entry sys in
      let p = e.program n in
      force_initial p;
      let ep =
        span "semantics.compile" (fun () ->
            Program.to_explicit ~space:Cr_semantics.Space.Sparse p)
      in
      let spec = span "semantics.compile_spec" (fun () -> Program.to_explicit (e.spec n)) in
      let alpha =
        span "semantics.alpha" (fun () ->
            Cr_semantics.Abstraction.tabulate (e.alpha n) ep spec)
      in
      let reports =
        span "core.refine" (fun () ->
            [
              ("init", Refine.init_refinement ~alpha ~c:ep ~a:spec ());
              ("everywhere", Refine.everywhere_refinement ~alpha ~c:ep ~a:spec ());
              ("convergence", Refine.convergence_refinement ~alpha ~c:ep ~a:spec ());
              ("ee", Refine.everywhere_eventually_refinement ~alpha ~c:ep ~a:spec ());
            ])
      in
      List.iter (fun (l, r) -> pf "%-14s %a@." l Refine.pp_report r) reports;
      ignore (span "checker.reach" (fun () -> Cr_checker.Reach.reachable_from_initial ep));
      ((if (List.assoc "convergence" reports).Refine.holds then 0 else 1), facts ep)
  | Verify (sys, n) ->
      let e = entry sys in
      let p = e.program n in
      force_initial p;
      let ep = span "semantics.compile" (fun () -> Program.to_explicit p) in
      let spec = span "semantics.compile_spec" (fun () -> Program.to_explicit (e.spec n)) in
      let alpha =
        span "semantics.alpha" (fun () ->
            Cr_semantics.Abstraction.tabulate (e.alpha n) ep spec)
      in
      let r =
        span "core.stabilize" (fun () -> Stabilize.stabilizing_to ~alpha ~c:ep ~a:spec ())
      in
      pf "%a@." Stabilize.pp_report r;
      if not r.Stabilize.holds then begin
        let fair = span "sim.fair_tables" (fun () -> Cr_sim.Glue.fair_tables p ep) in
        let rf =
          span "core.stabilize_fair" (fun () ->
              Stabilize.stabilizing_to ~alpha ~fair ~c:ep ~a:spec ())
        in
        pf "under a weakly fair daemon: %s@."
          (if rf.Stabilize.holds then "stabilizing" else "still not stabilizing")
      end;
      ((if r.Stabilize.holds then 0 else 1), facts ep)
  | Experiments m ->
      span "experiments.report" (fun () ->
          Cr_experiments.Report.all ~ns:(List.init (m - 1) (fun i -> i + 2)) ());
      (0, no_facts)
  | Lint n ->
      let module L = Cr_experiments.Lint_exps in
      let rows = span "lint.audit" (fun () -> L.audit ~n ()) in
      let findings =
        List.fold_left
          (fun acc r -> acc + List.length r.L.report.Cr_lint.Lint.findings)
          0 rows
      in
      let errors = L.total_errors rows in
      pf "lint: %d system(s), %d finding(s), %d error(s)@." (List.length rows) findings
        errors;
      ((if errors > 0 then 1 else 0), no_facts)
  | Flow n ->
      let module F = Cr_experiments.Flow_exps in
      let rows = span "flow.audit" (fun () -> F.audit ~n ()) in
      let findings =
        List.fold_left
          (fun acc r -> acc + List.length r.F.flow.Cr_flow.Flow.findings)
          0 rows
      in
      let errors = F.total_errors rows in
      pf "flow: %d system(s), %d finding(s), %d error(s)@." (List.length rows) findings
        errors;
      ((if errors > 0 then 1 else 0), no_facts)

type query_run = {
  label : string;
  q_start : float;
  q_dur : float;
  spans : span list;  (** layer calls, in call order *)
  code : int;  (** the exit code crcheck would return *)
  output : string;  (** what the replay printed *)
  facts : facts;
}

(* Run [f] with stdout redirected, at the file-descriptor level, to
   [file]; return its result and what it printed. *)
let captured ~file f =
  flush stdout;
  Format.print_flush ();
  let saved = Unix.dup Unix.stdout in
  let fd = Unix.openfile file [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  Unix.dup2 fd Unix.stdout;
  Unix.close fd;
  let r =
    Fun.protect
      ~finally:(fun () ->
        flush stdout;
        Format.print_flush ();
        Unix.dup2 saved Unix.stdout;
        Unix.close saved)
      f
  in
  (r, In_channel.with_open_bin file In_channel.input_all)

(* Replay one query from cold caches: both process-wide memo tables are
   emptied first, as in a fresh crcheck process. *)
let run_query ~scratch (q : Workloads.query) =
  Program.clear_compile_cache ();
  Cr_core.Check_cache.clear_all ();
  recorded := [];
  let q_start = Stats.now () in
  let (code, facts), output = captured ~file:scratch (fun () -> replay q.kind) in
  let q_dur = Stats.now () -. q_start in
  { label = Workloads.label q; q_start; q_dur; spans = List.rev !recorded; code; output; facts }
