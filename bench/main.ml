(* Benchmark and experiment harness.

   Regenerates every experiment table of DESIGN.md/EXPERIMENTS.md (the
   paper has no quantitative tables; its evaluation artifacts are theorems,
   lemmas and figures — each becomes a verdict table here), then runs
   Bechamel micro-benchmarks of the checker itself, one Test.make per
   table.

   Run with:  dune exec bench/main.exe
   (pass --no-micro to skip the Bechamel timing runs) *)

(* ---------- Bechamel micro-benchmarks ---------- *)

let pf = Format.printf

let hr title = pf "@.======== %s ========@." title



open Bechamel
open Toolkit

(* Measurement budget per test.  Sub-microsecond bodies need far more
   samples before the OLS fit stabilizes (the seed's E2-vm-step row sat
   at r^2 = 0.34 under the uniform half-second quota), and multi-ms
   bodies need a longer quota before they collect enough runs, so tests
   declare which budget they want. *)
type speed = Normal | Sub_micro | Slow

let micro_tests () =
  let n = 3 in
  let btr = Cr_guarded.Program.to_explicit (Cr_tokenring.Btr.program n) in
  let c1_prog = Cr_tokenring.Btr4.c1 n in
  let c1 = Cr_guarded.Program.to_explicit c1_prog in
  let alpha4 = Cr_semantics.Abstraction.tabulate (Cr_tokenring.Btr4.alpha n) c1 btr in
  let d3 = Cr_guarded.Program.to_explicit (Cr_tokenring.Btr3.dijkstra3 n) in
  let alpha3 = Cr_semantics.Abstraction.tabulate (Cr_tokenring.Btr3.alpha n) d3 btr in
  let d3_prog = Cr_tokenring.Btr3.dijkstra3 n in
  (* larger instances for the PR 6 kernel micros *)
  let btr_6 = Cr_guarded.Program.to_explicit (Cr_tokenring.Btr.program 6) in
  let d3_6 = Cr_guarded.Program.to_explicit (Cr_tokenring.Btr3.dijkstra3 6) in
  let alpha3_6 =
    Cr_semantics.Abstraction.tabulate (Cr_tokenring.Btr3.alpha 6) d3_6 btr_6
  in
  let d3_6_prog = Cr_tokenring.Btr3.dijkstra3 6 in
  let d3_7 = Cr_guarded.Program.to_explicit (Cr_tokenring.Btr3.dijkstra3 7) in
  let d3_7_csr = Cr_semantics.Explicit.csr d3_7 in
  let d3_7_inits = Cr_semantics.Explicit.initial_mask d3_7 in
  let btr_5 = Cr_guarded.Program.to_explicit (Cr_tokenring.Btr.program 5) in
  let d3_5 = Cr_guarded.Program.to_explicit (Cr_tokenring.Btr3.dijkstra3 5) in
  let alpha3_5 =
    Cr_semantics.Abstraction.tabulate (Cr_tokenring.Btr3.alpha 5) d3_5 btr_5
  in
  let daemon_seed = ref 0 in
  (* E17's read/write ring: the registry system with the smallest
     reachable ratio (288 of 177147 states at N = 3) — the head-to-head
     instance for the two Space engines *)
  let rw3_prog = Cr_tokenring.Rw_atomicity.program n in
  let space_refine space () =
    Cr_kernel.Memo.bypass (fun () ->
        let c = Cr_guarded.Program.to_explicit ~space rw3_prog in
        let tab =
          Cr_semantics.Abstraction.tabulate
            (Cr_tokenring.Rw_atomicity.alpha n) c btr
        in
        ignore (Cr_core.Refine.init_refinement ~alpha:tab ~c ~a:btr ()))
  in
  [
    (* one Test.make per experiment table *)
    ( Normal,
      Test.make ~name:"E1-fig1-verdicts"
        (Staged.stage (fun () -> ignore (Cr_experiments.Fig_exps.run ()))) );
    (* warm-path compile: after the first iteration this is a cache hit
       (fingerprint probe + re-target), the common case in the tables *)
    ( Normal,
      Test.make ~name:"E4-compile-btr-explicit"
        (Staged.stage (fun () ->
             ignore (Cr_guarded.Program.to_explicit (Cr_tokenring.Btr.program n)))) );
    (* the same compile with the cache bypassed: the true cold cost *)
    ( Normal,
      Test.make ~name:"E4-compile-btr-cold"
        (Staged.stage (fun () ->
             Cr_kernel.Memo.bypass (fun () ->
                 ignore
                   (Cr_guarded.Program.to_explicit (Cr_tokenring.Btr.program n))))) );
    (* guaranteed miss: insert into an emptied cache every iteration *)
    ( Normal,
      Test.make ~name:"compile-cache-miss"
        (Staged.stage (fun () ->
             Cr_guarded.Program.clear_compile_cache ();
             ignore (Cr_guarded.Program.to_explicit (Cr_tokenring.Btr.program n)))) );
    (* chunked compile on a ring big enough for the fan-out to matter
       (Dijkstra-3 at N = 7: 2187 states) — the compile column of the
       jobs-scaling matrix (sequential vs two vs four domains) *)
    ( Normal,
      Test.make ~name:"compile-seq-dijkstra3-n7"
        (Staged.stage (fun () ->
             Cr_kernel.Memo.bypass (fun () ->
                 ignore
                   (Cr_guarded.Program.to_explicit (Cr_tokenring.Btr3.dijkstra3 7))))) );
    ( Normal,
      Test.make ~name:"compile-par2-dijkstra3-n7"
        (Staged.stage (fun () ->
             Cr_kernel.Par.with_jobs 2 (fun () ->
                 Cr_kernel.Memo.bypass (fun () ->
                     ignore
                       (Cr_guarded.Program.to_explicit
                          (Cr_tokenring.Btr3.dijkstra3 7)))))) );
    ( Normal,
      Test.make ~name:"compile-par4-dijkstra3-n7"
        (Staged.stage (fun () ->
             Cr_kernel.Par.with_jobs 4 (fun () ->
                 Cr_kernel.Memo.bypass (fun () ->
                     ignore
                       (Cr_guarded.Program.to_explicit
                          (Cr_tokenring.Btr3.dijkstra3 7)))))) );
    (* warm hit on the same ring: the probe is capped at 256 sampled
       states, so the hit cost stays flat while the compile grows *)
    ( Normal,
      Test.make ~name:"compile-cache-hit-dijkstra3-n7"
        (Staged.stage (fun () ->
             ignore
               (Cr_guarded.Program.to_explicit (Cr_tokenring.Btr3.dijkstra3 7)))) );
    (* the two Space engines head-to-head: cold compiles with the cache
       bypassed, then the same engines end to end on an init-anchored
       query (compile + α tabulation + init-refinement verdict, every
       cache bypassed).  Dense must enumerate all 3^11 product states;
       sparse only the 288-state legitimate orbit. *)
    ( Slow,
      Test.make ~name:"space-dense-compile-rw-n3"
        (Staged.stage (fun () ->
             Cr_kernel.Memo.bypass (fun () ->
                 ignore
                   (Cr_guarded.Program.to_explicit
                      ~space:Cr_semantics.Space.Dense rw3_prog)))) );
    ( Normal,
      Test.make ~name:"space-sparse-compile-rw-n3"
        (Staged.stage (fun () ->
             Cr_kernel.Memo.bypass (fun () ->
                 ignore
                   (Cr_guarded.Program.to_explicit
                      ~space:Cr_semantics.Space.Sparse rw3_prog)))) );
    ( Slow,
      Test.make ~name:"space-dense-refine-rw-n3"
        (Staged.stage (space_refine Cr_semantics.Space.Dense)) );
    ( Normal,
      Test.make ~name:"space-sparse-refine-rw-n3"
        (Staged.stage (space_refine Cr_semantics.Space.Sparse)) );
    (* these three measure the actual check, so the verdict cache is
       bypassed (a warm hit is measured separately below) *)
    ( Normal,
      Test.make ~name:"E5-lemma7-convergence-check"
        (Staged.stage (fun () ->
             Cr_kernel.Memo.bypass (fun () ->
                 ignore
                   (Cr_core.Refine.convergence_refinement ~alpha:alpha4 ~c:c1
                      ~a:btr ())))) );
    ( Normal,
      Test.make ~name:"E6-thm8-stabilization-check"
        (Staged.stage (fun () ->
             Cr_kernel.Memo.bypass (fun () ->
                 ignore
                   (Cr_core.Stabilize.stabilizing_to ~alpha:alpha4 ~c:c1 ~a:btr
                      ())))) );
    ( Normal,
      Test.make ~name:"E8-thm11-stabilization-check"
        (Staged.stage (fun () ->
             Cr_kernel.Memo.bypass (fun () ->
                 ignore
                   (Cr_core.Stabilize.stabilizing_to ~alpha:alpha3 ~c:d3 ~a:btr
                      ())))) );
    (* edge classification on a ring big enough for the fan-out to
       matter (Dijkstra-3 at N = 6 against BTR at N = 6: 7290 edges) —
       the classify column of the jobs-scaling matrix: the same chunked
       sweep, batched BFS oracle and chunked resolve, run as one chunk
       vs fanned out over two and four domains on the warm pool *)
    ( Slow,
      Test.make ~name:"classify-seq-dijkstra3-n6"
        (Staged.stage (fun () ->
             ignore (Cr_core.Refine.classify ~alpha:alpha3_6 ~c:d3_6 ~a:btr_6))) );
    ( Slow,
      Test.make ~name:"classify-par2-dijkstra3-n6"
        (Staged.stage (fun () ->
             Cr_kernel.Par.with_jobs 2 (fun () ->
                 ignore
                   (Cr_core.Refine.classify ~alpha:alpha3_6 ~c:d3_6 ~a:btr_6)))) );
    ( Slow,
      Test.make ~name:"classify-par4-dijkstra3-n6"
        (Staged.stage (fun () ->
             Cr_kernel.Par.with_jobs 4 (fun () ->
                 ignore
                   (Cr_core.Refine.classify ~alpha:alpha3_6 ~c:d3_6 ~a:btr_6)))) );
    (* full stabilization check at the same size (bad-seed sweep +
       backward reach + convergence stair) — the stabilize column of the
       jobs-scaling matrix; the verdict cache is bypassed so every
       iteration runs the checker *)
    ( Slow,
      Test.make ~name:"stabilize-sweep-seq-dijkstra3-n6"
        (Staged.stage (fun () ->
             Cr_kernel.Memo.bypass (fun () ->
                 ignore
                   (Cr_core.Stabilize.stabilizing_to ~alpha:alpha3_6 ~c:d3_6
                      ~a:btr_6 ())))) );
    ( Slow,
      Test.make ~name:"stabilize-sweep-par2-dijkstra3-n6"
        (Staged.stage (fun () ->
             Cr_kernel.Par.with_jobs 2 (fun () ->
                 Cr_kernel.Memo.bypass (fun () ->
                     ignore
                       (Cr_core.Stabilize.stabilizing_to ~alpha:alpha3_6
                          ~c:d3_6 ~a:btr_6 ()))))) );
    ( Slow,
      Test.make ~name:"stabilize-sweep-par4-dijkstra3-n6"
        (Staged.stage (fun () ->
             Cr_kernel.Par.with_jobs 4 (fun () ->
                 Cr_kernel.Memo.bypass (fun () ->
                     ignore
                       (Cr_core.Stabilize.stabilizing_to ~alpha:alpha3_6
                          ~c:d3_6 ~a:btr_6 ()))))) );
    (* forward reachability over the system's stored CSR graph *)
    ( Normal,
      Test.make ~name:"reach-csr-dijkstra3-n7"
        (Staged.stage (fun () ->
             ignore
               (Cr_checker.Reach.forward ~succ:d3_7_csr ~seeds:d3_7_inits))) );
    (* verdict cache: the true cold check vs a warm hit on the same key *)
    ( Normal,
      Test.make ~name:"verdict-cold-stabilize-d3-n5"
        (Staged.stage (fun () ->
             Cr_kernel.Memo.bypass (fun () ->
                 ignore
                   (Cr_core.Stabilize.stabilizing_to ~alpha:alpha3_5 ~c:d3_5
                      ~a:btr_5 ())))) );
    ( Sub_micro,
      Test.make ~name:"verdict-warm-stabilize-d3-n5"
        (Staged.stage (fun () ->
             ignore
               (Cr_core.Stabilize.stabilizing_to ~alpha:alpha3_5 ~c:d3_5
                  ~a:btr_5 ()))) );
    (* lint v1 (exact battery alone) vs lint v2 (flow engine feeding the
       exact battery through the init-dead pre-filter) on the same ring,
       plus the abstract interpreter on its own — the exact-vs-flow
       audit-cost comparison of the PR 8 artifact *)
    ( Slow,
      Test.make ~name:"lint-exact-dijkstra3-n6"
        (Staged.stage (fun () -> ignore (Cr_lint.Lint.run d3_6_prog))) );
    ( Slow,
      Test.make ~name:"lint-v2-dijkstra3-n6"
        (Staged.stage (fun () -> ignore (Cr_flow.Flow.lint d3_6_prog))) );
    ( Slow,
      Test.make ~name:"flow-analyze-dijkstra3-n6"
        (Staged.stage (fun () -> ignore (Cr_flow.Flow.analyze d3_6_prog))) );
    ( Normal,
      Test.make ~name:"E14-recovery-episode"
        (Staged.stage (fun () ->
             incr daemon_seed;
             let d = Cr_sim.Daemon.random ~seed:!daemon_seed in
             let rng = Random.State.make [| !daemon_seed |] in
             let s0 =
               Cr_fault.Injector.randomize ~rng (Cr_guarded.Program.layout d3_prog)
             in
             ignore
               (Cr_sim.Runner.steps_to
                  ~converged:(Cr_tokenring.Btr3.one_token n)
                  d d3_prog ~start:s0 ~max_steps:10_000))) );
    ( Sub_micro,
      Test.make ~name:"E2-vm-step"
        (Staged.stage
           (let cfg = Cr_vm.Source.machine_config in
            let s0 = Cr_vm.Machine.initial_state cfg in
            fun () -> ignore (Cr_vm.Machine.step cfg s0))) );
    ( Sub_micro,
      Test.make ~name:"E3-bidding-bid"
        (Staged.stage
           (let s = Cr_bidding.Spec.of_list ~k:8 [ 1; 2; 3; 4; 5; 6; 7; 8 ] in
            fun () -> ignore (Cr_bidding.Spec.bid 5 s))) );
  ]

(* A fit this poor means the ns/run column is noise-dominated; the row is
   kept but marked, in the table and in the JSON artifact. *)
let low_r2 = function
  | Some r2 when Float.is_finite r2 -> r2 < 0.9
  | Some _ | None -> true

(* Rows that stayed [low_r2] in BENCH_PR8 even after the adaptive
   reruns: their retries escalate on a steeper quota ladder (6x per
   attempt instead of 4x) so the final attempt has a real chance to
   stabilize before the row ships flagged. *)
let boosted_rows = [ "classify-seq-dijkstra3-n6"; "E14-recovery-episode" ]

(* Measurement budget for attempt [k] of a test (0 = first run): each
   retry multiplies the time quota (4x; 6x for the [boosted_rows]) so
   the OLS fit gets more, and more widely spread, sample sizes.  The
   sample cap scales more gently — the quota, not the cap, is what noisy
   rows were exhausting. *)
let cfg_for ?(boost = false) speed attempt =
  let ladder = if boost then 6. else 4. in
  let quota base = Time.second (base *. (ladder ** float_of_int attempt)) in
  match speed with
  | Normal ->
      Benchmark.cfg ~limit:(2000 * (attempt + 1)) ~quota:(quota 0.5) ~kde:None ()
  | Sub_micro ->
      Benchmark.cfg ~limit:(20000 * (attempt + 1)) ~quota:(quota 3.0) ~kde:None
        ()
  | Slow -> Benchmark.cfg ~limit:2000 ~quota:(quota 3.0) ~kde:None ()

let max_retries = 2

(* Run the micro-benchmarks and return one row per test, sorted by name
   (the raw [Analyze.all] result is a [Hashtbl], whose iteration order is
   nondeterministic).  A row whose fit comes back below the r^2 threshold
   is re-measured at escalated budgets (up to [max_retries] times) and
   the best-r^2 attempt is kept, so a row ships as [low_r2] only after
   the widened budget also failed to stabilize it. *)
let run_micro () =
  let tests = micro_tests () in
  (* The table sweep above leaves every compiled system up to N = 7 (and
     the 117k-state K-state ring) live in the compile cache; with that
     much live data Bechamel's GC stabilization is so slow that the fast
     tests burn their whole quota inside it and come back as
     single-sample (r^2-less) fits.  Drop the cache and compact: the
     micro tests re-warm the few small entries they need. *)
  Cr_guarded.Program.clear_compile_cache ();
  Cr_core.Check_cache.clear_all ();
  Gc.compact ();
  let instance = Instance.monotonic_clock in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let measure ?boost speed attempt test =
    let results = Benchmark.all (cfg_for ?boost speed attempt) [ instance ] test in
    let analysis = Analyze.all ols instance results in
    let row = ref None in
    Hashtbl.iter
      (fun name ols_result ->
        let est =
          match Analyze.OLS.estimates ols_result with
          | Some (e :: _) -> Some e
          | _ -> None
        in
        row := Some (name, est, Analyze.OLS.r_square ols_result))
      analysis;
    !row
  in
  let better a b =
    (* prefer the attempt whose fit explains more of the variance *)
    match (a, b) with
    | (_, _, Some ra), (_, _, Some rb) -> if rb > ra then b else a
    | (_, _, None), (_, _, Some _) -> b
    | _ -> a
  in
  let rows = ref [] in
  List.iter
    (fun (speed, test) ->
      match measure speed 0 test with
      | None -> ()
      | Some first ->
          let best = ref first and retries = ref 0 in
          let boost =
            let name, _, _ = first in
            List.mem name boosted_rows
          in
          while
            (let _, _, r2 = !best in
             low_r2 r2)
            && !retries < max_retries
          do
            incr retries;
            match measure ~boost speed !retries test with
            | Some attempt -> best := better !best attempt
            | None -> ()
          done;
          let name, est, r2 = !best in
          rows := (name, est, r2, !retries) :: !rows)
    tests;
  List.sort (fun (a, _, _, _) (b, _, _, _) -> String.compare a b) !rows

let print_micro rows =
  hr "Checker micro-benchmarks (Bechamel, monotonic clock)";
  pf "%-32s %-16s %-10s %s@." "benchmark" "ns/run" "r^2" "retries";
  List.iter
    (fun (name, est, r2, retries) ->
      let fmt_opt f = function Some v -> Fmt.str f v | None -> "-" in
      pf "%-32s %-16s %-10s %d%s@." name
        (fmt_opt "%.1f" est)
        (fmt_opt "%.4f" r2)
        retries
        (if low_r2 r2 then "  (*)" else ""))
    rows;
  if List.exists (fun (_, _, r2, _) -> low_r2 r2) rows then
    pf "(*) r^2 < 0.9 even after escalated re-runs: OLS fit is \
        noise-dominated; read ns/run with care@."

(* ---------- per-N wall-clock of the full table sweep ---------- *)

(* Run [f] with stdout discarded (the tables are timed, not shown twice).
   Redirection happens at the file-descriptor level: once a domain has
   been spawned, Format's std_formatter writes through a domain-local
   buffer straight to [Stdlib.stdout], so swapping the formatter's
   out-functions would no longer intercept anything. *)
let silently f =
  flush stdout;
  Format.print_flush ();
  let saved = Unix.dup Unix.stdout in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  Unix.dup2 devnull Unix.stdout;
  Unix.close devnull;
  Fun.protect
    ~finally:(fun () ->
      flush stdout;
      Format.print_flush ();
      Unix.dup2 saved Unix.stdout;
      Unix.close saved)
    f

(* Seconds of one table sweep at ring size [n], on Bechamel's monotonic
   clock: one untimed warm-up, then the median of 5 timed sweeps.  Both
   caches are emptied before every sweep, so each sample pays for its
   compiles and verdicts instead of replaying the previous sweep's. *)
let time_report_per_n ns =
  let sweep n =
    Cr_guarded.Program.clear_compile_cache ();
    Cr_core.Check_cache.clear_all ();
    let t0 = Toolkit.Monotonic_clock.get () in
    silently (fun () -> Cr_experiments.Report.all ~ns:[ n ] ());
    (Toolkit.Monotonic_clock.get () -. t0) /. 1e9
  in
  List.map
    (fun n ->
      ignore (sweep n);
      let samples = Array.init 5 (fun _ -> sweep n) in
      Array.sort Float.compare samples;
      (n, samples.(2)))
    ns

(* ---------- JSON output (hand-rolled; keep the repo dependency-free) ---------- *)

let json_of_float_opt = function
  | Some v when Float.is_finite v -> Printf.sprintf "%.4f" v
  | Some _ | None -> "null"

(* Process-wide resolved revision, shared with the journal stamps and
   the crcheck artifact headers. *)
let git_rev () = Cr_obs.Journal.git_rev ()

(* Merged telemetry counters for the JSON artifact.  When CR_STATS/CR_TRACE
   are unset the timed runs above executed with collection disabled (so the
   micro numbers are unperturbed); collect from a separate silent small
   sweep instead. *)
let counters_snapshot () =
  if not (Cr_obs.Obs.tracking ()) then begin
    Cr_obs.Obs.force_collect ();
    silently (fun () -> Cr_experiments.Report.all ~ns:[ 2 ] ())
  end;
  (Cr_obs.Obs.merged_snapshot (), Cr_obs.Obs.merged_histograms ())

let write_json path micro report_wall =
  let counters, hists = counters_snapshot () in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf
    (Printf.sprintf "  \"git_rev\": %S,\n  \"cr_jobs\": %d,\n" (git_rev ())
       (Cr_kernel.Par.jobs_env ()));
  Buffer.add_string buf "  \"micro\": [\n";
  List.iteri
    (fun i (name, est, r2, retries) ->
      Buffer.add_string buf
        (Printf.sprintf
           "    {\"name\": %S, \"ns_per_run\": %s, \"r2\": %s, \"low_r2\": %b, \
            \"retries\": %d}%s\n"
           name
           (json_of_float_opt est)
           (json_of_float_opt r2)
           (low_r2 r2) retries
           (if i = List.length micro - 1 then "" else ",")))
    micro;
  Buffer.add_string buf "  ],\n  \"report_all_wall_s\": [\n";
  List.iteri
    (fun i (n, secs) ->
      Buffer.add_string buf
        (Printf.sprintf "    {\"n\": %d, \"seconds\": %.3f}%s\n" n secs
           (if i = List.length report_wall - 1 then "" else ",")))
    report_wall;
  Buffer.add_string buf "  ],\n  \"counters\": {\n";
  List.iteri
    (fun i (name, v) ->
      Buffer.add_string buf
        (Printf.sprintf "    %S: %d%s\n" name v
           (if i = List.length counters - 1 then "" else ",")))
    counters;
  Buffer.add_string buf "  },\n  \"hists\": {\n";
  List.iteri
    (fun i (name, (h : Cr_obs.Obs.hstats)) ->
      Buffer.add_string buf
        (Printf.sprintf
           "    %S: {\"count\": %d, \"mean\": %.1f, \"p50\": %d, \"p90\": %d, \
            \"p99\": %d, \"max\": %d}%s\n"
           name h.count (Cr_obs.Obs.mean h)
           (Cr_obs.Obs.quantile h 0.5)
           (Cr_obs.Obs.quantile h 0.9)
           (Cr_obs.Obs.quantile h 0.99)
           h.max_value
           (if i = List.length hists - 1 then "" else ",")))
    hists;
  Buffer.add_string buf "  }\n}\n";
  let oc = open_out path in
  output_string oc (Buffer.contents buf);
  close_out oc;
  pf "wrote %s@." path

(* Accept [--json PATH] or [--json=PATH] anywhere on the command line;
   reject a missing path (end of argv, or a following flag) instead of
   silently skipping the artifact. *)
let parse_json_path argv =
  let usage () =
    prerr_endline "bench: --json requires a path (--json PATH or --json=PATH)";
    exit 2
  in
  let is_flag a = String.length a >= 2 && String.sub a 0 2 = "--" in
  let rec find = function
    | [] -> None
    | [ "--json" ] -> usage ()
    | "--json" :: path :: _ -> if is_flag path then usage () else Some path
    | arg :: _ when String.starts_with ~prefix:"--json=" arg ->
        let p = String.sub arg 7 (String.length arg - 7) in
        if p = "" then usage () else Some p
    | _ :: rest -> find rest
  in
  find (List.tl (Array.to_list argv))

let () =
  let skip_micro = Array.exists (fun a -> a = "--no-micro") Sys.argv in
  let json_path = parse_json_path Sys.argv in
  Cr_experiments.Report.all ~ns:[ 2; 3; 4; 5 ]
    ~ns_direct:[ 2; 3; 4; 5; 6; 7; 8 ]
    ~ns_kstate:[ 2; 3; 4; 5; 6 ] ();
  let micro = if skip_micro then [] else run_micro () in
  if not skip_micro then print_micro micro;
  (match json_path with
  | None -> ()
  | Some path ->
      let wall = time_report_per_n [ 2; 3; 4; 5 ] in
      write_json path micro wall);
  pf "@.done.@."
