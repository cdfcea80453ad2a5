(* Telemetry (Cr_obs) tests: deterministic counter merging under the
   CR_JOBS fan-out, span nesting discipline, Chrome-trace export, the
   bundled JSON recognizer, and the stats-carrying verdicts. *)

module Obs = Cr_obs.Obs

let check = Alcotest.(check bool)

(* Run [f] with stdout redirected to a scratch file (same fd-level
   trick as test_checker: formatter-level swapping misses output from
   spawned domains). *)
let silently f =
  let tmp = Filename.temp_file "cr_obs" ".out" in
  let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  flush stdout;
  Format.print_flush ();
  let saved = Unix.dup Unix.stdout in
  Unix.dup2 fd Unix.stdout;
  Unix.close fd;
  Fun.protect
    ~finally:(fun () ->
      flush stdout;
      Format.print_flush ();
      Unix.dup2 saved Unix.stdout;
      Unix.close saved;
      Sys.remove tmp)
    f

(* ---------- merged counters are CR_JOBS-invariant ---------- *)

(* The [par.pool.*]/[par.task.*] counters describe work *placement*
   (how many workers, how many fan-outs) — legitimately jobs-dependent,
   like the pool journal events.  The invariance contract covers the
   checker-decision counters. *)
let placement_counter name =
  String.length name >= 4 && String.sub name 0 4 = "par."

(* lift the pool's busy-domain cap so CR_JOBS > 1 really fans out across
   domains on a single-core host — the merge invariance being tested *)
let () = Unix.putenv "CR_PAR_CAP" "8"

let merged_after_report ~jobs =
  Unix.putenv "CR_JOBS" (string_of_int jobs);
  (* force process-lifetime lazies (the Fig1 graphs compile once per
     process, on first use) before the measured window — first-call
     memoization is orthogonal to the job count being varied *)
  ignore (Cr_experiments.Fig_exps.fig1_a ());
  ignore (Cr_experiments.Fig_exps.fig1_c ());
  Obs.reset ();
  Obs.force_collect ();
  silently (fun () -> Cr_experiments.Report.all ());
  let snap =
    List.filter (fun (name, _) -> not (placement_counter name))
      (Obs.merged_snapshot ())
  in
  Unix.putenv "CR_JOBS" "1";
  snap

let prop_counters_jobs_invariant =
  QCheck2.Test.make ~name:"merged counters invariant under CR_JOBS" ~count:3
    QCheck2.Gen.(int_range 2 6)
    (fun jobs ->
      let seq = merged_after_report ~jobs:1 in
      let par = merged_after_report ~jobs in
      if seq <> par then
        QCheck2.Test.fail_reportf "CR_JOBS=1 vs CR_JOBS=%d:@.%a@.vs@.%a" jobs
          Obs.pp_snapshot seq Obs.pp_snapshot par
      else true)

(* ---------- histogram bucketing and quantiles ---------- *)

let h_test = Obs.histogram "test.hist"

let test_histogram_basics () =
  Obs.reset ();
  Obs.force_collect ();
  List.iter (Obs.observe h_test) [ 0; 1; 1; 2; 3; 7; 1000; -5 ];
  let stats =
    match List.assoc_opt "test.hist" (Obs.merged_histograms ()) with
    | Some h -> h
    | None -> Alcotest.fail "test.hist not in merged_histograms"
  in
  Alcotest.(check int) "count" 8 stats.Obs.count;
  (* the -5 observation clamps to 0 *)
  Alcotest.(check int) "total" 1014 stats.Obs.total;
  Alcotest.(check int) "max exact" 1000 stats.Obs.max_value;
  (* 4th of 8 sorted obs (0,0,1,1,2,3,7,1000) is 1: p50 lands in the
     [1,1] bucket whose upper bound is 1 *)
  Alcotest.(check int) "p50" 1 (Obs.quantile stats 0.5);
  (* p99 quantizes to the top bucket but clamps to the exact max *)
  Alcotest.(check int) "p99 clamps to max" 1000 (Obs.quantile stats 0.99);
  Alcotest.(check (float 0.001)) "mean" 126.75 (Obs.mean stats)

(* ---------- merged histograms are CR_JOBS-invariant ---------- *)

(* Duration histograms ([*_us] names) record wall-clock and are
   legitimately schedule-dependent; the invariance contract covers the
   value-shaped ones (episode lengths etc.). *)
let value_histograms hs =
  List.filter
    (fun (name, _) -> not (Filename.check_suffix name "_us"))
    hs

let hists_after_report ~jobs =
  Unix.putenv "CR_JOBS" (string_of_int jobs);
  Obs.reset ();
  Obs.force_collect ();
  silently (fun () -> Cr_experiments.Report.all ~ns:[ 2; 3 ] ());
  let hs = value_histograms (Obs.merged_histograms ()) in
  Unix.putenv "CR_JOBS" "1";
  hs

let prop_hists_jobs_invariant =
  QCheck2.Test.make ~name:"merged histograms invariant under CR_JOBS"
    ~count:2
    QCheck2.Gen.(oneofl [ 2; 4 ])
    (fun jobs ->
      let seq = hists_after_report ~jobs:1 in
      let par = hists_after_report ~jobs in
      if seq <> par then
        QCheck2.Test.fail_reportf "CR_JOBS=1 vs CR_JOBS=%d:@.%a@.vs@.%a" jobs
          Obs.pp_histograms seq Obs.pp_histograms par
      else if seq = [] then
        QCheck2.Test.fail_reportf
          "no value-shaped histograms recorded; invariance check is vacuous"
      else true)

(* ---------- span nesting is well-formed ---------- *)

(* On each domain the recorded spans must form a laminar family: any two
   intervals are disjoint or one contains the other (spans only close in
   LIFO order). *)
let spans_laminar evs =
  let by_tid = Hashtbl.create 8 in
  List.iter
    (fun (e : Obs.span_event) ->
      Hashtbl.replace by_tid e.tid (e :: (try Hashtbl.find by_tid e.tid with Not_found -> [])))
    evs;
  Hashtbl.fold
    (fun _tid es ok ->
      ok
      && List.for_all
           (fun (a : Obs.span_event) ->
             List.for_all
               (fun (b : Obs.span_event) ->
                 let a0 = a.ts_us and a1 = a.ts_us +. a.dur_us in
                 let b0 = b.ts_us and b1 = b.ts_us +. b.dur_us in
                 (* partial overlap is the only forbidden shape *)
                 not (a0 < b0 && b0 < a1 && a1 < b1))
               es)
           es)
    by_tid true

let test_span_nesting () =
  Obs.reset ();
  Obs.force_collect ();
  silently (fun () -> Cr_experiments.Report.all ~ns:[ 2; 3 ] ());
  let evs = Obs.events () in
  check "recorded some spans" true (List.length evs > 10);
  check "per-domain spans are properly nested" true (spans_laminar evs);
  (* depth really reflects nesting: some span must sit inside another *)
  check "nested spans observed" true
    (List.exists (fun (e : Obs.span_event) -> e.depth > 0) evs)

(* ---------- trace export parses ---------- *)

let test_trace_json () =
  Obs.reset ();
  Obs.force_collect ();
  silently (fun () -> Cr_experiments.Report.all ~ns:[ 2 ] ());
  let tmp = Filename.temp_file "cr_obs" ".trace" in
  Obs.write_trace tmp;
  (match Cr_obs.Json_check.validate_file tmp with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "trace is not valid JSON: %s" msg);
  let ic = open_in_bin tmp in
  let body = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove tmp;
  check "trace is non-empty" true (String.length body > 0);
  let contains needle =
    let n = String.length needle and h = String.length body in
    let rec go i = i + n <= h && (String.sub body i n = needle || go (i + 1)) in
    go 0
  in
  check "has complete (X) events" true (contains "\"ph\":\"X\"");
  check "has thread metadata" true (contains "thread_name")

(* ---------- JSON recognizer ---------- *)

let test_json_check () =
  let ok s =
    check (Printf.sprintf "accepts %S" s) true
      (Cr_obs.Json_check.validate_string s = Ok ())
  in
  let bad s =
    check (Printf.sprintf "rejects %S" s) true
      (Result.is_error (Cr_obs.Json_check.validate_string s))
  in
  ok "[]";
  ok "{}";
  ok "  {\"a\": [1, -2.5e3, true, false, null, \"x\\n\\u0041\"]} ";
  ok "[[[]]]";
  bad "";
  bad "{";
  bad "[1,]";
  bad "{\"a\":}";
  bad "{\"a\" 1}";
  bad "tru";
  bad "1.2.3";
  bad "\"\\x\"";
  bad "[] []"

(* ---------- stats-carrying verdicts ---------- *)

let test_verdict_cost () =
  Obs.reset ();
  Obs.force_collect ();
  let n = 2 in
  let btr = Cr_guarded.Program.to_explicit (Cr_tokenring.Btr.program n) in
  let d3 = Cr_guarded.Program.to_explicit (Cr_tokenring.Btr3.dijkstra3 n) in
  let alpha =
    Cr_semantics.Abstraction.tabulate (Cr_tokenring.Btr3.alpha n) d3 btr
  in
  let r = Cr_core.Stabilize.stabilizing_to ~alpha ~c:d3 ~a:btr () in
  match r.Cr_core.Stabilize.cost with
  | None -> Alcotest.fail "expected a cost snapshot while tracking"
  | Some cost ->
      check "stabilize.runs counted once" true
        (List.assoc_opt "stabilize.runs" cost = Some 1);
      check "cost records the bad-seed scan" true
        (List.mem_assoc "stabilize.bad_seeds" cost)

(* ---------- zero-converged Runner stats (regression) ---------- *)

let test_runner_zero_converged () =
  let p = Cr_tokenring.Btr3.dijkstra3 2 in
  let stats =
    Cr_sim.Runner.convergence_stats ~samples:5 ~max_steps:3 ~seed:7
      ~converged:(fun _ -> false)
      (fun i -> Cr_sim.Daemon.random ~seed:i)
      p
  in
  check "no run converges" true (stats.Cr_sim.Runner.converged = 0);
  let rendered = Fmt.str "%a" Cr_sim.Runner.pp_stats stats in
  check "prints dashes, not NaN/garbage" true
    (rendered = "0/5 converged, steps mean - min - max -")

let () =
  Alcotest.run "obs"
    [
      ( "telemetry",
        [
          QCheck_alcotest.to_alcotest prop_counters_jobs_invariant;
          Alcotest.test_case "histogram bucketing and quantiles" `Quick
            test_histogram_basics;
          QCheck_alcotest.to_alcotest prop_hists_jobs_invariant;
          Alcotest.test_case "span nesting well-formed" `Quick
            test_span_nesting;
          Alcotest.test_case "CR_TRACE export is valid JSON" `Quick
            test_trace_json;
          Alcotest.test_case "Json_check accept/reject" `Quick test_json_check;
          Alcotest.test_case "verdict carries cost snapshot" `Quick
            test_verdict_cost;
          Alcotest.test_case "zero-converged stats print dashes" `Quick
            test_runner_zero_converged;
        ] );
    ]
