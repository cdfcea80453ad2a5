(* Perf-regression gate (Cr_obs.Perfdiff) tests: identity comparisons
   pass, synthetic regressions on trusted rows trip the gate, and the
   noise carve-outs (low-r^2 rows ungated, sub-microsecond rows at 4x
   tolerance) hold. *)

module J = Cr_obs.Json_check
module P = Cr_obs.Perfdiff

let check = Alcotest.(check bool)

let artifact rows =
  let row (name, ns, r2, low) =
    Printf.sprintf
      "{\"name\": %S, \"ns_per_run\": %.1f, \"r2\": %.4f, \"low_r2\": %b}" name
      ns r2 low
  in
  Printf.sprintf
    "{\"git_rev\": \"test\", \"cr_jobs\": 1, \"micro\": [%s], \
     \"report_all_wall_s\": [{\"n\": 2, \"seconds\": 1.5}]}"
    (String.concat ", " (List.map row rows))

let parse s =
  match J.parse_string s with
  | Ok j -> j
  | Error msg -> Alcotest.failf "test artifact unparsable: %s" msg

let base_rows =
  [
    ("fast", 500.0, 0.99, false);
    (* sub-microsecond baseline *)
    ("norm", 5000.0, 0.99, false);
    ("noisy", 7000.0, 0.2, true);
  ]

let compare_rows ?gate_pct base next =
  match P.compare_artifacts ?gate_pct (parse (artifact base)) (parse (artifact next)) with
  | Ok r -> r
  | Error msg -> Alcotest.failf "compare failed: %s" msg

let find name (r : P.result) =
  match List.find_opt (fun (row : P.row) -> row.P.name = name) r.P.rows with
  | Some row -> row
  | None -> Alcotest.failf "row %S missing from result" name

let test_identity () =
  let r = compare_rows base_rows base_rows in
  Alcotest.(check int) "no regressions" 0 r.P.regressions;
  List.iter
    (fun (row : P.row) ->
      check (row.P.name ^ " not regressed") false row.P.regressed;
      Alcotest.(check (float 0.001)) (row.P.name ^ " zero delta") 0.0
        row.P.delta_pct)
    r.P.rows;
  check "wall rows carried" true (r.P.walls <> []);
  check "nothing unmatched" true (r.P.only_base = [] && r.P.only_next = [])

let test_synthetic_regression () =
  let next =
    [
      (* +10% on a sub-us row: inside the widened 4 x 25% tolerance *)
      ("fast", 550.0, 0.99, false);
      (* +60% on a trusted row: past the 25% gate *)
      ("norm", 8000.0, 0.99, false);
      (* 10x on a low-r^2 row: reported, never gated *)
      ("noisy", 70000.0, 0.25, true);
    ]
  in
  let r = compare_rows base_rows next in
  Alcotest.(check int) "exactly one regression" 1 r.P.regressions;
  let fast = find "fast" r and norm = find "norm" r and noisy = find "noisy" r in
  check "sub-us row widened, not tripped" true
    (fast.P.gated && (not fast.P.regressed) && fast.P.tolerance_pct = 100.0);
  check "trusted row tripped" true (norm.P.gated && norm.P.regressed);
  check "trusted row confidence high" true (norm.P.confidence = P.High);
  check "low-r2 row never gated" true
    ((not noisy.P.gated) && (not noisy.P.regressed) && noisy.P.confidence = P.Low);
  (* the same regression passes a loosened gate *)
  let r100 = compare_rows ~gate_pct:100.0 base_rows next in
  Alcotest.(check int) "100% gate passes" 0 r100.P.regressions

let test_improvement_not_flagged () =
  let next = [ ("fast", 400.0, 0.99, false); ("norm", 2000.0, 0.99, false);
               ("noisy", 100.0, 0.9, false) ] in
  let r = compare_rows base_rows next in
  Alcotest.(check int) "speedups never regress" 0 r.P.regressions

let test_unmatched_rows () =
  let r =
    compare_rows base_rows
      [ ("norm", 5000.0, 0.99, false); ("brand-new", 10.0, 0.99, false) ]
  in
  check "only_base lists removed rows" true (r.P.only_base = [ "fast"; "noisy" ]);
  check "only_next lists added rows" true (r.P.only_next = [ "brand-new" ]);
  Alcotest.(check int) "unmatched rows never gate" 0 r.P.regressions

let test_run_exit_codes () =
  let write s =
    let tmp = Filename.temp_file "cr_perfdiff" ".json" in
    let oc = open_out tmp in
    output_string oc s;
    close_out oc;
    tmp
  in
  let base = write (artifact base_rows) in
  let regressed = write (artifact [ ("norm", 9000.0, 0.99, false) ]) in
  Alcotest.(check int) "identity exits 0" 0 (P.run base base);
  Alcotest.(check int) "regression exits 1" 1 (P.run base regressed);
  Alcotest.(check int) "unreadable input exits 2" 2
    (P.run base "/nonexistent/bench.json");
  Sys.remove base;
  Sys.remove regressed

let test_committed_artifact_identity () =
  (* the artifact ci.sh gates against must diff cleanly against itself *)
  let path = "../BENCH.json" in
  let path = if Sys.file_exists path then path else "BENCH.json" in
  if not (Sys.file_exists path) then
    Alcotest.fail "BENCH.json not found (missing test dep?)";
  match P.compare_artifacts (Result.get_ok (J.parse_file path))
          (Result.get_ok (J.parse_file path)) with
  | Ok r ->
      Alcotest.(check int) "identity on committed artifact" 0 r.P.regressions;
      check "committed artifact has rows" true (List.length r.P.rows > 10)
  | Error msg -> Alcotest.failf "committed artifact unreadable: %s" msg

let () =
  Alcotest.run "perfdiff"
    [
      ( "perfdiff",
        [
          Alcotest.test_case "identity comparison passes" `Quick test_identity;
          Alcotest.test_case "synthetic regression trips the gate" `Quick
            test_synthetic_regression;
          Alcotest.test_case "improvements never flag" `Quick
            test_improvement_not_flagged;
          Alcotest.test_case "unmatched rows reported, not gated" `Quick
            test_unmatched_rows;
          Alcotest.test_case "run exit codes" `Quick test_run_exit_codes;
          Alcotest.test_case "committed artifact self-diff" `Quick
            test_committed_artifact_identity;
        ] );
    ]
