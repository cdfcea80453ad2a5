(* Run-journal (Cr_obs.Obs, CR_JOURNAL) tests: stream shape (header,
   provenance stamps, JSONL validity), CR_JOBS-invariance of the
   canonicalized event set (decisions and spans alike), the journal as a
   projection of the span record and of the counter folds, an
   unwritable path, and the Json_check JSONL validator. *)

module J = Cr_obs.Json_check
module Obs = Cr_obs.Obs

(* lift the pool's busy-domain cap so CR_JOBS > 1 really fans out across
   domains on a single-core host — the invariance being tested *)
let () = Unix.putenv "CR_PAR_CAP" "8"

let check = Alcotest.(check bool)

let read_file path =
  let ic = open_in_bin path in
  let body = really_input_string ic (in_channel_length ic) in
  close_in ic;
  body

let lines body =
  List.filter (fun l -> String.trim l <> "") (String.split_on_char '\n' body)

(* ---------- a small instrumented workload ---------- *)

(* Compile two systems and run the same stabilization check twice: the
   journal should record the explicit builds and their compile spans,
   and two stabilize checks, each with its verdict. *)
let run_workload () =
  let n = 3 in
  let d3 = Cr_guarded.Program.to_explicit (Cr_tokenring.Btr3.dijkstra3 n) in
  let btr = Cr_guarded.Program.to_explicit (Cr_tokenring.Btr.program n) in
  let alpha =
    Cr_semantics.Abstraction.tabulate (Cr_tokenring.Btr3.alpha n) d3 btr
  in
  let r1 = Cr_core.Stabilize.stabilizing_to ~alpha ~c:d3 ~a:btr () in
  let r2 = Cr_core.Stabilize.stabilizing_to ~alpha ~c:d3 ~a:btr () in
  check "stabilization holds" true
    (r1.Cr_core.Stabilize.holds && r2.Cr_core.Stabilize.holds)

let journal_of_workload ~jobs =
  Unix.putenv "CR_JOBS" (string_of_int jobs);
  let tmp = Filename.temp_file "cr_journal" ".jsonl" in
  Obs.set_journal_path (Some tmp);
  Obs.reset ();
  run_workload ();
  Obs.set_journal_path None;
  Unix.putenv "CR_JOBS" "1";
  let body = read_file tmp in
  Sys.remove tmp;
  body

(* ---------- canonicalization ---------- *)

(* Fields that legitimately differ between runs (or between CR_JOBS
   settings): provenance stamps, wall-clock span durations ([dur_us]),
   and cost snapshots (whose gc.* entries price allocation, which the
   fan-out redistributes across domains). *)
let volatile_keys =
  [ "seq"; "ts_us"; "dom"; "rev"; "jobs"; "dur_us"; "cost" ]

let rec canon (j : J.json) =
  match j with
  | J.Null -> "null"
  | J.Bool b -> string_of_bool b
  | J.Num f -> Printf.sprintf "%g" f
  | J.Str s -> Printf.sprintf "%S" s
  | J.Arr l -> "[" ^ String.concat "," (List.map canon l) ^ "]"
  | J.Obj kvs ->
      let kvs = List.sort (fun (a, _) (b, _) -> String.compare a b) kvs in
      "{"
      ^ String.concat ","
          (List.map (fun (k, v) -> Printf.sprintf "%S:%s" k (canon v)) kvs)
      ^ "}"

(* The journal's CR_JOBS-invariance contract: after dropping the header,
   the pool-lifecycle events (a pool only exists at CR_JOBS > 1) and the
   volatile fields, the same decisions produce the same event set. *)
let pool_event ev =
  String.length ev >= 9 && String.sub ev 0 9 = "par.pool."
let canonical_events body =
  let evs =
    List.filter_map
      (fun line ->
        let j =
          match J.parse_string line with
          | Ok j -> j
          | Error msg -> Alcotest.failf "journal line unparsable: %s" msg
        in
        let ev =
          match Option.bind (J.member "ev" j) J.to_string with
          | Some ev -> ev
          | None -> Alcotest.failf "journal line without ev: %s" line
        in
        if ev = "journal.open" || pool_event ev then None
        else
          match j with
          | J.Obj kvs ->
              let kept =
                List.filter
                  (fun (k, _) -> not (List.mem k volatile_keys))
                  kvs
              in
              Some (canon (J.Obj kept))
          | _ -> Alcotest.failf "journal line is not an object: %s" line)
      (lines body)
  in
  List.sort String.compare evs

let prop_journal_jobs_invariant =
  QCheck2.Test.make ~name:"journal event set invariant under CR_JOBS"
    ~count:2
    QCheck2.Gen.(oneofl [ 2; 4 ])
    (fun jobs ->
      let seq = canonical_events (journal_of_workload ~jobs:1) in
      let par = canonical_events (journal_of_workload ~jobs) in
      if seq <> par then
        QCheck2.Test.fail_reportf "CR_JOBS=1 vs CR_JOBS=%d:@.%s@.vs@.%s" jobs
          (String.concat "\n" seq) (String.concat "\n" par)
      else if seq = [] then
        QCheck2.Test.fail_reportf "journal recorded no events; test is vacuous"
      else true)

(* ---------- stream shape ---------- *)

let test_journal_stream () =
  let body = journal_of_workload ~jobs:1 in
  (match J.validate_jsonl_string body with
  | Ok n -> check "several events recorded" true (n >= 4)
  | Error msg -> Alcotest.failf "journal is not valid JSONL: %s" msg);
  let parsed =
    List.map
      (fun l ->
        match J.parse_string l with
        | Ok j -> j
        | Error msg -> Alcotest.failf "unparsable line: %s" msg)
      (lines body)
  in
  (* header first, at seq 0 *)
  (match parsed with
  | first :: _ ->
      check "header event" true
        (Option.bind (J.member "ev" first) J.to_string = Some "journal.open");
      check "header seq 0" true
        (Option.bind (J.member "seq" first) J.to_int = Some 0)
  | [] -> Alcotest.fail "empty journal");
  (* every line carries the provenance stamp *)
  List.iter
    (fun j ->
      check "has rev" true (Option.is_some (J.member "rev" j));
      check "has jobs" true
        (Option.is_some (Option.bind (J.member "jobs" j) J.to_int));
      check "has dom" true
        (Option.is_some (Option.bind (J.member "dom" j) J.to_int)))
    parsed;
  (* sequence numbers are 0..n-1 in order (single writer here) *)
  let seqs =
    List.map (fun j -> Option.get (Option.bind (J.member "seq" j) J.to_int)) parsed
  in
  check "seqs are consecutive from 0" true
    (seqs = List.init (List.length seqs) Fun.id);
  (* the workload's decisions all show up *)
  let evs =
    List.filter_map (fun j -> Option.bind (J.member "ev" j) J.to_string) parsed
  in
  let has prefix =
    List.exists (fun ev -> String.starts_with ~prefix ev) evs
  in
  check "explicit.built recorded" true (has "explicit.built");
  check "compile spans recorded" true (List.mem "compile" evs);
  (* the second identical check runs too: nothing is memoized *)
  let count ev = List.length (List.filter (String.equal ev) evs) in
  Alcotest.(check int) "two stabilize checks" 2 (count "stabilize.check");
  Alcotest.(check int) "two stabilize verdicts" 2 (count "stabilize.verdict")

(* ---------- the journal as a projection of the one stream ---------- *)

let parsed_lines body =
  List.map
    (fun l ->
      match J.parse_string l with
      | Ok j -> j
      | Error msg -> Alcotest.failf "unparsable line: %s" msg)
    (lines body)

let ev_of j =
  Option.value ~default:"" (Option.bind (J.member "ev" j) J.to_string)

(* Every closed span is one journal line carrying [dur_us], and no
   other line carries it. *)
let test_span_projection () =
  let parsed = parsed_lines (journal_of_workload ~jobs:1) in
  let spans =
    List.sort compare
      (List.map (fun (e : Obs.span_event) -> e.sname) (Obs.events ()))
  in
  let timed =
    List.sort compare
      (List.filter_map
         (fun j -> if J.member "dur_us" j <> None then Some (ev_of j) else None)
         parsed)
  in
  check "spans were recorded" true (List.mem "compile" spans);
  Alcotest.(check (list string))
    "span names = journal lines with dur_us" spans timed

(* Decision lines and counters are two folds of the same decisions: line
   counts and summed fields equal the counter movement of the run. *)
let test_counter_folds () =
  let parsed = parsed_lines (journal_of_workload ~jobs:1) in
  let counters = Obs.merged_snapshot () in
  let counter name = Option.value ~default:0 (List.assoc_opt name counters) in
  let lines ev = List.filter (fun j -> ev_of j = ev) parsed in
  let sum ev field =
    List.fold_left
      (fun acc j ->
        acc + Option.value ~default:0 (Option.bind (J.member field j) J.to_int))
      0 (lines ev)
  in
  List.iter
    (fun (ev, name) ->
      Alcotest.(check int) (ev ^ " lines = " ^ name) (counter name)
        (List.length (lines ev)))
    [ ("explicit.built", "explicit.systems") ];
  check "the workload built systems" true (counter "explicit.systems" > 0);
  Alcotest.(check int) "summed states" (counter "explicit.states")
    (sum "explicit.built" "states");
  Alcotest.(check int) "summed transitions" (counter "explicit.transitions")
    (sum "explicit.built" "transitions")

(* An unwritable CR_JOURNAL is reported on stderr, never raised, and
   leaves nothing behind. *)
let test_unwritable_journal () =
  let dir = Filename.temp_file "cr_journal_nodir" "" in
  Sys.remove dir;
  let path = Filename.concat dir "x.jsonl" in
  Obs.set_journal_path (Some path);
  run_workload ();
  Obs.set_journal_path None;
  check "no journal file" false (Sys.file_exists path);
  check "no directory" false (Sys.file_exists dir)

(* ---------- JSONL validator ---------- *)

let test_jsonl_validator () =
  let ok n s =
    match J.validate_jsonl_string s with
    | Ok m ->
        Alcotest.(check int) (Printf.sprintf "accepts %S" s) n m
    | Error msg -> Alcotest.failf "rejected %S: %s" s msg
  in
  let bad s =
    check (Printf.sprintf "rejects %S" s) true
      (Result.is_error (J.validate_jsonl_string s))
  in
  ok 0 "";
  ok 0 "\n \n";
  ok 1 "{\"a\": 1}";
  ok 2 "{\"a\": 1}\n{\"b\": [true, null]}\n";
  ok 2 "{}\n\n{}";
  bad "[1, 2]";
  (* arrays are valid JSON but not journal lines *)
  bad "{\"a\": 1}\n[2]";
  bad "{\"a\":}";
  bad "{\"a\": 1} {\"b\": 2}"

let () =
  Alcotest.run "journal"
    [
      ( "journal",
        [
          Alcotest.test_case "stream shape and provenance" `Quick
            test_journal_stream;
          QCheck_alcotest.to_alcotest prop_journal_jobs_invariant;
          Alcotest.test_case "spans project onto dur_us lines" `Quick
            test_span_projection;
          Alcotest.test_case "decision lines fold to counters" `Quick
            test_counter_folds;
          Alcotest.test_case "unwritable path is ignored" `Quick
            test_unwritable_journal;
          Alcotest.test_case "JSONL validator accept/reject" `Quick
            test_jsonl_validator;
        ] );
    ]
