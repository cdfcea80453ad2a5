(* Scenario benchmark for crcheck.  Run it through scenario_bench/run.sh,
   which builds what it needs first:

     run.sh --workload W [--seed S] [--seconds T] [--trace 0|1] [--out F]
     run.sh --workload all ...        every workload in turn
     run.sh --check                   every query once, known answers only
     run.sh --compare A.json B.json   judge B against A with the bounds

   The end-to-end run (--trace 0) is a closed loop from one client: one
   fresh crcheck process per query, back to back.  The traced run
   (--trace 1) re-executes this program as one child (--replay W) that
   replays the queries in-process and times every layer call.  The last
   line of stdout is the result as one JSON object; BENCHMARK.json names
   the metrics and their units and bounds. *)

module J = Cr_obs.Json_check

(* The checkout: this program runs from _build/default/scenario_bench. *)
let root = Filename.(dirname (dirname (dirname (dirname Sys.executable_name))))

let work_root = Filename.concat root "scenario_bench/_work"
let crcheck = Filename.concat root "_build/default/bin/crcheck.exe"
let setup_samples = 3
let min_rounds = 3

let die code fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("scenarios: " ^ msg);
      exit code)
    fmt

(* ---------- BENCHMARK.json: the metric names, units and bounds ---------- *)

type spec_metric = { name : string; unit : string; better : string; bound : float }

type spec = { workload_names : string list; end_to_end : spec_metric list; per_layer : spec_metric list }

let load_spec () =
  let json =
    match J.parse_file (Filename.concat root "BENCHMARK.json") with
    | Ok j -> j
    | Error msg -> die 2 "BENCHMARK.json: %s" msg
  in
  let list key =
    match J.member key json with Some (J.Arr l) -> l | _ -> die 2 "BENCHMARK.json: no %s" key
  in
  let str key o =
    match Option.bind (J.member key o) J.to_string with
    | Some s -> s
    | None -> die 2 "BENCHMARK.json: entry without %s" key
  in
  let metric o =
    {
      name = str "name" o;
      unit = str "unit" o;
      better = str "better" o;
      bound = Option.value ~default:0. (Option.bind (J.member "bound" o) J.to_float);
    }
  in
  let spec =
    {
      workload_names = List.map (str "name") (list "workloads");
      end_to_end = List.map metric (list "end_to_end");
      per_layer = List.map metric (list "per_layer");
    }
  in
  let ours = List.map (fun (w : Workloads.workload) -> w.name) Workloads.workloads in
  if List.sort compare ours <> List.sort compare spec.workload_names then
    die 2 "BENCHMARK.json workloads (%s) differ from the bench's (%s)"
      (String.concat ", " spec.workload_names)
      (String.concat ", " ours);
  spec

(* ---------- results ---------- *)

type metric = { value : float; q1 : float; q3 : float; n : int }

let of_samples xs =
  let q1, q3 = Stats.quartiles xs in
  { value = Stats.median xs; q1; q3; n = List.length xs }

let single v = { value = v; q1 = v; q3 = v; n = 1 }

type result = {
  workload : string;
  trace : bool;
  attempted : int;
  failed : int;
  rounds : (string * int) list;
  metrics : (string * metric) list;
}

(* Counts every query run and reports each mismatch on stderr as it
   happens. *)
type tally = { mutable runs : int; mutable bad : int }

let new_tally () = { runs = 0; bad = 0 }

let record tally label errs =
  tally.runs <- tally.runs + 1;
  if errs <> [] then begin
    tally.bad <- tally.bad + 1;
    List.iter (fun e -> Printf.eprintf "scenarios: %s: %s\n%!" label e) errs
  end

let num v =
  if Float.is_finite v then Printf.sprintf "%.17g" v
  else invalid_arg "scenarios: non-finite metric value"

let str s = "\"" ^ Cr_lint.Lint.json_escape s ^ "\""
let obj fields = "{" ^ String.concat ", " (List.map (fun (k, v) -> str k ^ ": " ^ v) fields) ^ "}"

(* The metrics BENCHMARK.json lists for this mode, in its order, with
   their units; a listed metric the run did not produce is a bench bug. *)
let listed spec r =
  List.map
    (fun m ->
      match List.assoc_opt m.name r.metrics with
      | Some v -> (m.name, m.unit, v)
      | None -> die 3 "%s: metric %s was not measured" r.workload m.name)
    (if r.trace then spec.per_layer else spec.end_to_end)

let result_json spec r =
  obj
    [
      ("workload", str r.workload);
      ("trace", if r.trace then "1" else "0");
      ("correct", string_of_bool (r.failed = 0));
      ("attempted", string_of_int r.attempted);
      ("failed", string_of_int r.failed);
      ("rounds", obj (List.map (fun (k, v) -> (k, string_of_int v)) r.rounds));
      ( "metrics",
        obj
          (List.map
             (fun (name, unit, m) ->
               ( name,
                 obj
                   [
                     ("value", num m.value);
                     ("unit", str unit);
                     ("q1", num m.q1);
                     ("q3", num m.q3);
                     ("n", string_of_int m.n);
                   ] ))
             (listed spec r)) );
    ]

(* Where the numbers came from. *)
let header ~seed ~seconds =
  [
    ("rev", str (Cr_obs.Journal.git_rev ()));
    ("nproc", string_of_int (Domain.recommended_domain_count ()));
    ("ocaml", str Sys.ocaml_version);
    ("seed", string_of_int seed);
    ("seconds", string_of_int seconds);
    ("setup_samples", string_of_int setup_samples);
    ("removed_env", "[" ^ String.concat ", " (List.map str (Proc.removed_env ())) ^ "]");
  ]

let print_result spec r =
  List.iter
    (fun (name, unit, m) ->
      if m.n > 1 then
        Printf.printf "%-16s %-40s %.6g %s  (q1 %.6g, q3 %.6g, n %d)\n" r.workload name
          m.value unit m.q1 m.q3 m.n
      else Printf.printf "%-16s %-40s %.6g %s\n" r.workload name m.value unit)
    (listed spec r);
  Printf.printf "%-16s rounds: %s; %d queries, %d failed\n" r.workload
    (String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%s %d" k v) r.rounds))
    r.attempted r.failed

(* The last stdout line. *)
let final_line spec results =
  let prefix r = if List.length results > 1 then r.workload ^ "." else "" in
  let attempted = List.fold_left (fun a r -> a + r.attempted) 0 results in
  let failed = List.fold_left (fun a r -> a + r.failed) 0 results in
  obj
    [
      ("correct", string_of_bool (failed = 0));
      ("attempted", string_of_int attempted);
      ("failed", string_of_int failed);
      ( "metrics",
        obj
          (List.concat_map
             (fun r ->
               List.map
                 (fun (name, unit, m) ->
                   (prefix r ^ name, obj [ ("value", num m.value); ("unit", str unit) ]))
                 (listed spec r))
             results) );
    ]

(* ---------- the end-to-end run ---------- *)

let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY; Unix.O_CLOEXEC ] 0

let fresh_dir name =
  let d = Filename.concat work_root name in
  if Sys.file_exists d then Proc.remove_tree d;
  Proc.mkdir_p d;
  d

(* One round: the workload's queries once, in seeded order.  Returns
   (wall time, the sum of spawn-to-reap times; largest peak RSS). *)
let round ~dir ~rng ~tally (w : Workloads.workload) =
  List.fold_left
    (fun (wall, rss) (q : Workloads.query) ->
      let o = Proc.run ~dir ~stderr:devnull crcheck (Workloads.argv q.kind) in
      let errs =
        if o.timed_out then [ Printf.sprintf "timed out after %.0f s" Proc.timeout_s ]
        else Workloads.check q ~code:o.code ~output:o.output
      in
      record tally (Workloads.label q) errs;
      (wall +. o.wall_s, max rss o.rss_kib))
    (0., 0)
    (Workloads.shuffle rng w.queries)

(* Set-up is the first round in a fresh directory (HOME and the cache
   directories with it), taken [setup_samples] times; the timed rounds
   then reuse the last set-up directory until [seconds] have passed. *)
let end_to_end ~seed ~seconds ~run_dir (w : Workloads.workload) =
  let rng = Random.State.make [| seed |] in
  let tally = new_tally () in
  let setup =
    List.init setup_samples (fun i ->
        let dir = Filename.concat run_dir (Printf.sprintf "setup-%d" i) in
        Proc.mkdir_p dir;
        fst (round ~dir ~rng ~tally w))
  in
  let dir = Filename.concat run_dir (Printf.sprintf "setup-%d" (setup_samples - 1)) in
  let t0 = Stats.now () in
  let rec timed acc =
    if List.length acc >= min_rounds && Stats.now () -. t0 >= float seconds then List.rev acc
    else timed (round ~dir ~rng ~tally w :: acc)
  in
  let rounds = timed [] in
  let mib kib = float kib /. 1024. in
  {
    workload = w.name;
    trace = false;
    attempted = tally.runs;
    failed = tally.bad;
    rounds = [ ("setup", setup_samples); ("timed", List.length rounds) ];
    metrics =
      [
        ("round_s", of_samples (List.map fst rounds));
        ("peak_rss_mb", of_samples (List.map (fun (_, k) -> mib k) rounds));
        ("setup_s", of_samples setup);
      ];
  }

(* ---------- the traced run ---------- *)

let read_json path =
  match J.parse_file path with Ok j -> j | Error msg -> die 3 "%s: %s" path msg

let int_field key j = Option.value ~default:0 (Option.bind (J.member key j) J.to_int)

(* The traced run is one replay child; it returns every per-layer
   metric. *)
let traced ~seed ~run_dir ~trace_out (w : Workloads.workload) =
  let result_path = Filename.concat run_dir "replay.json" in
  let o =
    Proc.run ~dir:run_dir ~stderr:Unix.stderr Sys.executable_name
      [
        "--replay"; w.name; "--seed"; string_of_int seed; "--result"; result_path;
        "--trace-out"; trace_out;
      ]
  in
  if o.timed_out || o.code <> 0 then die 3 "replay child for %s failed (code %d)" w.name o.code;
  let j = read_json result_path in
  let metrics =
    match J.member "metrics" j with
    | Some (J.Obj kvs) ->
        List.map (fun (k, v) -> (k, single (Option.value ~default:0. (J.to_float v)))) kvs
    | _ -> die 3 "%s: no metrics" result_path
  in
  {
    workload = w.name;
    trace = true;
    attempted = int_field "attempted" j;
    failed = int_field "failed" j;
    rounds = [ ("timed", min_rounds) ];
    metrics;
  }

(* ---------- the replay child ---------- *)

let ratio a b = if b = 0. then 0. else a /. b

(* Log-log slope of time against states between two ring sizes. *)
let scale_exp ~t ~t' ~s ~s' =
  if t <= 0. || t' <= 0. || s <= 0 || s' <= 0 || s = s' then 0.
  else log (t /. t') /. log (float s /. float s')

let chrome_trace ~workload (runs : Replay.query_run list) =
  let t0 = match runs with r :: _ -> r.q_start | [] -> 0. in
  let us t = num ((t -. t0) *. 1e6) in
  let ev ~cat ~name ~start ~dur ~query =
    obj
      [
        ("name", str name); ("cat", str cat); ("ph", str "X"); ("ts", us start);
        ("dur", num (dur *. 1e6)); ("pid", "1"); ("tid", "1");
        ("args", obj [ ("query", str query) ]);
      ]
  in
  let t1 = List.fold_left (fun a (r : Replay.query_run) -> Float.max a (r.q_start +. r.q_dur)) t0 runs in
  let events =
    ev ~cat:"workload" ~name:workload ~start:t0 ~dur:(t1 -. t0) ~query:""
    :: List.concat_map
         (fun (r : Replay.query_run) ->
           ev ~cat:"query" ~name:r.label ~start:r.q_start ~dur:r.q_dur ~query:r.label
           :: List.map
                (fun (s : Replay.span) ->
                  ev ~cat:"layer" ~name:s.name ~start:s.start ~dur:s.dur ~query:r.label)
                r.spans)
         runs
  in
  "{\"traceEvents\": [\n" ^ String.concat ",\n" events ^ "\n], \"displayTimeUnit\": \"ms\"}\n"

let write_file path body = Out_channel.with_open_bin path (fun oc -> output_string oc body)

(* Three end-to-end rounds, each followed by an untraced replay pass,
   give crcheck.round_s and the layer times (medians); interleaving them
   keeps drift in the host's speed out of crcheck.unattributed_s.  Three
   passes one ring size down give the scaling exponents, and a final
   pass with Cr_obs collection on gives the counters. *)
let replay_child ~seed ~result ~trace_out (w : Workloads.workload) =
  let rng = Random.State.make [| seed |] in
  let scratch = Filename.concat (Sys.getcwd ()) "replay.out" in
  let tally = new_tally () in
  let pass ?(check = true) ?(each = fun f -> f ()) queries =
    List.map
      (fun (q : Workloads.query) ->
        let r = each (fun () -> Replay.run_query ~scratch q) in
        if check then record tally r.label (Workloads.check q ~code:r.code ~output:r.output);
        r)
      (Workloads.shuffle rng queries)
  in
  (* 0 for a layer the workload never calls *)
  let layer_time runs name =
    List.fold_left
      (fun a (r : Replay.query_run) ->
        List.fold_left (fun a (s : Replay.span) -> if s.name = name then a +. s.dur else a) a r.spans)
      0. runs
  in
  let total runs = List.fold_left (fun a (r : Replay.query_run) -> a +. r.q_dur) 0. runs in
  let dir = Sys.getcwd () in
  let samples =
    List.init min_rounds (fun _ ->
        let wall, _ = round ~dir ~rng ~tally w in
        let g0 = Gc.quick_stat () in
        let p = pass w.queries in
        (wall, p, (g0, Gc.quick_stat ())))
  in
  let rounds = List.map (fun (r, _, _) -> r) samples
  and untraced = List.map (fun (_, p, _) -> p) samples in
  let first, (gc0, gc1) =
    match samples with (_, p, g) :: _ -> (p, g) | [] -> assert false
  in
  let top_heap_words = (Gc.quick_stat ()).top_heap_words in
  let down (q : Workloads.query) =
    match q.kind with
    | Refine (s, n) -> Some { q with kind = Refine (s, n - 1) }
    | Verify (s, n) -> Some { q with kind = Verify (s, n - 1) }
    | Experiments _ | Lint _ | Flow _ -> None
  in
  let scaled = List.init 3 (fun _ -> pass ~check:false (List.filter_map down w.queries)) in
  let layer name = Stats.median (List.map (fun runs -> layer_time runs name) untraced) in
  let scaled_layer name = Stats.median (List.map (fun runs -> layer_time runs name) scaled) in
  (* counters: merged-snapshot deltas around each query, summed *)
  Cr_obs.Obs.force_collect ();
  let counts = Hashtbl.create 32 in
  let counted =
    pass ~each:(fun f ->
        let before = Cr_obs.Obs.merged_snapshot () in
        let r = f () in
        List.iter
          (fun (k, v) ->
            Hashtbl.replace counts k (v + Option.value ~default:0 (Hashtbl.find_opt counts k)))
          (Cr_obs.Obs.diff ~before ~after:(Cr_obs.Obs.merged_snapshot ()));
        r)
      w.queries
  in
  let c name = Option.value ~default:0 (Hashtbl.find_opt counts name) in
  let hit_ratio prefix =
    let h = float (c (prefix ^ ".hits")) and m = float (c (prefix ^ ".misses")) in
    ratio h (h +. m)
  in
  let fact f runs = List.fold_left (fun a (r : Replay.query_run) -> a + f r.facts) 0 runs in
  let states = fact (fun f -> f.states) first in
  let states' = match scaled with s :: _ -> fact (fun f -> f.states) s | [] -> 0 in
  let compile_s = layer "semantics.compile" in
  let layer_metrics = List.map (fun l -> (l ^ "_s", layer l)) Replay.layers in
  let layer_sum = List.fold_left (fun a (_, v) -> a +. v) 0. layer_metrics in
  let round_s = Stats.median rounds in
  let metrics =
    ("crcheck.round_s", round_s)
    :: ("crcheck.unattributed_s", round_s -. layer_sum)
    :: layer_metrics
    @ [
        ( "guarded.init_closure.scale_exp",
          scale_exp ~t:(layer "guarded.init_closure")
            ~t':(scaled_layer "guarded.init_closure") ~s:states ~s':states' );
        ( "guarded.init_closure.states_per_hash",
          ratio
            (float (fact (fun f -> f.init_states) first))
            (float (fact (fun f -> f.init_hashes) first)) );
        ( "semantics.compile.scale_exp",
          scale_exp ~t:compile_s ~t':(scaled_layer "semantics.compile") ~s:states ~s':states'
        );
        ("semantics.states", float states);
        ("semantics.transitions", float (fact (fun f -> f.transitions) first));
        ("semantics.states_per_s", ratio (float states) compile_s);
        ("semantics.compile_cache.hit_ratio", hit_ratio "compile.cache");
        ("semantics.compile_cache.misses", float (c "compile.cache.misses"));
        ("semantics.explicit.systems", float (c "explicit.systems"));
        ("core.check_cache.hit_ratio", hit_ratio "check.cache");
        ( "core.refine.edges",
          float
            (List.fold_left
               (fun a k -> a + c ("refine.edges." ^ k))
               0
               [ "exact"; "stutter"; "compression"; "unmatched" ]) );
        ("checker.paths.oracle_hit_ratio", hit_ratio "paths.oracle");
        ("checker.scc.components", float (c "scc.components"));
        ("core.stabilize.bad_seeds", float (c "stabilize.bad_seeds"));
        ("lint.rwsets.state_evals", float (c "lint.rwsets.state_evals"));
        ("flow.transfers", float (c "lint.flow.transfers"));
        ("gc.minor_mwords", (gc1.minor_words -. gc0.minor_words) /. 1e6);
        ("gc.major_collections", float (gc1.major_collections - gc0.major_collections));
        ("gc.top_heap_mb", float (top_heap_words * (Sys.word_size / 8)) /. 1048576.);
        ( "obs.overhead_share",
          ratio (total counted) (Stats.median (List.map total untraced)) -. 1. );
      ]
  in
  let body = chrome_trace ~workload:w.name first in
  (match J.validate_string body with
  | Ok () -> write_file trace_out body
  | Error msg -> die 3 "chrome trace invalid: %s" msg);
  write_file result
    (obj
       [
         ("attempted", string_of_int tally.runs);
         ("failed", string_of_int tally.bad);
         ("metrics", obj (List.map (fun (k, v) -> (k, num v)) metrics));
       ])

(* ---------- --check and --compare ---------- *)

let check () =
  let tally = new_tally () in
  List.iter
    (fun (w : Workloads.workload) ->
      let dir = fresh_dir ("check-" ^ w.name) in
      List.iter
        (fun (q : Workloads.query) ->
          let o = Proc.run ~dir ~stderr:devnull crcheck (Workloads.argv q.kind) in
          let errs =
            if o.timed_out then [ "timed out" ]
            else Workloads.check q ~code:o.code ~output:o.output
          in
          record tally (Workloads.label q) errs;
          Printf.printf "%-8s %s\n%!" (if errs = [] then "ok" else "MISMATCH") (Workloads.label q))
        w.queries;
      Proc.remove_tree dir)
    Workloads.workloads;
  Printf.printf "check: %d queries, %d mismatch(es)\n" tally.runs tally.bad;
  if tally.bad > 0 then 1 else 0

(* Judge every (end-to-end metric, workload) pair of B against A:
   unresolved when either side's quartile spread is wider than the
   bound, otherwise worse / better when the medians differ by more than
   the bound. *)
let compare spec a_path b_path =
  let results path =
    match J.member "results" (read_json path) with
    | Some (J.Arr l) ->
        List.filter_map
          (fun r ->
            match (Option.bind (J.member "workload" r) J.to_string, J.member "trace" r) with
            | Some w, Some (J.Num 0.) -> Some (w, r)
            | _ -> None)
          l
    | _ -> die 2 "%s: not a results file" path
  in
  let a = results a_path and b = results b_path in
  let field r m k =
    Option.bind (Option.bind (J.member "metrics" r) (J.member m)) (J.member k)
    |> Fun.flip Option.bind J.to_float
  in
  let fail_ratio r = ratio (float (int_field "failed" r)) (float (int_field "attempted" r)) in
  let worse = ref false in
  Printf.printf "%-16s %-12s %12s %12s %8s %8s %7s  %s\n" "workload" "metric" "A" "B" "change"
    "spread" "bound" "verdict";
  List.iter
    (fun (w, rb) ->
      match List.assoc_opt w a with
      | None -> Printf.printf "%-16s (not in %s)\n" w a_path
      | Some ra ->
          List.iter
            (fun m ->
              match (field ra m.name "value", field rb m.name "value") with
              | Some va, Some vb ->
                  let spread r v =
                    match (field r m.name "q1", field r m.name "q3") with
                    | Some q1, Some q3 when v <> 0. -> (q3 -. q1) /. Float.abs v
                    | _ -> 0.
                  in
                  let sp = Float.max (spread ra va) (spread rb vb) in
                  let change = ratio (vb -. va) (Float.abs va) in
                  let worsening = if m.better = "lower" then change else -.change in
                  let verdict =
                    if sp > m.bound then "unresolved"
                    else if worsening > m.bound then (worse := true; "worse")
                    else if worsening < -.m.bound then "better"
                    else "unchanged"
                  in
                  Printf.printf "%-16s %-12s %12.6g %12.6g %+7.1f%% %7.1f%% %6.0f%%  %s\n" w m.name
                    va vb (100. *. change) (100. *. sp) (100. *. m.bound) verdict
              | _ -> Printf.printf "%-16s %-12s missing\n" w m.name)
            spec.end_to_end;
          if fail_ratio rb > fail_ratio ra then begin
            worse := true;
            Printf.printf "%-16s fail ratio rose: %g -> %g\n" w (fail_ratio ra) (fail_ratio rb)
          end)
    b;
  if !worse then 1 else 0

(* ---------- command line ---------- *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 20 and trace = ref 0 in
  let out = ref "" and trace_out = ref "" and replay = ref "" and result = ref "" in
  let check_mode = ref false and cmp_a = ref "" and cmp_b = ref "" in
  let specs =
    [
      ("--workload", Arg.Set_string workload, "W  workload to run, or 'all'");
      ("--seed", Arg.Set_int seed, "N  seed for the round order (default 1)");
      ("--seconds", Arg.Set_int seconds, "T  timed rounds run for T seconds (default 20)");
      ("--trace", Arg.Set_int trace, "0|1  1: the traced run, reporting per-layer metrics");
      ("--out", Arg.Set_string out, "FILE  also write the full results, with quartiles");
      ("--trace-out", Arg.Set_string trace_out, "FILE  Chrome trace of the replay (--trace 1)");
      ("--check", Arg.Set check_mode, " run every query once and check the known answers");
      ( "--compare",
        Arg.Tuple [ Arg.Set_string cmp_a; Arg.Set_string cmp_b ],
        "A B  judge results file B against A" );
      ("--replay", Arg.Set_string replay, "W  (internal) replay child");
      ("--result", Arg.Set_string result, "FILE  (internal) replay child's output");
    ]
  in
  let usage = "scenarios.exe --workload W [--seed N] [--seconds T] [--trace 0|1]" in
  Arg.parse specs (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  let find name =
    match Workloads.find name with Some w -> w | None -> die 2 "unknown workload %S" name
  in
  if !replay <> "" then replay_child ~seed:!seed ~result:!result ~trace_out:!trace_out (find !replay)
  else begin
    let spec = load_spec () in
    if !cmp_a <> "" then exit (compare spec !cmp_a !cmp_b)
    else begin
      if not (Sys.file_exists crcheck) then die 2 "%s is not built; use scenario_bench/run.sh" crcheck;
      if !check_mode then exit (check ());
      if !trace <> 0 && !trace <> 1 then die 2 "--trace takes 0 or 1";
      if !seconds < 1 then die 2 "--seconds must be at least 1";
      let ws =
        match !workload with
        | "" -> die 2 "%s" usage
        | "all" -> Workloads.workloads
        | name -> [ find name ]
      in
      let hdr = header ~seed:!seed ~seconds:!seconds in
      Printf.printf "# %s\n%!" (String.concat " " (List.map (fun (k, v) -> k ^ "=" ^ v) hdr));
      let results =
        List.map
          (fun (w : Workloads.workload) ->
            let run_dir = fresh_dir (Printf.sprintf "%s-%d" w.name (Unix.getpid ())) in
            let r =
              if !trace = 1 then
                let trace_out =
                  if !trace_out = "" then Filename.concat work_root ("trace-" ^ w.name ^ ".json")
                  else if Filename.is_relative !trace_out then Filename.concat root !trace_out
                  else !trace_out
                in
                traced ~seed:!seed ~run_dir ~trace_out w
              else end_to_end ~seed:!seed ~seconds:!seconds ~run_dir w
            in
            Proc.remove_tree run_dir;
            print_result spec r;
            r)
          ws
      in
      if !out <> "" then
        write_file !out
          (obj
             [
               ("header", obj (("trace", string_of_int !trace) :: hdr));
               ("results", "[\n" ^ String.concat ",\n" (List.map (result_json spec) results) ^ "\n]");
             ]
          ^ "\n");
      print_endline (final_line spec results)
    end
  end
