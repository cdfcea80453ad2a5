(* crcheck — command-line driver for the convergence-refinement library.

     crcheck list                        enumerate the bundled systems
     crcheck verify SYSTEM [-n N]        model-check stabilization
     crcheck refine CONCRETE [-n N]      check [CONCRETE ⪯ its spec]
     crcheck trace SYSTEM [-n N] ...     inject faults and print recovery
     crcheck kstate [-n N]               K-state threshold exploration
     crcheck spans SYSTEM [-n N]         recovery cost vs number of faults
     crcheck dot SYSTEM [-n N] [-o F]    Graphviz export, Good highlighted
     crcheck lint SYSTEM|--all [-n N]    static analysis of the programs
     crcheck flow SYSTEM|--all [-n N]    abstract interpretation + stair
     crcheck validate KIND FILE          check a json/trace/journal artifact
     crcheck experiments [--max-n M]     every experiment table, N = 2..M
*)

open Cmdliner

let pf = Format.printf

(* An integer option with a lower bound: a value below it is a parse
   error, reported and exited on (124) like a non-integer. *)
let int_from lo =
  let parse s =
    match Arg.conv_parser Arg.int s with
    | Ok v when v < lo ->
        Error
          (`Msg
             (Printf.sprintf "invalid value '%s', expected an integer >= %d" s
                lo))
    | r -> r
  in
  Arg.conv (parse, Format.pp_print_int)

let n_arg =
  let doc = "Ring size: processes are 0..N (N >= 1)." in
  Arg.(value & opt (int_from 1) 3 & info [ "n"; "ring" ] ~docv:"N" ~doc)

let system_arg =
  let doc = "System name; see $(b,crcheck list)." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"SYSTEM" ~doc)

let stats_arg =
  let doc =
    "Collect checker telemetry and print the verdict's counter cost \
     (equivalent to running with CR_STATS=1)."
  in
  Arg.(value & flag & info [ "stats" ] ~doc)

let space_arg =
  let doc =
    "State-space engine for init-anchored compiles: $(b,sparse) \
     (reachable fragment only: the default for refine's concrete system, \
     for the spec side of every refinement question, which is compiled \
     from the α-images of the concrete states, and for the spec side of \
     every stabilization question), $(b,dense) (full product space) or \
     $(b,auto) (each call site's default).  Equivalent to setting \
     CR_SPACE.  verify, dot, spans, kstate and experiments print the \
     same under every engine, and so does refine's spec side; the \
     concrete side of a stabilization question and whole-space lint \
     facts are dense by construction."
  in
  Arg.(
    value
    & opt (some (enum [ ("dense", "dense"); ("sparse", "sparse"); ("auto", "auto") ])) None
    & info [ "space" ] ~docv:"ENGINE" ~doc)

(* The flag is sugar for the environment override: exporting it makes
   the engine choice reach every compile in the process and lands it in
   the journal.open header's CR_* provenance record. *)
let set_space = function None -> () | Some s -> Unix.putenv "CR_SPACE" s

let pp_cost what = function
  | None -> ()
  | Some [] -> pf "%s cost: (no counter movement)@." what
  | Some cost -> pf "%s cost:@.%a@." what Cr_obs.Obs.pp_snapshot cost

(* A state space the compile engines cannot index (more states than an
   array holds, or ranks past [max_int]) is refused like a usage error:
   one line on stderr and exit 2. *)
let refusing_too_large f =
  try f ()
  with Cr_semantics.Space.Too_large msg ->
    Format.eprintf "crcheck: %s@." msg;
    2

(* An output file that cannot be written is a usage error too: one
   line on stderr and exit 2, instead of an uncaught Sys_error. *)
let write_file path body =
  try Out_channel.with_open_text path (fun oc -> output_string oc body)
  with Sys_error msg ->
    Format.eprintf "crcheck: %s@." msg;
    exit 2

(* Unknown systems are a usage error: report on stderr and exit 2, so
   piped stdout (tables, --json artifacts) stays clean. *)
let unknown_system name =
  Format.eprintf "unknown system %S; try: %s@." name
    (String.concat ", " (Cr_experiments.Registry.names ()));
  2

let with_entry name f =
  match Cr_experiments.Registry.find name with
  | None -> unknown_system name
  | Some e -> refusing_too_large (fun () -> f e)

(* ---- list ---- *)

let list_cmd =
  let run () =
    List.iter
      (fun name ->
        match Cr_experiments.Registry.find name with
        | Some e ->
            pf "%-12s %s@." e.Cr_experiments.Registry.name
              e.Cr_experiments.Registry.describe
        | None -> ())
      (Cr_experiments.Registry.names ());
    0
  in
  Cmd.v (Cmd.info "list" ~doc:"Enumerate the bundled systems")
    Term.(const run $ const ())

(* ---- verify ---- *)

let verify name n stats space =
  if stats then Cr_obs.Obs.force_enable ();
  set_space space;
  with_entry name (fun e ->
      let p = e.Cr_experiments.Registry.program n in
      (* every graph and the α-table once, shared with the fair re-check *)
      let ep = Cr_experiments.Registry.explicit e n in
      let stab = Cr_experiments.Registry.stabilization ~ep e n in
      let r = stab () in
      pf "%a@." Cr_core.Stabilize.pp_report r;
      if stats then pp_cost "stabilize" r.Cr_core.Stabilize.cost;
      (match r.Cr_core.Stabilize.bad_cycle with
      | Some cyc ->
          pf "witness divergence:@.";
          List.iter
            (fun i -> pf "  %s@." (Cr_semantics.Explicit.state_to_string ep i))
            cyc
      | None -> ());
      (match r.Cr_core.Stabilize.bad_terminal with
      | Some t ->
          pf "witness deadlock: %s@."
            (Cr_semantics.Explicit.state_to_string ep t)
      | None -> ());
      (* also report the weakly-fair verdict when the strict one fails *)
      if not r.Cr_core.Stabilize.holds then begin
        let fair = Cr_sim.Glue.fair_tables p ep in
        let rf = stab ~fair () in
        pf "under a weakly fair daemon: %s@."
          (if rf.Cr_core.Stabilize.holds then "stabilizing" else "still not stabilizing")
      end;
      if r.Cr_core.Stabilize.holds then 0 else 1)

let verify_cmd =
  Cmd.v
    (Cmd.info "verify"
       ~doc:"Model-check that SYSTEM is stabilizing to its specification")
    Term.(const verify $ system_arg $ n_arg $ stats_arg $ space_arg)

(* ---- refine ---- *)

let refine name n stats space =
  if stats then Cr_obs.Obs.force_enable ();
  set_space space;
  with_entry name (fun e ->
      (* the same compile the refinement reports index into: sparse by
         default, so failure anchors resolve against the right graph *)
      let module R = Cr_experiments.Registry in
      let ep = R.init_explicit e n in
      let checks = R.refining ~alpha:(e.R.alpha n) ep (e.R.spec n) in
      let reports = R.relations checks in
      List.iter
        (fun (label, report) ->
          pf "%-14s %a@." label Cr_core.Refine.pp_report report;
          if stats then pp_cost label report.Cr_core.Refine.cost)
        reports;
      (* the convergence report printed above *)
      let conv = List.assoc "convergence" reports in
      let reach = Cr_checker.Reach.reachable_from_initial ep in
      List.iter
        (fun f ->
          let anchor = Cr_core.Refine.failure_state f in
          pf "  %a  [%s]@." (Cr_core.Refine.pp_failure ep checks.R.abstract) f
            (if Cr_kernel.Bitset.get reach anchor then "reachable fault-free"
             else "requires a fault to reach"))
        conv.Cr_core.Refine.failures;
      if conv.Cr_core.Refine.holds then 0 else 1)

let refine_cmd =
  Cmd.v
    (Cmd.info "refine"
       ~doc:
         "Check the refinement relations between SYSTEM and its \
          specification (init / everywhere / convergence / \
          everywhere-eventually)")
    Term.(const refine $ system_arg $ n_arg $ stats_arg $ space_arg)

(* ---- trace ---- *)

let faults_arg =
  Arg.(value & opt (int_from 0) 2 & info [ "faults" ] ~docv:"K" ~doc:"Faults to inject.")

let steps_arg =
  Arg.(value & opt (int_from 0) 20 & info [ "steps" ] ~docv:"M" ~doc:"Steps to run.")

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"S" ~doc:"Random seed.")

let daemon_arg =
  let daemons = [ ("random", `Random); ("round-robin", `RoundRobin) ] in
  Arg.(
    value
    & opt (enum daemons) `Random
    & info [ "daemon" ] ~docv:"DAEMON" ~doc:"Scheduler: random or round-robin.")

let trace name n faults steps seed daemon =
  with_entry name (fun e ->
      let p = e.Cr_experiments.Registry.program n in
      let layout = Cr_guarded.Program.layout p in
      let rng = Random.State.make [| seed |] in
      (* find a canonical legitimate state to corrupt: the first
         converged state, by one sweep that stops there instead of
         listing Σ *)
      let start0 =
        let exception Found of Cr_guarded.Layout.state in
        let converged = e.Cr_experiments.Registry.converged n in
        match
          Cr_guarded.Layout.iter_states layout (fun _ s ->
              if converged s then raise (Found (Array.copy s)))
        with
        | () -> None
        | exception Found s -> Some s
      in
      match start0 with
      | None ->
          pf "no legitimate state found@.";
          1
      | Some s ->
          let s0 = Cr_fault.Injector.corrupt_k ~rng layout s ~k:faults in
          let d =
            match daemon with
            | `Random -> Cr_sim.Daemon.random ~seed
            | `RoundRobin -> Cr_sim.Daemon.round_robin ()
          in
          let render = e.Cr_experiments.Registry.render n in
          pf "legitimate start  %s@." (render s);
          pf "after %d fault(s) %s@." faults (render s0);
          let t = Cr_sim.Runner.run d p ~start:s0 ~max_steps:steps in
          List.iteri
            (fun i entry ->
              pf "%3d %-10s %s%s@." (i + 1) entry.Cr_sim.Runner.action
                (render entry.Cr_sim.Runner.state)
                (if e.Cr_experiments.Registry.converged n entry.Cr_sim.Runner.state
                 then "   [converged]"
                 else ""))
            t.Cr_sim.Runner.steps;
          0)

let trace_cmd =
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Corrupt a legitimate state and print the recovery trace")
    Term.(const trace $ system_arg $ n_arg $ faults_arg $ steps_arg $ seed_arg $ daemon_arg)

(* ---- kstate ---- *)

let kstate n =
  refusing_too_large @@ fun () ->
  pf "ring 0..%d (%d processes)@." n (n + 1);
  let mk = Cr_experiments.Ring_exps.kstate_minimal_k n in
  pf "minimal stabilizing K: %d@." mk;
  for k = 2 to n + 2 do
    let r = Cr_experiments.Ring_exps.kstate_stabilizes ~n ~k in
    pf "  K=%d: %s%s@." k
      (if r.Cr_core.Stabilize.holds then "stabilizing" else "NOT stabilizing")
      (match r.Cr_core.Stabilize.worst_case_recovery with
      | Some w when r.Cr_core.Stabilize.holds ->
          Printf.sprintf " (worst-case recovery %d)" w
      | _ -> "")
  done;
  0

let kstate_cmd =
  Cmd.v
    (Cmd.info "kstate" ~doc:"Explore the K-state stabilization threshold")
    Term.(const kstate $ n_arg)

(* ---- dot export ---- *)

let dot name n output =
  with_entry name (fun e ->
      let ep = Cr_experiments.Registry.explicit e n in
      let r = Cr_experiments.Registry.stabilization ~ep e n () in
      let good = r.Cr_core.Stabilize.good_mask in
      let highlight i =
        if Cr_kernel.Bitset.get good i then Some "palegreen" else None
      in
      let dot_text = Cr_semantics.Dot.to_string ~highlight ep in
      (match output with
      | None -> print_string dot_text
      | Some path ->
          write_file path dot_text;
          pf "wrote %s (%d states; converged region in green)@." path
            (Cr_semantics.Explicit.num_states ep));
      0)

let dot_cmd =
  let output =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Write to FILE instead of stdout.")
  in
  Cmd.v
    (Cmd.info "dot"
       ~doc:"Export the system's transition graph as Graphviz DOT, with the              converged region highlighted")
    Term.(const dot $ system_arg $ n_arg $ output)

(* ---- spans ---- *)

let spans name n =
  with_entry name (fun e ->
      let p = e.Cr_experiments.Registry.program n in
      let ep = Cr_experiments.Registry.explicit e n in
      match
        Cr_fault.Spans.analyze p ep
          (Cr_experiments.Registry.stabilization ~ep e n ())
      with
      | rows ->
          pf "%-4s %-10s %-16s %s@." "k" "span" "worst-recovery"
            "E[recovery] worst";
          List.iter
            (fun (r : Cr_fault.Spans.row) ->
              pf "%-4d %-10d %-16d %.2f@." r.Cr_fault.Spans.k
                r.Cr_fault.Spans.span r.Cr_fault.Spans.worst_recovery
                r.Cr_fault.Spans.expected_recovery)
            rows;
          0
      | exception Invalid_argument msg ->
          pf "%s@." msg;
          1)

let spans_cmd =
  Cmd.v
    (Cmd.info "spans"
       ~doc:"Fault-span analysis: recovery cost vs number of faults")
    Term.(const spans $ system_arg $ n_arg)

(* ---- lint / flow ---- *)

(* The static audits share one driver: SYSTEM or --all selects the rows,
   [report] prints them and returns the exit code, then the --json
   artifact (validated before it is written) and the --stats cost. *)
let audit cmd ~name ~all ~stats ~json ~audit_all ~audit_entry ~to_json report =
  if stats then Cr_obs.Obs.force_enable ();
  let before = if stats then Some (Cr_obs.Obs.merged_snapshot ()) else None in
  let rows =
    match (all, name) with
    | true, None -> Ok (audit_all ())
    | false, Some name -> (
        match Cr_experiments.Registry.find name with
        | Some e -> Ok [ audit_entry e ]
        | None -> Error (unknown_system name))
    | true, Some _ | false, None ->
        Format.eprintf "%s: give exactly one of SYSTEM or --all@." cmd;
        Error 2
  in
  match rows with
  | Error rc -> rc
  | Ok rows ->
      let rc = report rows in
      Option.iter
        (fun path ->
          let body = to_json rows in
          (match Cr_obs.Json_check.validate_string body with
          | Ok () -> ()
          | Error msg ->
              Format.eprintf "%s: internal error: --json artifact invalid: %s@."
                cmd msg;
              exit 3);
          write_file path body;
          pf "wrote %s@." path)
        json;
      Option.iter
        (fun before ->
          let after = Cr_obs.Obs.merged_snapshot () in
          pp_cost cmd (Some (Cr_obs.Obs.diff ~before ~after)))
        before;
      rc

(* One journal line per finding, [lint.finding] or [flow.finding]. *)
let finding_event ev system (f : Cr_lint.Lint.finding) =
  let open Cr_obs.Obs in
  event ev
    [
      ("system", S system);
      ("check", S f.key);
      ("severity", S (Cr_lint.Lint.severity_string f.severity));
      ("provenance", S (Cr_lint.Lint.provenance_string f.provenance));
      ("program", S f.program);
      ("action", S f.action);
    ]

let lint name all n json stats =
  let module L = Cr_experiments.Lint_exps in
  audit "lint" ~name ~all ~stats ~json
    ~audit_all:(fun () -> L.audit ~n ())
    ~audit_entry:(L.audit_entry ~n) ~to_json:(L.to_json ~n)
  @@ fun rows ->
  List.iter
    (fun (row : L.row) ->
      List.iter
        (fun f ->
          pf "%a@." Cr_lint.Lint.pp_finding f;
          finding_event "lint.finding" row.entry.Cr_experiments.Registry.name f)
        row.report.Cr_lint.Lint.findings)
    rows;
  let errors = L.total_errors rows in
  let findings =
    List.fold_left
      (fun acc (r : L.row) -> acc + List.length r.report.Cr_lint.Lint.findings)
      0 rows
  in
  pf "lint: %d system(s), %d finding(s), %d error(s)@." (List.length rows)
    findings errors;
  if errors > 0 then 1 else 0

let lint_cmd =
  let system_opt =
    let doc = "System to lint; see $(b,crcheck list).  Omit with $(b,--all)." in
    Arg.(value & pos 0 (some string) None & info [] ~docv:"SYSTEM" ~doc)
  in
  let all_arg =
    Arg.(value & flag & info [ "all" ] ~doc:"Lint every registry system.")
  in
  let json_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE" ~doc:"Write the findings as JSON to FILE.")
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Static analysis of the guarded-command programs: exact \
          read/write-set inference plus metadata-soundness, locality, \
          synchrony, liveness and interference checks.  Exits nonzero on \
          error-severity findings.")
    Term.(const lint $ system_opt $ all_arg $ n_arg $ json_arg $ stats_arg)

(* ---- flow ---- *)

let flow_run name all n json stats =
  let module F = Cr_experiments.Flow_exps in
  audit "flow" ~name ~all ~stats ~json
    ~audit_all:(fun () -> F.audit ~n ())
    ~audit_entry:(F.audit_entry ~n) ~to_json:(F.to_json ~n)
  @@ fun rows ->
  List.iter
    (fun (row : F.row) ->
      let fl = row.flow and system = row.entry.Cr_experiments.Registry.name in
      pf "%a" F.pp_row row;
      (let open Cr_obs.Obs in
       event "flow.report"
         [
           ("system", S system);
           ("program", S (Cr_guarded.Program.name fl.Cr_flow.Flow.program));
           ("degraded", B fl.degraded);
           ("errors", I (Cr_flow.Flow.errors fl));
           ("findings", I (List.length fl.findings));
           ( "stair_depth",
             I (Option.fold ~none:0 ~some:Cr_flow.Rank.depth row.rank) );
         ]);
      List.iter (finding_event "flow.finding" system) fl.findings)
    rows;
  let errors = F.total_errors rows in
  let findings =
    List.fold_left
      (fun acc (r : F.row) -> acc + List.length r.flow.Cr_flow.Flow.findings)
      0 rows
  in
  pf "flow: %d system(s), %d finding(s), %d error(s)@." (List.length rows)
    findings errors;
  if errors > 0 then 1 else 0

let flow_cmd =
  let system_opt =
    let doc =
      "System to analyze; see $(b,crcheck list).  Omit with $(b,--all)."
    in
    Arg.(value & pos 0 (some string) None & info [] ~docv:"SYSTEM" ~doc)
  in
  let all_arg =
    Arg.(value & flag & info [ "all" ] ~doc:"Analyze every registry system.")
  in
  let json_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE" ~doc:"Write the audit as JSON to FILE.")
  in
  Cmd.v
    (Cmd.info "flow"
       ~doc:
         "Abstract interpretation of the guarded-command programs: \
          per-slot domains, transfer functions localized by exact \
          read/write sets, the fixpoint from the initial states, lint's \
          dead-action and domain checks plus abstract domain and \
          constant-slot findings, and the convergence-stair layering of \
          the slot dependency graph.  Exits nonzero on error-severity \
          findings.")
    Term.(const flow_run $ system_opt $ all_arg $ n_arg $ json_arg $ stats_arg)

(* ---- validate ---- *)

exception Invalid of string

(* Artifact validation without a JSON dependency: [json] checks
   well-formedness only (lint/flow --json artifacts); [trace] also
   wants at least one "ph":"X" span event; [journal] wants every line to
   be an object stamped with ev/seq/rev/jobs, unique seqs, a
   journal.open header at seq 0 followed by at least one event, and an
   event matching each --expect prefix.  Exit 0 when valid, 1 if not. *)
let validate kind path expects =
  let module J = Cr_obs.Json_check in
  let invalid fmt = Printf.ksprintf (fun msg -> raise (Invalid msg)) fmt in
  let seqs = Hashtbl.create 256 in
  let journal_line lineno line =
    let j =
      match J.parse_string line with
      | Ok (J.Obj _ as j) -> j
      | Ok _ -> invalid "line %d: not a JSON object" lineno
      | Error msg -> invalid "line %d: invalid JSON: %s" lineno msg
    in
    let str k = Option.bind (J.member k j) J.to_string in
    let int_ k = Option.bind (J.member k j) J.to_int in
    match (str "ev", int_ "seq") with
    | None, _ -> invalid "line %d: missing \"ev\"" lineno
    | _, None -> invalid "line %d: missing integer \"seq\"" lineno
    | Some ev, Some seq ->
        if str "rev" = None || int_ "jobs" = None then
          invalid "line %d: missing provenance (\"rev\"/\"jobs\")" lineno;
        if Hashtbl.mem seqs seq then
          invalid "line %d: duplicate seq %d" lineno seq;
        Hashtbl.add seqs seq ();
        (seq, ev)
  in
  let check () =
    if not (Sys.file_exists path) then invalid "no such file";
    if expects <> [] && kind <> `Journal then
      invalid "--expect applies to journal files only";
    let body = In_channel.with_open_bin path In_channel.input_all in
    match kind with
    | `Json | `Trace -> (
        match (kind, J.parse_string body) with
        | _, Error msg -> invalid "invalid JSON: %s" msg
        | `Trace, Ok (J.Arr evs) ->
            let spans =
              List.filter (fun e -> J.member "ph" e = Some (J.Str "X")) evs
            in
            if spans = [] then invalid "no span events";
            Printf.sprintf "%d span event(s), %d byte(s)" (List.length spans)
              (String.length body)
        | `Trace, Ok _ -> invalid "not a trace-event array"
        | _, Ok _ -> "well-formed JSON")
    | `Journal ->
        let events =
          List.concat
            (List.mapi
               (fun i line ->
                 if String.trim line = "" then []
                 else [ journal_line (i + 1) line ])
               (String.split_on_char '\n' body))
        in
        (match events with
        | [] -> invalid "empty journal"
        | (seq0, ev0) :: rest ->
            if not (seq0 = 0 && ev0 = "journal.open") then
              invalid "first event is %S at seq %d, want journal.open at seq 0"
                ev0 seq0;
            if rest = [] then invalid "header only, no events recorded");
        let evs = List.sort compare (List.map snd events) in
        List.iter
          (fun prefix ->
            if not (List.exists (String.starts_with ~prefix) evs) then
              invalid "no event matching prefix %S" prefix)
          expects;
        let tally ev =
          Printf.sprintf "%s=%d" ev (List.length (List.filter (( = ) ev) evs))
        in
        Printf.sprintf "%d event(s): %s" (List.length evs)
          (String.concat ", " (List.map tally (List.sort_uniq compare evs)))
  in
  match check () with
  | summary ->
      pf "validate: %s OK (%s)@." path summary;
      0
  | exception Invalid msg ->
      Format.eprintf "validate: %s: %s@." path msg;
      1

let validate_cmd =
  let kind_arg =
    let kinds = [ ("json", `Json); ("trace", `Trace); ("journal", `Journal) ] in
    Arg.(
      required
      & pos 0 (some (enum kinds)) None
      & info [] ~docv:"KIND"
          ~doc:"Artifact kind: $(b,json), $(b,trace) or $(b,journal).")
  in
  let file_arg =
    Arg.(
      required
      & pos 1 (some string) None
      & info [] ~docv:"FILE" ~doc:"Artifact to check.")
  in
  let expect_arg =
    Arg.(
      value & opt_all string []
      & info [ "expect" ] ~docv:"PREFIX"
          ~doc:"Journal only: require an event whose $(b,ev) starts with \
                PREFIX.")
  in
  Cmd.v
    (Cmd.info "validate"
       ~doc:
         "Validate a --json artifact, a CR_TRACE export or a CR_JOURNAL run \
          journal; exits 1 when FILE is malformed")
    Term.(const validate $ kind_arg $ file_arg $ expect_arg)

(* ---- experiments ---- *)

let experiments_cmd =
  let max_n =
    Arg.(
      value & opt (int_from 2) 3
      & info [ "max-n" ] ~docv:"N" ~doc:"Largest ring size in the sweeps (N >= 2).")
  in
  let run max_n stats =
    if stats then Cr_obs.Obs.force_enable ();
    Cr_experiments.Report.all ~ns:(List.init (max_n - 1) (fun i -> i + 2)) ();
    0
  in
  Cmd.v
    (Cmd.info "experiments"
       ~doc:
         "Regenerate every experiment table at ring sizes 2..N.  \
          $(b,bench/main.exe) prints the same tables at the sizes \
          EXPERIMENTS.md reports: like $(b,--max-n 5), plus N = 6..8 \
          of the direct stabilization tables (E4, E6, E8) and N = 6 of \
          the K-state table (E11), then a closing $(b,done.) line")
    Term.(const run $ max_n $ stats_arg)

let main =
  let doc = "model checking and refinement checking for Convergence Refinement" in
  let info = Cmd.info "crcheck" ~version:"1.0.0" ~doc in
  Cmd.group info [ list_cmd; verify_cmd; refine_cmd; trace_cmd; kstate_cmd; spans_cmd; dot_cmd; lint_cmd; flow_cmd; validate_cmd; experiments_cmd ]

let () = exit (Cmd.eval' main)
