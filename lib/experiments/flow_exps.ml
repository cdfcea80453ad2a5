(* Registry-wide abstract-interpretation audit: run the Cr_flow engine
   over every bundled system's program at one ring size, derive the
   convergence-stair layering, and cross-check against the registry's
   actual stabilization verdicts.  Backs [crcheck flow --all]. *)

type row = {
  entry : Registry.entry;
  flow : Cr_flow.Flow.t;
  rank : Cr_flow.Rank.t option;
  verdict : bool option;
      (* the registry stabilization verdict, when cheap enough to ask *)
}

(* Asking the model checker for a verdict compiles the explicit system;
   keep that to spaces the CSR kernels handle instantly so the audit
   stays a static-analysis command. *)
let verdict_budget = 1 lsl 17

let audit_entry ~n (e : Registry.entry) : row =
  let flow = Cr_flow.Flow.analyze (e.Registry.program n) in
  let rank = Cr_flow.Rank.of_flow flow in
  let verdict =
    if flow.Cr_flow.Flow.num_states > verdict_budget then None
    else
      try
        Some (Registry.stabilization e n ()).Cr_core.Stabilize.holds
      with _ -> None
  in
  { entry = e; flow; rank; verdict }

let audit ?(n = 3) () : row list =
  Cr_obs.Obs.span "lint.flow.audit_all" @@ fun () ->
  List.map (audit_entry ~n) Registry.entries

let total_errors rows =
  List.fold_left (fun acc r -> acc + Cr_flow.Flow.errors r.flow) 0 rows

(* ---- JSON artifact ---- *)

let finding_json = Cr_lint.Lint.finding_to_json

let rank_json layout (rk : Cr_flow.Rank.t) =
  let layer_json comps =
    Printf.sprintf "[%s]"
      (String.concat ","
         (Array.to_list
            (Array.map
               (fun c ->
                 Printf.sprintf "[%s]"
                   (String.concat ","
                      (Array.to_list
                         (Array.map
                            (fun s ->
                              Printf.sprintf "\"%s\""
                                (Cr_lint.Lint.json_escape
                                   (Cr_guarded.Layout.var_name layout s)))
                            rk.Cr_flow.Rank.components.(c)))))
               comps)))
  in
  Printf.sprintf "{\"acyclic\":%b,\"depth\":%d,\"layers\":[%s]}"
    rk.Cr_flow.Rank.acyclic
    (Cr_flow.Rank.depth rk)
    (String.concat ","
       (Array.to_list (Array.map layer_json rk.Cr_flow.Rank.layers)))

let row_json (r : row) =
  let fl = r.flow in
  Printf.sprintf
    "{\"entry\":\"%s\",\"program\":\"%s\",\"num_states\":%d,\"degraded\":%b,\"errors\":%d,\"init_rounds\":%d,\"init_sound\":%b,\"findings\":[%s],\"stair\":%s,\"stabilizing\":%s}"
    (Cr_lint.Lint.json_escape r.entry.Registry.name)
    (Cr_lint.Lint.json_escape
       (Cr_guarded.Program.name fl.Cr_flow.Flow.program))
    fl.Cr_flow.Flow.num_states fl.Cr_flow.Flow.degraded
    (Cr_flow.Flow.errors fl)
    fl.Cr_flow.Flow.init_rounds fl.Cr_flow.Flow.init_sound
    (String.concat "," (List.map finding_json fl.Cr_flow.Flow.findings))
    (match r.rank with
    | None -> "null"
    | Some rk -> rank_json fl.Cr_flow.Flow.layout rk)
    (match r.verdict with
    | None -> "null"
    | Some b -> string_of_bool b)

let to_json ~n rows =
  Printf.sprintf "{%s,\"systems\":[%s]}"
    (Cr_lint.Lint.artifact_header ~version:1 ~n)
    (String.concat "," (List.map row_json rows))

(* ---- rendering ---- *)

let pp_row fmt (r : row) =
  let fl = r.flow in
  Cr_flow.Flow.pp_summary fmt fl;
  List.iter
    (fun f -> Fmt.pf fmt "  %a@." Cr_lint.Lint.pp_finding f)
    fl.Cr_flow.Flow.findings;
  (match r.rank with
  | None -> Fmt.pf fmt "  stair: (degraded, no exact support)@."
  | Some rk ->
      Fmt.pf fmt "  stair (%s, depth %d):@."
        (if rk.Cr_flow.Rank.acyclic then "acyclic — true per-slot order"
         else "cyclic components marked *")
        (Cr_flow.Rank.depth rk);
      Cr_flow.Rank.pp fl.Cr_flow.Flow.layout fmt rk);
  match r.verdict with
  | None -> ()
  | Some b ->
      Fmt.pf fmt "  registry stabilization verdict: %s@."
        (if b then "stabilizing" else "not stabilizing")

let pp_summary fmt rows =
  List.iter
    (fun r ->
      Fmt.pf fmt "%-14s %-26s %s, %d finding(s), %d error(s), stair %s@."
        r.entry.Registry.name
        (Cr_guarded.Program.name r.flow.Cr_flow.Flow.program)
        (if r.flow.Cr_flow.Flow.degraded then "degraded"
         else Printf.sprintf "%d states" r.flow.Cr_flow.Flow.num_states)
        (List.length r.flow.Cr_flow.Flow.findings)
        (Cr_flow.Flow.errors r.flow)
        (match r.rank with
        | None -> "-"
        | Some rk ->
            Printf.sprintf "depth %d%s" (Cr_flow.Rank.depth rk)
              (if rk.Cr_flow.Rank.acyclic then " (acyclic)" else "")))
    rows
