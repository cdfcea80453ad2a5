(* Cr_lint: a static-analysis pass over guarded-command programs.

   Every system in the reproduction declares a [proc] per action and
   writes its actions as parallel assignments whose guards and
   right-hand sides are opaque closures; the synchronous daemon, wrapper
   priority and the read/write-atomicity experiment all silently trust
   the process metadata and the assigned slots.  This pass makes the
   trust assumptions checkable: it infers exact read/write sets per
   action (Rwsets) and runs a battery of keyed checks.

   Check catalogue (keys, default severities):
     W2 warning  idle assignment: an assigned slot no firing changes
     P1 error    ownership violation: a slot is written by several processes
                 (info when allowlisted — the paper's abstract
                 neighbour-writing models do this on purpose)
     G1 warning  same-process overlap with diverging effects: makes
                 Program.synchronous_step's first-enabled-per-process
                 choice order-dependent
     D1 error    domain violation: an assigned value can leave its domain
     U1 warning  dead action: never enabled in the full state space
        info     live in the full space but never enabled from the
                 initial states (fault-free executions)
     S1 warning  stuttering-only action: enabled somewhere, but every
                 firing is a no-op
     I1 info     interference pair: process i writes a slot that an
                 action of process j reads — unless the reader is an
                 atomic read step (single verbatim copy of one remote
                 slot into a private slot), the refinement shape that
                 makes the hazard disappear in the rw_atomicity system
     L1 error    duplicate action labels across a box composition
     B1 info     budget: the state space exceeds the exact-analysis
                 budget, so no check ran

   Since lint v2 every finding carries a provenance tag: [Exact] for
   verdicts from full enumeration, [Abstract] for definite verdicts
   derived from the Cr_flow over-approximating fixpoints.  Cr_flow
   reports D1, U1/S1 and B1 through the functions below, so a fact has
   one key in both audits; it adds only its own F2 (abstract) and F3
   keys, via [merge]. *)

open Cr_guarded

type severity = Error | Warning | Info

let severity_string = function
  | Error -> "error"
  | Warning -> "warning"
  | Info -> "info"

(* How a finding was established.  [Exact] verdicts come from full
   enumeration (Rwsets differencing, reachable closures, localized
   scans); [Abstract] verdicts come from a sound over-approximation
   (Cr_flow fixpoints) — still definite, but derived without visiting
   the concrete states. *)
type provenance = Exact | Abstract

let provenance_string = function Exact -> "exact" | Abstract -> "abstract"

type finding = {
  key : string;
  severity : severity;
  provenance : provenance;
  program : string;
  action : string;  (* "-" for program-level findings *)
  message : string;
}

type report = {
  program_name : string;
  findings : finding list;
  infos : Rwsets.info list;  (* the inferred read/write sets, per action *)
}

let c_programs = Cr_obs.Obs.counter "lint.programs"
let c_findings = Cr_obs.Obs.counter "lint.findings"
let c_errors = Cr_obs.Obs.counter "lint.errors"

let errors r =
  List.length (List.filter (fun f -> f.severity = Error) r.findings)

let find_key key r = List.filter (fun f -> f.key = key) r.findings

(* ---- helpers ---- *)

let finding p provenance key severity action message =
  { key; severity; provenance; program = Program.name p; action; message }

let slot_names layout slots =
  String.concat "," (List.map (Layout.var_name layout) slots)

let state_str layout s = Fmt.str "%a" (Layout.pp_state layout) s

let diff_sorted a b = List.filter (fun x -> not (List.mem x b)) a

(* ---- the checks ---- *)

(* W2: assigned slots vs the exact write set (a subset of them: a slot
   no assignment names cannot change).  Only meaningful for actions that
   fire at all; dead or stuttering-only actions are reported by U1/S1
   instead. *)
let check_writes layout mk info =
  let a = info.Rwsets.action in
  let idle =
    diff_sorted (List.sort_uniq compare (Action.writes a)) info.Rwsets.writes
  in
  if idle = [] || info.Rwsets.firing_states = 0 then []
  else
    [
      mk "W2" Warning (Action.label a)
        (Printf.sprintf "assigned slot(s) {%s} never changed by a firing"
           (slot_names layout idle));
    ]

(* writers.(w): the processes (>= 0) whose actions write slot w, each
   with the label of its first action that does, newest entry first —
   the one table P1 and I1 read. *)
let writer_table layout infos =
  let writers = Array.make (Layout.num_vars layout) [] in
  List.iter
    (fun info ->
      let p = Action.proc info.Rwsets.action in
      if p >= 0 then
        List.iter
          (fun w ->
            if not (List.mem_assoc p writers.(w)) then
              writers.(w) <- (p, Action.label info.Rwsets.action) :: writers.(w))
          info.Rwsets.writes)
    infos;
  writers

(* P1: a slot exactly-written by actions of two or more distinct
   processes.  Under interleaving semantics that is a locality violation
   for the paper's concrete systems; the abstract neighbour-writing
   models (BTR, BTR_3, UTR) do it on purpose and are allowlisted. *)
let check_ownership layout mk ~allowed writers =
  let fs = ref [] in
  for w = Layout.num_vars layout - 1 downto 0 do
    let ps = List.sort_uniq compare (List.map fst writers.(w)) in
    if List.length ps >= 2 then begin
      let sev = if allowed then Info else Error in
      let note = if allowed then " (allowlisted: abstract neighbour-writing model)" else "" in
      fs :=
        mk "P1" sev "-"
          (Printf.sprintf "slot %s written by processes %s (actions %s)%s"
             (Layout.var_name layout w)
             (String.concat "," (List.map string_of_int ps))
             (String.concat ", " (List.rev_map snd writers.(w)))
             note)
        :: !fs
    end
  done;
  !fs

(* G1: two actions of one process both fire at some state with different
   results under the synchronous daemon's merge of their assignments —
   the first-enabled-per-process choice is then order-dependent.

   The scan is pair-localized: whether a same-process pair conflicts
   somewhere is a function of the slots in

     U = guard_reads(a) + guard_reads(b) + effect_reads(a)
       + effect_reads(b) + assigned(a) + assigned(b)

   only.  Guards depend exactly on their guard-read slots, written
   outputs among enabled states depend exactly on the effect-read slots
   (Rwsets' differencing theorems), and the synchronous merge writes the
   assigned slots — so the whole conflict predicate is invariant under
   changing any slot outside U, and enumerating the U-product with
   every other slot pinned at 0 decides the pair exactly.  Cost drops
   from O(num_states * procs) to the (typically tiny) per-pair support
   product; a pair whose product still exceeds [budget] is skipped
   (inconclusive), so huge layouts degrade instead of blowing up. *)
let check_sync_overlap layout mk ~budget infos =
  Cr_obs.Obs.span "lint.g1_scan" @@ fun () ->
  let nv = Layout.num_vars layout in
  let fs = ref [] in
  (* The assigned slots join the support because the fire/no-op
     distinction (a no-op is not a firing, so it never enters the
     synchronous merge) compares the assigned values against the state's
     own slots. *)
  let support info =
    List.sort_uniq compare
      (info.Rwsets.guard_reads @ info.Rwsets.effect_reads
      @ Action.writes info.Rwsets.action)
  in
  (* the value the merge leaves in slot [w]: the action's assigned value,
     or the state's own *)
  let merged (a : Action.t) s w =
    match Array.find_opt (fun (x, _) -> x = w) a.Action.assign with
    | Some (_, e) -> e s
    | None -> s.(w)
  in
  let fires (a : Action.t) s =
    Array.exists (fun (x, e) -> e s <> s.(x)) a.Action.assign
  in
  let conflict ia ib =
    let a = ia.Rwsets.action and b = ib.Rwsets.action in
    let u = List.sort_uniq compare (support ia @ support ib) in
    let product =
      List.fold_left (fun acc i -> acc * Layout.dom layout i) 1 u
    in
    if product > budget then None
    else begin
      let u = Array.of_list u in
      let s = Array.make nv 0 in
      let witness = ref None in
      let k = ref 0 in
      while !witness = None && !k < product do
        (* decode combo !k into the U slots of the scratch state *)
        let r = ref !k in
        Array.iter
          (fun i ->
            let d = Layout.dom layout i in
            s.(i) <- !r mod d;
            r := !r / d)
          u;
        (* Only genuine firings enter the synchronous merge. *)
        if a.Action.guard s && b.Action.guard s && fires a s && fires b s
        then begin
          if
            List.exists
              (fun w -> merged a s w <> merged b s w)
              (List.sort_uniq compare (Action.writes a @ Action.writes b))
          then witness := Some (Array.copy s)
        end;
        incr k
      done;
      Option.map (fun w -> (w, product)) !witness
    end
  in
  let infos = Array.of_list infos in
  let n = Array.length infos in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let ia = infos.(i) and ib = infos.(j) in
      let pr = Action.proc ia.Rwsets.action in
      if pr = Action.proc ib.Rwsets.action then
        match conflict ia ib with
        | None -> ()
        | Some (s, _) ->
            fs :=
              mk "G1" Warning
                (Action.label ia.Rwsets.action)
                (Printf.sprintf
                   "actions %s and %s of process %d both fire at %s \
                    with different synchronous-merge results \
                    (synchronous_step is action-order dependent)"
                   (Action.label ia.Rwsets.action)
                   (Action.label ib.Rwsets.action)
                   pr (state_str layout s))
              :: !fs
    done
  done;
  List.rev !fs

(* D1: an enabled state whose assignment leaves the layout. *)
let check_domains p info =
  match info.Rwsets.invalid_witness with
  | None -> []
  | Some s ->
      [
        finding p Exact "D1" Error (Action.label info.Rwsets.action)
          (Printf.sprintf "effect leaves the variable domains at %s"
             (state_str (Program.layout p) s));
      ]

(* U1/S1: dead and stuttering-only actions.  The reachable variant asks
   about actions that are live in the full space.  The abstract
   pre-filter ([init_dead], from the Cr_flow init fixpoint) answers
   first: the guard unsatisfiable over an over-approximation of the
   fault-free reachable values is a definite dead-from-init verdict,
   obtained without the exact reachable closure.  Only then does
   [live_from_init], the exact fallback, decide. *)
let check_liveness p ~init_dead ~live_from_init info =
  let a = info.Rwsets.action in
  let lbl = Action.label a in
  if info.Rwsets.enabled_states = 0 then
    [ finding p Exact "U1" Warning lbl "never enabled in the full state space" ]
  else if info.Rwsets.firing_states = 0 then
    [
      finding p Exact "S1" Warning lbl
        (Printf.sprintf
           "stuttering-only: enabled at %d state(s) but every firing is a no-op"
           info.Rwsets.enabled_states);
    ]
  else if init_dead lbl then
    [
      finding p Abstract "U1" Info lbl
        "never enabled from the initial states (abstract init fixpoint: \
         guard unsatisfiable over the reachable value over-approximation)";
    ]
  else if live_from_init a then []
  else
    [
      finding p Exact "U1" Info lbl
        "never enabled from the initial states (fault-free executions)";
    ]

(* I1: interference pairs.  Process i writes a slot that an action of
   process j reads (in its guard or effect) — the read races with the
   write under interleaving at low atomicity.  The reader is exempt when
   it is an atomic read step: it writes exactly one slot, private to its
   process, as a verbatim copy of the single remote slot it reads — the
   rw_atomicity refinement's cache-fill shape. *)
let check_interference layout mk ~writers infos =
  (* touched.(w) = procs of every action reading or writing w (incl. -1) *)
  let touched = Array.make (Layout.num_vars layout) [] in
  List.iter
    (fun info ->
      let p = Action.proc info.Rwsets.action in
      let touch w =
        if not (List.mem p touched.(w)) then touched.(w) <- p :: touched.(w)
      in
      List.iter touch info.Rwsets.writes;
      List.iter touch (Rwsets.reads info))
    infos;
  let cross_reads info =
    let p = Action.proc info.Rwsets.action in
    List.filter
      (fun r -> List.exists (fun (q, _) -> q <> p) writers.(r))
      (Rwsets.reads info)
  in
  let is_read_step info =
    let p = Action.proc info.Rwsets.action in
    match (info.Rwsets.writes, cross_reads info) with
    | [ w ], [ r ] ->
        (* private destination: no other process touches w *)
        List.for_all (fun q -> q = p) touched.(w)
        && List.mem r info.Rwsets.copy_sources
    | _ -> false
  in
  List.concat_map
    (fun reader ->
      let pj = Action.proc reader.Rwsets.action in
      if pj < 0 || is_read_step reader then []
      else
        List.filter_map
          (fun r ->
            match List.filter (fun (q, _) -> q <> pj) writers.(r) with
            | [] -> None
            | remote ->
                Some
                  (mk "I1" Info
                     (Action.label reader.Rwsets.action)
                     (Printf.sprintf
                        "reads slot %s written by other process(es): %s"
                        (Layout.var_name layout r)
                        (String.concat ", "
                           (List.rev_map
                              (fun (q, lbl) -> Printf.sprintf "%s (proc %d)" lbl q)
                              remote)))))
          (cross_reads reader))
    infos

(* L1: duplicate action labels (box compositions can silently collide). *)
let check_labels mk p =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun a ->
      let l = Action.label a in
      Hashtbl.replace tbl l (1 + (try Hashtbl.find tbl l with Not_found -> 0)))
    (Program.actions p);
  Hashtbl.fold
    (fun l n acc ->
      if n > 1 then
        mk "L1" Error l
          (Printf.sprintf "label occurs %d times across the composition" n)
        :: acc
      else acc)
    tbl []

(* ---- the pass ---- *)

let key_order =
  [ "W2"; "P1"; "G1"; "D1"; "U1"; "S1"; "I1"; "L1"; "F2"; "F3"; "B1" ]

let key_rank k =
  let rec go i = function
    | [] -> List.length key_order
    | x :: tl -> if x = k then i else go (i + 1) tl
  in
  go 0 key_order

let sort_findings findings =
  List.stable_sort
    (fun a b -> compare (key_rank a.key) (key_rank b.key))
    findings

let merge r extra = { r with findings = sort_findings (r.findings @ extra) }

let default_exact_budget = 1 lsl 22

(* B1: every check rests on the full-space Rwsets pass, so past the
   budget neither audit starts it, where it would blow up; one info
   finding records the degradation. *)
let over_budget ~exact_budget p =
  let ns = Layout.num_states (Program.layout p) in
  if ns <= exact_budget then None
  else
    Some
      (finding p Exact "B1" Info "-"
         (Printf.sprintf
            "state space (%s) exceeds the exact-analysis budget (%d); no \
             check ran (read/write-set inference is a full-space pass)"
            (Layout.states_string ns) exact_budget))

let run ?(allow = []) ?(exact_budget = default_exact_budget) ?infos
    ?(init_dead = fun _ -> false) (p : Program.t) : report =
  Cr_obs.Obs.span "lint.program" @@ fun () ->
  let name = Program.name p in
  Cr_obs.Obs.incr c_programs;
  match over_budget ~exact_budget p with
  | Some b1 ->
      Cr_obs.Obs.add c_findings 1;
      { program_name = name; findings = [ b1 ]; infos = [] }
  | None ->
      let layout = Program.layout p in
      let mk = finding p Exact in
      let infos =
        match infos with Some is -> is | None -> Rwsets.of_program p
      in
      (* forced only when some action needs the exact fallback *)
      let reachable =
        lazy
          (Cr_obs.Obs.span "lint.reachable" @@ fun () ->
           Program.reachable_from p (Program.initial_states p))
      in
      let live_from_init a =
        try
          Layout.Tbl.iter
            (fun s () -> if a.Action.guard s then raise Exit)
            (Lazy.force reachable);
          false
        with Exit -> true
      in
      let writers = writer_table layout infos in
      let findings =
        List.concat
          [
            List.concat_map (check_writes layout mk) infos;
            check_ownership layout mk ~allowed:(List.mem "P1" allow) writers;
            check_sync_overlap layout mk ~budget:exact_budget infos;
            List.concat_map (check_domains p) infos;
            List.concat_map (check_liveness p ~init_dead ~live_from_init) infos;
            check_interference layout mk ~writers infos;
            check_labels mk p;
          ]
      in
      let findings = sort_findings findings in
      Cr_obs.Obs.add c_findings (List.length findings);
      Cr_obs.Obs.add c_errors
        (List.length (List.filter (fun f -> f.severity = Error) findings));
      { program_name = name; findings; infos }

(* ---- rendering ---- *)

(* Exact findings render exactly as before; abstract ones carry a
   marker so provenance is visible in terminal output too. *)
let pp_finding fmt f =
  Fmt.pf fmt "%-3s %-7s %-22s %-14s %s%s" f.key (severity_string f.severity)
    f.program f.action f.message
    (match f.provenance with Exact -> "" | Abstract -> " [abstract]")

(* Minimal JSON emission (validated by Cr_obs.Json_check; no JSON
   dependency), through the one telemetry escaper. *)
let json_escape = Cr_obs.Obs.json_escape

let finding_to_json f =
  Printf.sprintf
    "{\"key\":\"%s\",\"severity\":\"%s\",\"provenance\":\"%s\",\"program\":\"%s\",\"action\":\"%s\",\"message\":\"%s\"}"
    (json_escape f.key)
    (severity_string f.severity)
    (provenance_string f.provenance)
    (json_escape f.program) (json_escape f.action) (json_escape f.message)

let report_to_json ?(entry = "") r =
  Printf.sprintf
    "{\"entry\":\"%s\",\"program\":\"%s\",\"errors\":%d,\"findings\":[%s]}"
    (json_escape entry)
    (json_escape r.program_name)
    (errors r)
    (String.concat "," (List.map finding_to_json r.findings))

(* Provenance header shared by every findings artifact (lint and flow),
   matching the bench/journal convention: tool identity plus the run's
   git revision and effective job count. *)
let artifact_header ~version ~n =
  Printf.sprintf
    "\"version\":%d,\"tool\":\"crcheck\",\"tool_version\":\"1.0.0\",\"git_rev\":\"%s\",\"cr_jobs\":%d,\"n\":%d"
    version
    (json_escape (Cr_obs.Obs.git_rev ()))
    (Cr_obs.Obs.jobs_env ()) n

let reports_to_json ~n (rs : (string * report) list) =
  Printf.sprintf "{%s,\"systems\":[%s]}"
    (artifact_header ~version:2 ~n)
    (String.concat ","
       (List.map (fun (entry, r) -> report_to_json ~entry r) rs))
