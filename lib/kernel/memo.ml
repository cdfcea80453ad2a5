(* Content-addressed, single-flight memo tables: the one cache behind
   both the explicit-state compile ([Cr_guarded.Program]) and the
   checker verdicts ([Cr_core.Refine], [Cr_core.Stabilize]).

   Keys are fingerprints built by the caller (usually through [Fp]);
   values are whatever the caller computes.  A domain that misses
   publishes an in-flight marker, computes outside the lock, then
   broadcasts; concurrent requesters of the same key block until the
   value lands and count a hit.  Hit/miss totals are therefore exactly
   those of the sequential schedule — the CR_JOBS counter-invariance of
   [Cr_obs] extends to every memo.

   [CR_CACHE=0] disables every memo (each call computes);
   [CR_CACHE_PARANOID=1] recomputes on every hit and asserts the cached
   value is [same] as the fresh one. *)

(* Counters are registered once per name: several memos may report
   under one name (the refine and stabilize verdict memos are both
   [check]).  The wait histogram is only populated under CR_JOBS > 1,
   so (unlike hit/miss totals) it is schedule-dependent — a
   distribution to eyeball, not an invariant. *)
type stats = {
  hits : Cr_obs.Obs.counter;
  misses : Cr_obs.Obs.counter;
  wait : Cr_obs.Obs.histogram;
  ev_hit : string;
  ev_miss : string;
  ev_wait : string;
}

type 'v slot = Inflight | Done of 'v

type 'v t = {
  name : string;
  stats : stats;
  m : Mutex.t;
  cv : Condition.t;
  tbl : (string, 'v slot) Hashtbl.t;
}

(* Guards the two process-wide registries below. *)
let lock = Mutex.create ()
let stats_by_name : (string, stats) Hashtbl.t = Hashtbl.create 4
let clearers : (unit -> unit) list ref = ref []

let stats_of name =
  Mutex.protect lock (fun () ->
      match Hashtbl.find_opt stats_by_name name with
      | Some s -> s
      | None ->
          let p = name ^ ".cache." in
          let s =
            {
              hits = Cr_obs.Obs.counter (p ^ "hits");
              misses = Cr_obs.Obs.counter (p ^ "misses");
              wait = Cr_obs.Obs.histogram (p ^ "wait_us");
              ev_hit = p ^ "hit";
              ev_miss = p ^ "miss";
              ev_wait = p ^ "wait";
            }
          in
          Hashtbl.add stats_by_name name s;
          s)

let clear t =
  Mutex.protect t.m (fun () ->
      (* never drop an in-flight marker: its computation will publish
         into the (now smaller) table and broadcast as usual *)
      let keep =
        Hashtbl.fold
          (fun k v acc -> match v with Inflight -> (k, v) :: acc | Done _ -> acc)
          t.tbl []
      in
      Hashtbl.reset t.tbl;
      List.iter (fun (k, v) -> Hashtbl.add t.tbl k v) keep)

let create ~name =
  let t =
    {
      name;
      stats = stats_of name;
      m = Mutex.create ();
      cv = Condition.create ();
      tbl = Hashtbl.create 64;
    }
  in
  Mutex.protect lock (fun () -> clearers := (fun () -> clear t) :: !clearers);
  t

let clear_all () = List.iter (fun f -> f ()) (Mutex.protect lock (fun () -> !clearers))

(* Per-domain bypass, for benchmarks/tests that need a guaranteed fresh
   computation without touching the process environment. *)
let bypassed : bool Domain.DLS.key = Domain.DLS.new_key (fun () -> false)

let bypass f =
  let saved = Domain.DLS.get bypassed in
  Domain.DLS.set bypassed true;
  Fun.protect ~finally:(fun () -> Domain.DLS.set bypassed saved) f

let enabled () =
  (not (Domain.DLS.get bypassed))
  &&
  match Sys.getenv_opt "CR_CACHE" with
  | Some s when String.trim s = "0" -> false
  | _ -> true

let paranoid () =
  match Sys.getenv_opt "CR_CACHE_PARANOID" with
  | None | Some "" | Some "0" -> false
  | Some _ -> true

let find t ~key ~same f =
  if not (enabled ()) then (f (), true)
  else begin
    let key = key () in
    let s = t.stats in
    Mutex.lock t.m;
    let wait_start = ref None in
    let rec lookup () =
      match Hashtbl.find_opt t.tbl key with
      | Some (Done v) -> `Hit v
      | Some Inflight ->
          if !wait_start = None then wait_start := Some (Cr_obs.Obs.now_us ());
          Condition.wait t.cv t.m;
          lookup ()
      | None ->
          Hashtbl.add t.tbl key Inflight;
          `Miss
    in
    let outcome = lookup () in
    Mutex.unlock t.m;
    (match !wait_start with
    | None -> ()
    | Some t0 ->
        let waited = Cr_obs.Obs.now_us () -. t0 in
        Cr_obs.Obs.observe s.wait (int_of_float waited);
        Cr_obs.Journal.emit s.ev_wait
          [ ("key", Cr_obs.Journal.S key); ("wait_us", Cr_obs.Journal.F waited) ]);
    match outcome with
    | `Hit v ->
        Cr_obs.Obs.incr s.hits;
        Cr_obs.Journal.emit s.ev_hit [ ("key", Cr_obs.Journal.S key) ];
        if paranoid () then begin
          let fresh = f () in
          if not (same v fresh) then
            invalid_arg
              (Printf.sprintf
                 "Memo %s: paranoid mode: cached value differs from a fresh \
                  computation (key %s)"
                 t.name key);
          (fresh, true)
        end
        else (v, false)
    | `Miss -> (
        Cr_obs.Obs.incr s.misses;
        Cr_obs.Journal.emit s.ev_miss [ ("key", Cr_obs.Journal.S key) ];
        match f () with
        | v ->
            Mutex.protect t.m (fun () ->
                Hashtbl.replace t.tbl key (Done v);
                Condition.broadcast t.cv);
            (v, true)
        | exception e ->
            (* let waiters retry (and re-raise for themselves) *)
            Mutex.protect t.m (fun () ->
                Hashtbl.remove t.tbl key;
                Condition.broadcast t.cv);
            raise e)
  end

(* Two independent FNV-1a-style folds over native ints: 126 bits of
   accumulated state, no allocation per step.  Native-int
   multiplication wraps silently, which is exactly what a rolling hash
   wants. *)
module Fp = struct
  let fnv1 = 0x100000001b3
  let fnv2 = 0x27d4eb2f165667c5

  type t = { mutable h1 : int; mutable h2 : int }

  let create () = { h1 = 0x3bf29ce484222325; h2 = 0x1e3779b97f4a7c15 }

  let add_int t x =
    t.h1 <- (t.h1 lxor x) * fnv1;
    t.h2 <- (t.h2 lxor x) * fnv2

  let add_int_array t a =
    add_int t (Array.length a);
    Array.iter (fun x -> add_int t x) a

  let to_hex t = Printf.sprintf "%x.%x" t.h1 t.h2
end
