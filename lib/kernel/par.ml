(* Deterministic multicore fan-out for embarrassingly parallel sweeps,
   served by a persistent domain pool.

   Work items are claimed from an atomic index counter, so chunks of
   uneven cost balance dynamically across domains.  Results land in a
   preallocated array slot per item, so the merged output is independent
   of which domain computed which item — running with any number of jobs
   yields exactly the array [Array.map f a] would.

   The job count comes from the [CR_JOBS] environment variable and
   defaults to 1, in which case no domain is ever involved and the code
   path is the plain sequential map (output byte-identical to the
   pre-multicore checker).  Callers may force a count with [?jobs] or
   scope one with [with_jobs].

   The pool: the first parallel call spawns [jobs - 1] worker domains
   and parks them on a condition variable; every later call is a
   broadcast handoff (the pool grows if a later call wants more
   workers).  This replaces the original per-call [Domain.spawn] /
   [Domain.join], whose setup cost (~ms per domain on a loaded host)
   dwarfed the work of medium-sized sweeps and made [CR_JOBS=4] *slower*
   than sequential on every bench row.  Workers are joined by an
   [at_exit] hook (and by {!shutdown_pool}), so a process never exits
   with live domains.

   Tiny sweeps skip even the handoff: below [min_items] (4) items the
   map runs sequentially on the calling domain.

   This module lives in [Cr_kernel], the base layer below both
   [Cr_semantics] (whose explicit-state compiler chunks its state space
   across domains) and [Cr_checker] (whose sweeps fan out the same
   way). *)

(* Telemetry: pool lifecycle and per-task traffic.  [par.pool.size] is a
   high-water mark; the rest are sums.  All are no-ops unless
   CR_STATS/CR_TRACE is on (see [Cr_obs.Obs]). *)
let c_pool_spawned = Cr_obs.Obs.counter "par.pool.spawned"
let c_pool_size = Cr_obs.Obs.counter ~kind:Cr_obs.Obs.Max "par.pool.size"
let c_task_runs = Cr_obs.Obs.counter "par.task.runs"
let c_task_items = Cr_obs.Obs.counter "par.task.items"
let c_task_sequential = Cr_obs.Obs.counter "par.task.sequential"
let c_task_capped = Cr_obs.Obs.counter "par.task.capped"

(* A malformed CR_JOBS used to fall through silently to 1; it still does,
   but now says so once (per process) on stderr. *)
let warned_bad_jobs = Atomic.make false

let jobs_env () =
  match Sys.getenv_opt "CR_JOBS" with
  | None -> 1
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some 0 -> Domain.recommended_domain_count ()
      | Some k when k >= 1 -> k
      | Some _ | None ->
          if not (Atomic.exchange warned_bad_jobs true) then
            Printf.eprintf
              "cr-par: ignoring invalid CR_JOBS=%s (want an integer >= 0); \
               running sequentially\n\
               %!"
              s;
          1)

(* Small-work cutoff: a parallel map over fewer items than this runs
   sequentially on the calling domain — the tiny Report-table sweeps at
   N <= 3 finish faster than a pool handoff costs. *)
let min_items = 4

(* Oversubscription guard: a fan-out never runs on more *busy* domains
   than the hardware has cores.  On OCaml 5 every minor collection is a
   stop-the-world sync across all running domains, so busy domains
   beyond the core count only add scheduling latency to each collection
   — measured on the single-core CI container, an allocation-heavy
   compile at CR_JOBS=4 ran 1.8x slower than sequential from GC syncs
   alone, and capping repairs it to parity.  Chunking and algorithm
   selection still follow the *requested* job count (the two-phase
   classify path, chunk geometry and the byte-identical contract do not
   depend on how many domains execute the chunks); only the executor
   count is capped.  Requests above the cap tick [par.task.capped].
   [CR_PAR_CAP] overrides the cap — tests and CI use it to exercise the
   real pool machinery on hosts with fewer cores than jobs. *)
let warned_bad_cap = Atomic.make false

let busy_cap () =
  match Sys.getenv_opt "CR_PAR_CAP" with
  | None -> Domain.recommended_domain_count ()
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some k when k >= 1 -> k
      | Some _ | None ->
          if not (Atomic.exchange warned_bad_cap true) then
            Printf.eprintf
              "cr-par: ignoring invalid CR_PAR_CAP=%s (want an integer >= \
               1)\n\
               %!"
              s;
          Domain.recommended_domain_count ())

(* Nested calls (a parallel table row that itself sweeps Monte-Carlo
   episodes) run sequentially: the outer fan-out already occupies the
   cores, and handing the inner items back to the pool would deadlock a
   worker on its own task queue.  Pool workers set the flag once at
   spawn — they only ever run inside a fan-out. *)
let inside : bool Domain.DLS.key = Domain.DLS.new_key (fun () -> false)

(* Per-domain job-count override, for benchmarks and tests that want a
   specific fan-out without mutating the process environment. *)
let override : int option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let current_jobs () =
  if Domain.DLS.get inside then 1
  else
    match Domain.DLS.get override with
    | Some k -> max 1 k
    | None -> jobs_env ()

let with_jobs k f =
  let saved = Domain.DLS.get override in
  Domain.DLS.set override (Some k);
  Fun.protect ~finally:(fun () -> Domain.DLS.set override saved) f

(* ---------- the persistent pool ---------- *)

(* One task = one fan-out.  [run] computes item [i] into its
   uniquely-owned output slot and must not raise ([run_items] wraps the
   caller's function); [next] is the shared claim counter, [left] counts
   completed items down to zero.  Only workers with id < [workers]
   participate, so a wide warm pool still honours a narrow [?jobs]. *)
type task = {
  run : int -> unit;
  total : int;
  workers : int;
  next : int Atomic.t;
  left : int Atomic.t;
  mutable failed : (int * exn) option;
      (* lowest-index failure; protected by [pool.m] *)
}

type pool = {
  m : Mutex.t;
  work : Condition.t;  (* workers park here between tasks *)
  idle : Condition.t;  (* the submitter waits here for [left] = 0 *)
  mutable task : task option;
  mutable gen : int;  (* bumped once per submitted task *)
  mutable domains : unit Domain.t list;
  mutable size : int;
  mutable stop : bool;
}

(* Claim-and-run loop shared by the submitter and the workers.  The
   completion count is decremented only after [run] returns, so when it
   reaches zero no domain is still executing an item.  A failing item
   records its exception unless a lower-index item already failed (the
   submitter re-raises the lowest, so which error surfaces does not
   depend on scheduling) and the sweep keeps going: every item must
   still be accounted for in [left], and the partially-filled output is
   discarded by the re-raise anyway. *)
let run_items pool t =
  let continue = ref true in
  while !continue do
    let i = Atomic.fetch_and_add t.next 1 in
    if i >= t.total then continue := false
    else begin
      (try t.run i
       with e ->
         Mutex.lock pool.m;
         (match t.failed with
         | Some (j, _) when j < i -> ()
         | Some _ | None -> t.failed <- Some (i, e));
         Mutex.unlock pool.m);
      if Atomic.fetch_and_add t.left (-1) = 1 then begin
        (* last item: wake the submitter.  Locking the mutex before
           signalling pairs with the submitter's check-then-wait under
           the same mutex, so the wakeup cannot be missed. *)
        Mutex.lock pool.m;
        Condition.signal pool.idle;
        Mutex.unlock pool.m
      end
    end
  done

let worker pool id () =
  (* a worker only ever runs inside a fan-out: nested Par calls from the
     mapped function must run sequentially *)
  Domain.DLS.set inside true;
  let last_gen = ref 0 in
  let running = ref true in
  while !running do
    Mutex.lock pool.m;
    while (not pool.stop) && pool.gen = !last_gen do
      Condition.wait pool.work pool.m
    done;
    if pool.stop then begin
      running := false;
      Mutex.unlock pool.m
    end
    else begin
      last_gen := pool.gen;
      let t = pool.task in
      Mutex.unlock pool.m;
      match t with
      | Some t when id < t.workers -> run_items pool t
      | Some _ | None -> ()
    end
  done

(* The process-wide pool.  The record is eager (three mutexes and a few
   words — [Lazy] forcing is not domain-safe); the worker domains are
   what gets created lazily, on the first fan-out that needs them. *)
let the_pool =
  {
    m = Mutex.create ();
    work = Condition.create ();
    idle = Condition.create ();
    task = None;
    gen = 0;
    domains = [];
    size = 0;
    stop = false;
  }

(* Fan-outs from distinct (non-pool) domains serialize here: the pool
   holds one task at a time.  Pool workers never submit — [inside] makes
   their nested maps sequential — so this cannot self-deadlock. *)
let submit = Mutex.create ()

(* Join every pool worker.  Installed as an [at_exit] on first spawn —
   registered after [Cr_obs]'s own hooks, so it runs before the stats /
   trace / journal finalizers and they observe a quiescent process. *)
let shutdown_pool () =
  Mutex.protect submit (fun () ->
      let pool = the_pool in
      let doms =
        Mutex.protect pool.m (fun () ->
            let doms = pool.domains in
            pool.stop <- true;
            pool.domains <- [];
            pool.size <- 0;
            Condition.broadcast pool.work;
            doms)
      in
      List.iter Domain.join doms;
      Mutex.protect pool.m (fun () -> pool.stop <- false))

let pool_size () = the_pool.size

let shutdown_installed = Atomic.make false

(* Grow the pool to at least [k] parked workers (never shrinks). *)
let ensure_workers pool k =
  if pool.size < k then begin
    let grew = ref 0 in
    Mutex.protect pool.m (fun () ->
        while pool.size < k do
          let id = pool.size in
          pool.domains <- Domain.spawn (worker pool id) :: pool.domains;
          pool.size <- pool.size + 1;
          incr grew
        done);
    if not (Atomic.exchange shutdown_installed true) then
      at_exit shutdown_pool;
    Cr_obs.Obs.add c_pool_spawned !grew;
    Cr_obs.Obs.record_max c_pool_size pool.size;
    if Cr_obs.Journal.enabled () then
      Cr_obs.Journal.emit "par.pool.spawn"
        [
          ("workers", Cr_obs.Journal.I pool.size);
          ("grew_by", Cr_obs.Journal.I !grew);
        ]
  end

(* One fan-out: install the task, wake the workers, join in, wait for
   the last item.  The [Obs.workers_add] bracket covers exactly the
   domains that may run [run] (parked workers outside [t.workers] never
   touch telemetry state), so merged-telemetry entry points refuse to
   run during the fan-out and are safe again as soon as it returns. *)
let run_task ~jobs ~total run =
  Mutex.protect submit @@ fun () ->
  let pool = the_pool in
  ensure_workers pool (jobs - 1);
  let t =
    {
      run;
      total;
      workers = jobs - 1;
      next = Atomic.make 0;
      left = Atomic.make total;
      failed = None;
    }
  in
  Cr_obs.Obs.incr c_task_runs;
  Cr_obs.Obs.add c_task_items total;
  Cr_obs.Obs.workers_add (jobs - 1);
  Fun.protect
    ~finally:(fun () -> Cr_obs.Obs.workers_add (-(jobs - 1)))
    (fun () ->
      Mutex.lock pool.m;
      pool.task <- Some t;
      pool.gen <- pool.gen + 1;
      Condition.broadcast pool.work;
      Mutex.unlock pool.m;
      (* the submitting domain participates as the jobs-th executor *)
      Domain.DLS.set inside true;
      Fun.protect
        ~finally:(fun () -> Domain.DLS.set inside false)
        (fun () -> run_items pool t);
      Mutex.lock pool.m;
      while Atomic.get t.left > 0 do
        Condition.wait pool.idle pool.m
      done;
      pool.task <- None;
      Mutex.unlock pool.m);
  match t.failed with Some (_, e) -> raise e | None -> ()

let map_array ?jobs (f : 'a -> 'b) (a : 'a array) : 'b array =
  let jobs = match jobs with Some k -> max 1 k | None -> current_jobs () in
  let n = Array.length a in
  if jobs <= 1 || n <= 1 || Domain.DLS.get inside then Array.map f a
  else if n < min_items then begin
    Cr_obs.Obs.incr c_task_sequential;
    Array.map f a
  end
  else begin
    let cap = busy_cap () in
    if jobs > cap then Cr_obs.Obs.incr c_task_capped;
    let jobs = min (min jobs n) cap in
    if jobs <= 1 then Array.map f a
    else begin
      let out = Array.make n None in
      (* Each item owns its slot of [out], so the merge is the identity
         and the result is independent of claim order. *)
      run_task ~jobs ~total:n (fun i -> out.(i) <- Some (f a.(i)));
      Array.map (function Some x -> x | None -> assert false) out
    end
  end

let map ?jobs f xs = Array.to_list (map_array ?jobs f (Array.of_list xs))
