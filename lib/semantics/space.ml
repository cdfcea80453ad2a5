(* Pluggable state-space engines: the indexing substrate an explicit
   compile runs over.

   The dense engine is the full product space in mixed-radix rank order.
   It is never materialized: a space hands out its states by index
   ([state_of_index], [index_of_state]) and by range sweeps
   ([iter_range]), which for a guarded-command layout advance one scratch
   state in place, so a dense compile holds the graph and no boxed
   states.  The sparse engine materializes only the
   fragment reachable from the initial states: a frontier BFS over dense
   keys that hash-conses each discovered state into a compact index.
   Because the fragment is closed under successors, every checker that
   only quantifies over init-reachable states (the refinement premise of
   the graybox theorems) computes the same verdict on the sparse graph
   as on the dense one — at a fraction of the states.  A stabilization
   check is both: it quantifies over all of the concrete Sigma, so that
   side stays dense, but it reads the spec only through its legitimate
   orbit (the states reachable from the spec's initial states), so the
   spec side is init-anchored and sparse by default.  Whole-space lint
   facts stay dense by construction.

   The sparse index is keyed by the dense rank: [Layout.checked_rank]
   is injective on Sigma, validity-checking and allocation-free, and
   keeping the key around gives tests the sparse<->dense bijection for
   free. *)

module Par = Cr_kernel.Par

type engine = Dense | Sparse

let engine_name = function Dense -> "dense" | Sparse -> "sparse"

type choice = Auto | Forced of engine

let choice_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "dense" -> Some (Forced Dense)
  | "sparse" -> Some (Forced Sparse)
  | "auto" | "" -> Some Auto
  | _ -> None

(* Same convention as CR_JOBS: a malformed override falls through to the
   default, and says so once (per process) on stderr. *)
let warned_bad_space = Atomic.make false

let env_choice () =
  match Sys.getenv_opt "CR_SPACE" with
  | None -> Auto
  | Some s -> (
      match choice_of_string s with
      | Some c -> c
      | None ->
          if not (Atomic.exchange warned_bad_space true) then
            Printf.eprintf
              "cr-space: ignoring invalid CR_SPACE=%s (want dense, sparse or \
               auto)\n\
               %!"
              s;
          Auto)

let resolve ?choice ~default () =
  match match choice with Some c -> c | None -> env_choice () with
  | Forced e -> e
  | Auto -> default

exception Too_large of string

module type S = sig
  type state

  val size : int
  val state_of_index : int -> state
  val index_of_state : state -> int option
  val iter_range : int -> int -> (int -> state -> unit) -> unit
end

type 'a t = (module S with type state = 'a)

let size (type a) (sp : a t) =
  let module Sp = (val sp) in
  Sp.size

let dense (type a) ~size:(n : int) ~(state_of_index : int -> a)
    ~(index_of_state : a -> int option)
    ~(iter_range : int -> int -> (int -> a -> unit) -> unit) () : a t =
  (module struct
    type state = a

    let size = n
    let state_of_index = state_of_index
    let index_of_state = index_of_state
    let iter_range = iter_range
  end)

type 'a sparse = { space : 'a t; rows : int array array; keys : int array }

let discover (type a) ~(state_of_key : int -> a)
    ~(key_of_state : a -> int)
    ~(step : unit -> a -> int -> (int -> unit) -> unit)
    ~(seed_keys : int array) () : a sparse =
  let tbl : (int, int) Hashtbl.t =
    Hashtbl.create (max 64 (2 * Array.length seed_keys))
  in
  (* Append-only discovery log: the BFS queue IS the index sequence. *)
  let keys = ref (Array.make (max 16 (Array.length seed_keys)) 0) in
  let n = ref 0 in
  let push k =
    if !n = Array.length !keys then begin
      let bigger = Array.make (2 * !n) 0 in
      Array.blit !keys 0 bigger 0 !n;
      keys := bigger
    end;
    !keys.(!n) <- k;
    incr n
  in
  let index_of_key k =
    match Hashtbl.find_opt tbl k with
    | Some i -> i
    | None ->
        let i = !n in
        Hashtbl.add tbl k i;
        push k;
        i
  in
  Array.iter (fun k -> ignore (index_of_key k : int)) seed_keys;
  let rows = ref (Array.make (max 16 !n) [||]) in
  let set_row i r =
    if i >= Array.length !rows then begin
      let bigger = Array.make (max (2 * Array.length !rows) (i + 1)) [||] in
      Array.blit !rows 0 bigger 0 (Array.length !rows);
      rows := bigger
    end;
    !rows.(i) <- r
  in
  let processed = ref 0 in
  while !processed < !n do
    let lo = !processed and hi = !n in
    let m = hi - lo in
    (* Expand the frontier: successor keys per state, in emission order.
       The stepping is chunked across domains exactly like the dense row
       build (contiguous slices, one writer per slot); index assignment
       happens in the sequential merge below, so discovery order — and
       with it the whole compiled graph — is job-count independent. *)
    let raw = Array.make m [] in
    let fill st d =
      let k = !keys.(lo + d) in
      let s = state_of_key k in
      let acc = ref [] in
      st s k (fun j -> acc := j :: !acc);
      raw.(d) <- List.rev !acc
    in
    let jobs = min (Par.current_jobs ()) m in
    if jobs <= 1 then begin
      let st = step () in
      for d = 0 to m - 1 do
        fill st d
      done
    end
    else begin
      let chunks =
        Array.init jobs (fun d -> (d * m / jobs, (d + 1) * m / jobs))
      in
      ignore
        (Par.map_array
           (fun (clo, chi) ->
             let st = step () in
             for d = clo to chi - 1 do
               fill st d
             done)
           chunks
          : unit array)
    end;
    for d = 0 to m - 1 do
      let row = List.map index_of_key raw.(d) in
      set_row (lo + d) (Array.of_list (List.sort_uniq compare row))
    done;
    processed := hi
  done;
  let count = !n in
  let keys = Array.sub !keys 0 count in
  let rows = Array.sub !rows 0 count in
  let module Sp = struct
    type state = a

    let size = count
    let state_of_index i = state_of_key keys.(i)

    let index_of_state s =
      let k = key_of_state s in
      if k < 0 then None else Hashtbl.find_opt tbl k

    let iter_range lo hi f =
      for i = lo to hi - 1 do
        f i (state_of_key keys.(i))
      done
  end in
  { space = (module Sp); rows; keys }
