(* The materializing dense compile that [Program.to_explicit] streams
   past, kept as its reference: every state boxed by [Layout.unrank]
   into one array, one sorted, deduplicated row array per state (guard,
   effect and checked rank per action, with the wrapper-preemption and
   synchronous variants), flattened by [Csr.of_rows].  Sequential and
   uncached; tests compare it with the streamed compile graph for
   graph. *)

open Cr_guarded
module Csr = Cr_kernel.Csr

type compiled = {
  states : Layout.state array;  (* index -> state, by [Layout.unrank] *)
  succ : Csr.t;
  initials : int array;
}

type mode = Plain | Priority of bool array | Sync

let rank_checked ~name layout s' =
  let j = Layout.checked_rank layout s' in
  if j >= 0 then j
  else
    raise
      (Cr_semantics.Explicit.Unknown_state
         (Fmt.str "%s: step produced a state outside Sigma: %a" name
            (Layout.pp_state layout) s'))

(* Sort the first [k] slots of [buf] in place and return them
   deduplicated as a fresh row. *)
let sorted_row_of_prefix buf k =
  if k = 0 then [||]
  else begin
    for i = 1 to k - 1 do
      let x = buf.(i) in
      let j = ref (i - 1) in
      while !j >= 0 && buf.(!j) > x do
        buf.(!j + 1) <- buf.(!j);
        decr j
      done;
      buf.(!j + 1) <- x
    done;
    let m = ref 1 in
    for i = 1 to k - 1 do
      if buf.(i) <> buf.(i - 1) then incr m
    done;
    let out = Array.make !m buf.(0) in
    let w = ref 1 in
    for i = 1 to k - 1 do
      if buf.(i) <> buf.(i - 1) then begin
        out.(!w) <- buf.(i);
        incr w
      end
    done;
    out
  end

let plain_rows ~name layout (actions : Action.t array) state_of =
  let buf = Array.make (max 1 (Array.length actions)) 0 in
  fun i ->
    let s = state_of i in
    let k = ref 0 in
    Array.iter
      (fun (a : Action.t) ->
        if a.Action.guard s then begin
          let j = rank_checked ~name layout (a.Action.effect s) in
          if j <> i then begin
            buf.(!k) <- j;
            incr k
          end
        end)
      actions;
    sorted_row_of_prefix buf !k

(* Wrapper firings preempt base firings; a no-op wrapper firing is no
   wrapper move. *)
let priority_rows ~name layout (actions : Action.t array)
    (is_wrapper : bool array) state_of =
  let n = max 1 (Array.length actions) in
  let wbuf = Array.make n 0 in
  let bbuf = Array.make n 0 in
  fun i ->
    let s = state_of i in
    let wk = ref 0 and bk = ref 0 in
    Array.iteri
      (fun ai (a : Action.t) ->
        if a.Action.guard s then begin
          let j = rank_checked ~name layout (a.Action.effect s) in
          if j <> i then
            if is_wrapper.(ai) then begin
              wbuf.(!wk) <- j;
              incr wk
            end
            else begin
              bbuf.(!bk) <- j;
              incr bk
            end
        end)
      actions;
    if !wk > 0 then sorted_row_of_prefix wbuf !wk
    else sorted_row_of_prefix bbuf !bk

let sync_rows ~name layout p state_of i =
  match Program.synchronous_step p (state_of i) with
  | None -> [||]
  | Some s' ->
      let j = rank_checked ~name layout s' in
      if j = i then [||] else [| j |]

let compile ?priority_of ?(sync = false) p =
  let layout = Program.layout p in
  let actions = Array.of_list (Program.actions p) in
  let mode =
    match (sync, priority_of) with
    | true, _ -> Sync
    | false, None -> Plain
    | false, Some is_w -> Priority (Array.map is_w actions)
  in
  let name =
    match mode with
    | Sync -> Program.name p ^ "[sync]"
    | Plain | Priority _ -> Program.name p
  in
  let n = Layout.num_states layout in
  let states = Array.init n (Layout.unrank layout) in
  let state_of i = states.(i) in
  let row =
    match mode with
    | Plain -> plain_rows ~name layout actions state_of
    | Priority bits -> priority_rows ~name layout actions bits state_of
    | Sync -> sync_rows ~name layout p state_of
  in
  let succ = Csr.of_rows (Array.init n row) in
  let initials =
    List.filter (fun i -> Program.initial p states.(i)) (List.init n Fun.id)
    |> Array.of_list
  in
  { states; succ; initials }
