(* Abstraction functions between state spaces (Section 2.3 of the paper):
   total mappings from the concrete Sigma_C onto the abstract Sigma_A.
   [tabulate] compiles the mapping to a table of four-byte lanes and
   checks totality (or, with [~partial:true], marks images outside a
   compiled fragment of Sigma_A with -1); [is_onto] verifies
   surjectivity.

   An abstraction into a guarded-command layout may also carry its
   image's rank, computed from the concrete state without building the
   image.  Against a graph keyed by that layout's ranks
   ([Explicit.rank_index]), [tabulate] then looks each rank up in the
   graph's own index: no abstract state is built, hashed or compared,
   and the sweep allocates nothing per state. *)

module Lane = Cr_kernel.Lane

type ('c, 'a) t = { name : string; apply : 'c -> 'a; rank : ('c -> int) option }

let make ~name ?rank apply = { name; apply; rank }

let identity ?(name = "id") ?rank () = { name; apply = (fun s -> s); rank }

let name t = t.name

let apply t s = t.apply s

let rank t = t.rank

let compose ?name outer inner =
  let name =
    match name with Some n -> n | None -> outer.name ^ " . " ^ inner.name
  in
  let rank = Option.map (fun r s -> r (inner.apply s)) outer.rank in
  { name; apply = (fun s -> outer.apply (inner.apply s)); rank }

exception Not_total of string

let not_total t c i ~target =
  Not_total
    (Fmt.str "abstraction %s: image of concrete state %s not a state of %s"
       t.name
       (Explicit.state_to_string c i)
       target)

let[@inline] set_lane b k v = Lane.set32u b (4 * k) (Int32.of_int v)

(* One sweep over Sigma_C, writing each image's index in [a] before the
   sweep moves on: by rank through [a]'s rank index when both sides
   have one, else by building the image ([apply], reading a possibly
   scratch state) and finding it in [a]. *)
let tabulate ?(partial = false) t (c : 'c Explicit.t) (a : 'a Explicit.t) =
  Cr_obs.Obs.span "abstraction.tabulate" @@ fun () ->
  let table = Lane.create (Explicit.num_states c) in
  let outside i =
    if partial then -1 else raise (not_total t c i ~target:(Explicit.name a))
  in
  (match (t.rank, Explicit.rank_index a) with
  | Some rank, Some index ->
      Explicit.iter_states c (fun i s ->
          let j = index (rank s) in
          set_lane table i (if j >= 0 then j else outside i))
  | _ ->
      Explicit.iter_states c (fun i s ->
          set_lane table i
            (match Explicit.find_opt a (t.apply s) with
            | Some j -> j
            | None -> outside i)));
  table

let is_onto alpha ~num_abstract =
  let hit = Array.make num_abstract false in
  for i = 0 to Lane.length alpha - 1 do
    hit.(Lane.get alpha i) <- true
  done;
  Array.for_all Fun.id hit

let identity_table n =
  let table = Lane.create n in
  for i = 0 to n - 1 do
    set_lane table i i
  done;
  table

let check_length ~who alpha c =
  let n = Explicit.num_states c in
  if Lane.length alpha <> n then
    invalid_arg
      (Printf.sprintf
         "%s: the alpha table has %d entries for %d concrete states" who
         (Lane.length alpha) n)
