(* Abstraction functions between state spaces (Section 2.3 of the paper):
   total mappings from the concrete Sigma_C onto the abstract Sigma_A.
   [tabulate] compiles the mapping to an index array and checks totality
   (or, with [~partial:true], marks images outside a compiled fragment of
   Sigma_A with -1); [is_onto] verifies surjectivity. *)

type ('c, 'a) t = { name : string; apply : 'c -> 'a }

let make ~name apply = { name; apply }

let identity ?(name = "id") () = { name; apply = (fun s -> s) }

let name t = t.name

let apply t s = t.apply s

let compose ?name outer inner =
  let name =
    match name with Some n -> n | None -> outer.name ^ " . " ^ inner.name
  in
  { name; apply = (fun s -> outer.apply (inner.apply s)) }

exception Not_total of string

(* One sweep over Sigma_C: [apply] reads each (possibly scratch) state
   and the image is indexed in [a] before the sweep moves on. *)
let tabulate ?(partial = false) t (c : 'c Explicit.t) (a : 'a Explicit.t) :
    int array =
  Cr_obs.Obs.span "abstraction.tabulate" @@ fun () ->
  let table = Array.make (Explicit.num_states c) 0 in
  Explicit.iter_states c (fun i s ->
      table.(i) <-
        (match Explicit.find_opt a (t.apply s) with
        | Some j -> j
        | None when partial -> -1
        | None ->
            raise
              (Not_total
                 (Fmt.str
                    "abstraction %s: image of concrete state %s not a state \
                     of %s"
                    t.name
                    (Explicit.state_to_string c i)
                    (Explicit.name a)))));
  table

let is_onto alpha ~num_abstract =
  let hit = Array.make num_abstract false in
  Array.iter (fun j -> hit.(j) <- true) alpha;
  Array.for_all (fun b -> b) hit

let identity_table n = Array.init n (fun i -> i)

let map_path alpha p = List.map (fun i -> alpha.(i)) p
