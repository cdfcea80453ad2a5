(* Textbook graph algorithms over array-of-rows adjacency, written for
   clarity rather than speed: the independent references the checker
   kernels are property-tested against.  Graphs are small (a dozen
   states), so quadratic definitions are fine. *)

(* States reachable from [seeds] (inclusive), by recursive DFS. *)
let reach (adj : int array array) (seeds : int list) : bool array =
  let seen = Array.make (Array.length adj) false in
  let rec visit i =
    if not seen.(i) then begin
      seen.(i) <- true;
      Array.iter visit adj.(i)
    end
  in
  List.iter visit seeds;
  seen

(* The kernels' seed mask for a list of states. *)
let mask n (l : int list) =
  let m = Cr_kernel.Bitset.create n in
  List.iter (Cr_kernel.Bitset.set m) l;
  m

(* States from which some seed is reachable. *)
let coreach adj seeds =
  Array.init (Array.length adj) (fun i ->
      let r = reach adj [ i ] in
      List.exists (fun s -> r.(s)) seeds)

(* Same SCC iff mutually reachable. *)
let same_scc adj i j = (reach adj [ i ]).(j) && (reach adj [ j ]).(i)

(* BFS distances from [src]; -1 when unreachable. *)
let bfs adj src =
  let dist = Array.make (Array.length adj) (-1) in
  dist.(src) <- 0;
  let rec layer frontier d =
    if frontier <> [] then begin
      let next =
        List.concat_map
          (fun i ->
            List.filter
              (fun j ->
                if dist.(j) = -1 then begin
                  dist.(j) <- d + 1;
                  true
                end
                else false)
              (Array.to_list adj.(i)))
          frontier
      in
      layer next (d + 1)
    end
  in
  layer [ src ] 0;
  dist

(* For each masked state, the most steps a run can take while staying
   inside the mask (the step that leaves it counts).  [Error ()] when the
   masked subgraph has a cycle. *)
let longest_within adj mask =
  let n = Array.length adj in
  let memo = Array.make n None in
  let rec longest path i =
    if List.mem i path then raise Exit;
    match memo.(i) with
    | Some l -> l
    | None ->
        let l =
          Array.fold_left
            (fun acc j ->
              max acc (1 + if mask.(j) then longest (i :: path) j else 0))
            0 adj.(i)
        in
        memo.(i) <- Some l;
        l
  in
  try Ok (Array.init n (fun i -> if mask.(i) then longest [] i else 0))
  with Exit -> Error ()

(* The subgraph induced by [mask]: edges with both ends masked. *)
let restrict adj mask =
  Array.mapi
    (fun i row ->
      if mask.(i) then
        Array.of_list (List.filter (fun j -> mask.(j)) (Array.to_list row))
      else [||])
    adj

(* Weak fairness per SCC of the subgraph induced by [mask]: a
   nontrivial SCC is fair iff every action enabled at all of its states
   has some transition that is an edge of the subgraph inside the SCC.
   Returns the fair SCCs as ascending member lists, in ascending order
   of their least member. *)
let fair_sccs (tables : int array array) adj mask =
  let n = Array.length adj in
  let sub = restrict adj mask in
  let states = List.filter (fun i -> mask.(i)) (List.init n Fun.id) in
  let scc_of i = List.filter (fun j -> same_scc sub i j) states in
  let sccs = List.sort_uniq compare (List.map scc_of states) in
  let fair scc =
    List.length scc >= 2
    && Array.for_all
         (fun next ->
           (not (List.for_all (fun i -> next.(i) >= 0) scc))
           || List.exists
                (fun i ->
                  let j = next.(i) in
                  List.mem j scc && Array.mem j sub.(i))
                scc)
         tables
  in
  List.filter fair sccs
