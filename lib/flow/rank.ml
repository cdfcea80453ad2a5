(* Slot write-dependency condensation and layering; see rank.mli. *)

open Cr_guarded
open Cr_lint

type t = {
  num_slots : int;
  edges : (int * int) list;
  self_deps : int list;
  comp_of : int array;
  components : int array array;
  layer_of : int array;
  layers : int array array;
  acyclic : bool;
}

let of_flow (fl : Flow.t) : t option =
  if fl.Flow.degraded then None
  else
    Cr_obs.Obs.span "lint.flow.rank" @@ fun () ->
    let nv = Layout.num_vars fl.Flow.layout in
    let edge_set = Hashtbl.create 64 in
    let selfs = Hashtbl.create 8 in
    List.iter
      (fun fact ->
        let info = fact.Flow.info in
        if info.Rwsets.enabled_states > 0 then
          let reads = Rwsets.reads info in
          List.iter
            (fun w ->
              List.iter
                (fun r ->
                  if r = w then Hashtbl.replace selfs w ()
                  else Hashtbl.replace edge_set (r, w) ())
                reads)
            info.Rwsets.writes)
      fl.Flow.facts;
    let edges =
      List.sort compare (Hashtbl.fold (fun e () acc -> e :: acc) edge_set [])
    in
    let self_deps =
      List.sort compare (Hashtbl.fold (fun s () acc -> s :: acc) selfs [])
    in
    (* Condense with the checker's Tarjan kernel (it ignores self-loops,
       which we track separately anyway).  [edges] is sorted and
       deduplicated, so every row comes out sorted as a CSR row must. *)
    let succs = Array.make nv [] in
    List.iter (fun (r, w) -> succs.(r) <- w :: succs.(r)) edges;
    let adj = Array.map (fun l -> Array.of_list (List.rev l)) succs in
    let scc = Cr_checker.Scc.compute (Cr_kernel.Csr.of_rows adj) in
    let comp_of = scc.Cr_checker.Scc.component in
    let ncomp = scc.Cr_checker.Scc.count in
    let members = Array.make ncomp [] in
    for i = nv - 1 downto 0 do
      members.(comp_of.(i)) <- i :: members.(comp_of.(i))
    done;
    let components = Array.map Array.of_list members in
    (* Layer by longest path over the condensation DAG.  The DAG is tiny
       (≤ num_slots components), so a simple relax-until-stable loop is
       fine and independent of Tarjan's component numbering order. *)
    let layer_of = Array.make ncomp 0 in
    let comp_edges =
      List.sort_uniq compare
        (List.filter_map
           (fun (r, w) ->
             let cr = comp_of.(r) and cw = comp_of.(w) in
             if cr <> cw then Some (cr, cw) else None)
           edges)
    in
    let changed = ref true in
    while !changed do
      changed := false;
      List.iter
        (fun (cr, cw) ->
          if layer_of.(cw) < layer_of.(cr) + 1 then begin
            layer_of.(cw) <- layer_of.(cr) + 1;
            changed := true
          end)
        comp_edges
    done;
    let depth = 1 + Array.fold_left max 0 layer_of in
    let buckets = Array.make depth [] in
    for c = ncomp - 1 downto 0 do
      buckets.(layer_of.(c)) <- c :: buckets.(layer_of.(c))
    done;
    let layers = Array.map Array.of_list buckets in
    let acyclic =
      Array.for_all (fun comp -> Array.length comp <= 1) components
    in
    Some
      {
        num_slots = nv;
        edges;
        self_deps;
        comp_of;
        components;
        layer_of;
        layers;
        acyclic;
      }

let depth t = Array.length t.layers

let pp layout fmt t =
  Array.iteri
    (fun l comps ->
      let render c =
        let slots = t.components.(c) in
        let names =
          String.concat " "
            (Array.to_list (Array.map (Layout.var_name layout) slots))
        in
        if Array.length slots > 1 then Printf.sprintf "{%s}*" names
        else names
      in
      Fmt.pf fmt "  layer %d: %s@." l
        (String.concat " " (Array.to_list (Array.map render comps))))
    t.layers
