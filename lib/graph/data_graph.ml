module Dyn = Topo_util.Dyn

type t = {
  pool : Topo_util.Interner.t;
  node_type : (int, int) Hashtbl.t;  (* id -> interned "n:<ty>" *)
  by_type : (string, int Dyn.t) Hashtbl.t;
  adj : (int, (int * int * int) Dyn.t) Hashtbl.t;
      (* id -> (interned "e:<rel>", other's interned "n:<ty>", other), so a
         walk filters neighbors without a type lookup *)
  edge_seen : (int * int * int, unit) Hashtbl.t;
}

let create pool =
  {
    pool;
    node_type = Hashtbl.create 4096;
    by_type = Hashtbl.create 16;
    adj = Hashtbl.create 4096;
    edge_seen = Hashtbl.create 4096;
  }

let node_label_of t ty = Topo_util.Interner.intern t.pool ("n:" ^ ty)

let edge_label_of t rel = Topo_util.Interner.intern t.pool ("e:" ^ rel)

let add_entity t ~ty ~id =
  let label = node_label_of t ty in
  match Hashtbl.find_opt t.node_type id with
  | Some existing ->
      if existing <> label then
        invalid_arg (Printf.sprintf "Data_graph.add_entity: id %d already has another type" id)
  | None ->
      Hashtbl.add t.node_type id label;
      let bucket =
        match Hashtbl.find_opt t.by_type ty with
        | Some b -> b
        | None ->
            let b = Dyn.create () in
            Hashtbl.add t.by_type ty b;
            b
      in
      Dyn.push bucket id;
      Hashtbl.add t.adj id (Dyn.create ())

let add_relationship t ~rel ~a ~b =
  if not (Hashtbl.mem t.node_type a) then
    invalid_arg (Printf.sprintf "Data_graph.add_relationship: unknown entity %d" a);
  if not (Hashtbl.mem t.node_type b) then
    invalid_arg (Printf.sprintf "Data_graph.add_relationship: unknown entity %d" b);
  let label = edge_label_of t rel in
  let key = if a < b then (a, b, label) else (b, a, label) in
  if not (Hashtbl.mem t.edge_seen key) then begin
    Hashtbl.add t.edge_seen key ();
    Dyn.push (Hashtbl.find t.adj a) (label, Hashtbl.find t.node_type b, b);
    Dyn.push (Hashtbl.find t.adj b) (label, Hashtbl.find t.node_type a, a)
  end

let node_count t = Hashtbl.length t.node_type

let edge_count t = Hashtbl.length t.edge_seen

let entities_of_type t ty =
  match Hashtbl.find_opt t.by_type ty with
  | None -> [||]
  | Some bucket ->
      let arr = Dyn.to_array bucket in
      Array.sort compare arr;
      arr

let node_type_label t id =
  match Hashtbl.find_opt t.node_type id with
  | Some l -> l
  | None -> raise Not_found

let interner t = t.pool

let adjacency t id =
  match Hashtbl.find_opt t.adj id with
  | None -> []
  | Some nbrs -> List.map (fun (rel, _, other) -> (rel, other)) (Dyn.to_list nbrs)

let intern_path_labels t (p : Schema_graph.path) =
  Array.iter (fun ty -> ignore (node_label_of t ty)) p.Schema_graph.types;
  Array.iter (fun rel -> ignore (edge_label_of t rel)) p.Schema_graph.rels

let is_palindromic (p : Schema_graph.path) = p = Schema_graph.reverse p

(* A schema path with its labels resolved to intern ids once, so a walk
   compares integers only.  Compiling only reads the pool: a label it has
   never seen is carried by no node or edge, so it compiles to -1, which
   matches nothing. *)
type compiled = { c_types : int array; c_rels : int array }

let compile t (p : Schema_graph.path) =
  let id s = Option.value ~default:(-1) (Topo_util.Interner.find_opt t.pool s) in
  {
    c_types = Array.map (fun ty -> id ("n:" ^ ty)) p.Schema_graph.types;
    c_rels = Array.map (fun rel -> id ("e:" ^ rel)) p.Schema_graph.rels;
  }

(* The one walker: depth first along [c] from [source], one position at a
   time.  An instance path is simple, so a candidate is rejected when it
   already sits in the current prefix (at most l+1 nodes, scanned in
   place).  [target] pins the final node.  [emit] receives the prefix
   buffer itself, valid only during the call. *)
let walk t c ~source ?target ~emit () =
  let l = Array.length c.c_rels in
  match Hashtbl.find_opt t.node_type source with
  | Some label when label = c.c_types.(0) ->
      let current = Array.make (l + 1) source in
      let rec on_prefix id i = i >= 0 && (current.(i) = id || on_prefix id (i - 1)) in
      let rec step pos =
        if pos = l then emit current
        else begin
          let want_rel = c.c_rels.(pos) and want_ty = c.c_types.(pos + 1) in
          let last = pos + 1 = l in
          Dyn.iter
            (fun (rel, ty, other) ->
              if
                rel = want_rel
                && ty = want_ty
                && (match target with Some tgt when last -> other = tgt | Some _ | None -> true)
                && (not (on_prefix other pos))
              then begin
                current.(pos + 1) <- other;
                step (pos + 1)
              end)
            (Hashtbl.find t.adj current.(pos))
        end
      in
      step 0
  | Some _ | None -> ()

let iter_ends t c ~source ~f =
  let l = Array.length c.c_rels in
  walk t c ~source ~emit:(fun current -> f current.(l)) ()

exception Exists

let exists_between t c ~a ~b =
  try
    walk t c ~source:a ~target:b ~emit:(fun _ -> raise Exists) ();
    false
  with Exists -> true

(* The enumerations hand out copies of the walker's buffer. *)
let iter_from t p ~source ?target ~f () =
  walk t (compile t p) ~source ?target ~emit:(fun current -> f (Array.copy current)) ()

let iter_instance_paths t p ~f =
  let c = compile t p in
  let palindromic = is_palindromic p in
  let l = Schema_graph.path_length p in
  Array.iter
    (fun source ->
      walk t c ~source
        ~emit:(fun current ->
          (* A palindromic path is discovered from both endpoints; keep the
             traversal from the smaller id. *)
          if (not palindromic) || current.(0) < current.(l) then f (Array.copy current))
        ())
    (entities_of_type t p.Schema_graph.types.(0))

let iter_instance_paths_between t p ~a ~b ~f = iter_from t p ~source:a ~target:b ~f ()

let iter_instance_paths_from t p ~source ~f = iter_from t p ~source ~f ()

let path_subgraph t (p : Schema_graph.path) ~ids =
  let g = Lgraph.empty () in
  Array.iter (fun id -> Lgraph.add_node g ~id ~label:(Hashtbl.find t.node_type id)) ids;
  Array.iteri
    (fun i rel -> Lgraph.add_edge g ~u:ids.(i) ~v:ids.(i + 1) ~label:(edge_label_of t rel))
    p.Schema_graph.rels;
  g

let neighbors_by t ~id ~rel ~ty =
  match Hashtbl.find_opt t.adj id with
  | None -> []
  | Some nbrs ->
      let want_rel = edge_label_of t rel and want_ty = node_label_of t ty in
      Dyn.fold
        (fun acc (r, ty, other) -> if r = want_rel && ty = want_ty then other :: acc else acc)
        [] nbrs
      |> List.sort compare
