(** Shared query-engine context: the catalog plus the derived structures
    every method needs (instance graph, schema graph, topology registry,
    per-pair stores, and the class-key -> compiled class-path dictionary
    used by pruned-topology checks).  Everything here is built when the
    engine is built or loaded and is read-only while queries evaluate. *)

(** A registered path class: its schema path and the compiled walks that
    find its instances from the E1 side — the path itself, plus its
    reversal when both ends have the same type and the path is not a
    palindrome. *)
type class_entry = { path : Topo_graph.Schema_graph.path; walks : Topo_graph.Data_graph.compiled list }

type t = {
  catalog : Topo_sql.Catalog.t;
  interner : Topo_util.Interner.t;
  dg : Topo_graph.Data_graph.t;
  schema : Topo_graph.Schema_graph.t;
  registry : Topology.registry;
  l : int;
  caps : Compute.caps;
  class_paths : (string, class_entry) Hashtbl.t;
  stores : (string * string, Store.t) Hashtbl.t;
}

(** [store_for t ~t1 ~t2] finds the store for an entity-set pair in either
    orientation; returns the store and [true] when the query's (t1, t2)
    matches the store's orientation (else endpoints must be swapped).
    @raise Not_found when the pair was never precomputed. *)
val store_for : t -> t1:string -> t2:string -> Store.t * bool

(** [register_class_paths t ~t1 ~t2] records every schema path between the
    types under its class key, compiled against [t.dg] (done once per built
    or loaded pair; read-only afterwards). *)
val register_class_paths : t -> t1:string -> t2:string -> unit

(** [class_path t key] resolves a class key back to a schema path.
    @raise Not_found for unknown keys. *)
val class_path : t -> string -> Topo_graph.Schema_graph.path

(** [class_walks t key] is the class's compiled walks (see {!class_entry}).
    @raise Not_found for unknown keys. *)
val class_walks : t -> string -> Topo_graph.Data_graph.compiled list

(** [satisfying_ids t endpoint] scans the endpoint's entity table and
    returns the ids satisfying its constraint, ascending. *)
val satisfying_ids : t -> Query.endpoint -> int array

(** [satisfies t endpoint id] checks one entity by primary key (false for
    absent ids). *)
val satisfies : t -> Query.endpoint -> int -> bool

(** [class_exists_between t key ~a ~b] is true when some instance path of
    the class connects [a] and [b] (handles same-type reversals). *)
val class_exists_between : t -> string -> a:int -> b:int -> bool
