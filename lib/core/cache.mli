(** Domain-safe result + plan caching for the serving tier.

    Two tiers behind one mechanism: the {e result} tier memoizes
    [(method, canonical query, scheme, k)] to the query's full observable
    outcome — ranked (TID, score) list, optimizer strategy choice, and the
    isolated work counters, replayed on a hit so outcome fingerprints stay
    bit-identical between cold and warm passes — and the {e plan} tier
    memoizes optimizer output (the regular-plan dynamic program and the
    regular-vs-ET choice) keyed by the canonical aligned spec so repeated
    queries skip pricing entirely.

    Both tiers use the topology registry's snapshot-under-[Atomic.t]
    pattern: lookups are lock-free (one [Atomic.get] plus an atomic
    recency stamp), writers serialize on a mutex and publish immutable
    snapshots.  Eviction is LRU by entry count against a fixed capacity.

    Invalidation is {e epoch-based}: entries are stamped with
    {!Topology.generation} as observed before their value was computed,
    and any lookup whose entry stamp differs from the current generation
    is a miss (counted as an invalidation; the stale entry is dropped).
    Online re-registration by the SQL method therefore can never cause a
    stale cached result to be served. *)

type stats = {
  hits : int;
  misses : int;  (** includes invalidation misses *)
  evictions : int;  (** LRU victims removed at capacity *)
  invalidations : int;  (** lookups that found a stale-generation entry *)
  insertions : int;
  entries : int;  (** entries currently resident *)
}

type totals = { results : stats; plans : stats }

type t

(** [create ?results registry] with a result-tier capacity of [results]
    entries (default 1024; minimum 1) and a fixed 512-entry plan tier.
    The cache is tied to [registry]: its generation is the invalidation
    epoch. *)
val create : ?results:int -> Topology.registry -> t

(** [stamp t] is the registry generation to compute under {e before}
    evaluating; pass it to [add_result]/[add_plan] so a registry mutation
    that raced the evaluation invalidates the entry. *)
val stamp : t -> int

(** {1 Result tier} *)

type result_payload = {
  ranked : (int * float option) list;
  strategy : Topo_sql.Optimizer.strategy option;
  counters : Topo_sql.Iterator.Counters.snapshot;
      (** the work the evaluation performed, replayed verbatim on a hit *)
}

(** [find_result t ~key] is a lock-free lookup; [None] on miss or when the
    entry's generation stamp is stale. *)
val find_result : t -> key:string -> result_payload option

(** [add_result t ~key ~stamp payload] inserts (or refreshes) an entry,
    evicting the least-recently-used entry when past capacity.  A racing
    insert of the same key and stamp is kept (the values are equal by the
    determinism contract). *)
val add_result : t -> key:string -> stamp:int -> result_payload -> unit

(** {1 Plan tier} *)

type plan =
  | Regular_plan of Topo_sql.Physical.t * float
      (** {!Topo_sql.Optimizer.regular_plan} output: best plan and cost *)
  | Choice of Topo_sql.Optimizer.strategy
      (** {!Topo_sql.Optimizer.choose}'s regular-vs-early-termination pick *)

(** [find_plan ?check t ~key] is a lock-free lookup like {!find_result}.
    When [check] is given, a [Regular_plan] hit is re-run through
    {!Topo_sql.Plan_check.check} against that catalog before being
    served, so verification mode applies to memoized plans exactly as to
    freshly priced ones; a corrupted or stale entry raises
    {!Topo_sql.Plan_check.Plan_error} instead of executing.  [Choice]
    entries carry no plan and are never checked. *)
val find_plan : ?check:Topo_sql.Catalog.t -> t -> key:string -> plan option

val add_plan : t -> key:string -> stamp:int -> plan -> unit

(** [plan_key ~tag spec] renders a canonical key for an optimizer spec
    (tables, score column, k, dimension predicates); [tag] separates the
    regular-plan and choose namespaces. *)
val plan_key : tag:string -> Topo_sql.Optimizer.spec -> string

(** {1 Statistics} *)

val result_stats : t -> stats

val plan_stats : t -> stats

val totals : t -> totals

val zero_stats : stats

val zero_totals : totals

(** [diff ~before ~after] subtracts cumulative counters (per-batch deltas);
    [entries] is taken from [after]. *)
val diff : before:totals -> after:totals -> totals

(** [hit_rate stats] is [hits / (hits + misses)], 0 when nothing was looked
    up. *)
val hit_rate : stats -> float
