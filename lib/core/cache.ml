(* Domain-safe result + plan caching for the serving tier.

   Two tiers share one mechanism:

   - the RESULT tier memoizes (method, canonical query, scheme, k) ->
     the full observable outcome of a query: its ranked (TID, score)
     list, the optimizer's strategy choice, and the isolated work
     counters.  Replaying the stored counters on a hit is what keeps the
     serving tier's outcome fingerprint bit-identical between cold and
     warm passes — a hit is indistinguishable from a re-evaluation.
   - the PLAN tier memoizes optimizer output (the regular-plan dynamic
     program and the regular-vs-ET choice) keyed by the canonical
     aligned spec, so a repeated query whose result fell out of the
     result tier still skips pricing entirely.

   Both tiers follow the topology registry's snapshot-under-[Atomic.t]
   pattern: the entry map lives in ONE immutable snapshot behind an
   [Atomic.t]; readers do a single [Atomic.get] and touch only immutable
   data, writers serialize on a mutex, build a new snapshot and publish
   it with [Atomic.set].  LRU recency is kept per entry in an [Atomic.t]
   tick stamped from a global counter, so a hit never takes the lock —
   eviction (under the lock, on insert past capacity) removes the entry
   with the smallest tick.

   Invalidation is EPOCH-BASED, not entry-walking: every entry is
   stamped with [Topology.generation] as observed before its value was
   computed, and a lookup whose entry stamp differs from the current
   generation is a miss (the entry is dropped in passing).  The SQL
   method re-registers topologies online; when such a registration
   actually mutates the registry — a new topology or a new decomposition
   — the generation bump instantly invalidates every older entry without
   the writer having to know which cached queries depended on the
   mutated state.  Walking entries instead would require per-entry
   dependency tracking (which topologies a ranked list read) and a
   writer-side sweep under the lock; the generation check costs one
   atomic load per lookup and cannot serve a stale result, at the price
   of discarding still-valid entries after a mutation — the right trade
   for a registry that is frozen in steady state. *)

module Counters = Topo_sql.Iterator.Counters
module Optimizer = Topo_sql.Optimizer
module Smap = Map.Make (String)

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  invalidations : int;
  insertions : int;
  entries : int;
}

type totals = { results : stats; plans : stats }

(* ------------------------------------------------------------------ *)
(* One tier                                                            *)

type 'v entry = { value : 'v; stamp : int; last_used : int Atomic.t }

type 'v snap = { map : 'v entry Smap.t; count : int }

type 'v tier = {
  snap : 'v snap Atomic.t;
  lock : Mutex.t;
  capacity : int;
  tick : int Atomic.t;
  c_hits : int Atomic.t;
  c_misses : int Atomic.t;
  c_evictions : int Atomic.t;
  c_invalidations : int Atomic.t;
  c_insertions : int Atomic.t;
}

let tier_create capacity =
  {
    snap = Atomic.make { map = Smap.empty; count = 0 };
    lock = Mutex.create ();
    capacity = max 1 capacity;
    tick = Atomic.make 0;
    c_hits = Atomic.make 0;
    c_misses = Atomic.make 0;
    c_evictions = Atomic.make 0;
    c_invalidations = Atomic.make 0;
    c_insertions = Atomic.make 0;
  }

let locked tier f =
  Mutex.lock tier.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock tier.lock) f

(* Drop [key] if it still holds an entry of a stale generation — the entry
   seen by the reader may have been replaced concurrently, so re-check
   under the lock before removing. *)
let tier_drop_stale tier ~gen key =
  locked tier (fun () ->
      let s = Atomic.get tier.snap in
      match Smap.find_opt key s.map with
      | Some e when e.stamp <> gen ->
          Atomic.set tier.snap { map = Smap.remove key s.map; count = s.count - 1 }
      | Some _ | None -> ())

let tier_find tier ~gen key =
  match Smap.find_opt key (Atomic.get tier.snap).map with
  | None ->
      Atomic.incr tier.c_misses;
      None
  | Some e when e.stamp <> gen ->
      (* stamped under an older topology-registry generation: the value may
         have been computed against a superseded topology set *)
      Atomic.incr tier.c_invalidations;
      Atomic.incr tier.c_misses;
      tier_drop_stale tier ~gen key;
      None
  | Some e ->
      Atomic.incr tier.c_hits;
      Atomic.set e.last_used (Atomic.fetch_and_add tier.tick 1);
      Some e.value

let evict_lru tier s =
  let victim =
    Smap.fold
      (fun key e acc ->
        let tick = Atomic.get e.last_used in
        match acc with Some (_, best) when best <= tick -> acc | _ -> Some (key, tick))
      s.map None
  in
  match victim with
  | None -> s
  | Some (key, _) ->
      Atomic.incr tier.c_evictions;
      { map = Smap.remove key s.map; count = s.count - 1 }

let tier_add tier ~stamp key value =
  locked tier (fun () ->
      let s = Atomic.get tier.snap in
      let s =
        match Smap.find_opt key s.map with
        | Some e when e.stamp = stamp ->
            (* another domain won the race with an equivalent value *)
            s
        | Some _ | None ->
            Atomic.incr tier.c_insertions;
            let e = { value; stamp; last_used = Atomic.make (Atomic.fetch_and_add tier.tick 1) } in
            let had = Smap.mem key s.map in
            { map = Smap.add key e s.map; count = (if had then s.count else s.count + 1) }
      in
      let rec shrink s = if s.count > tier.capacity then shrink (evict_lru tier s) else s in
      Atomic.set tier.snap (shrink s))

let tier_stats tier =
  {
    hits = Atomic.get tier.c_hits;
    misses = Atomic.get tier.c_misses;
    evictions = Atomic.get tier.c_evictions;
    invalidations = Atomic.get tier.c_invalidations;
    insertions = Atomic.get tier.c_insertions;
    entries = (Atomic.get tier.snap).count;
  }

(* ------------------------------------------------------------------ *)
(* The two concrete tiers                                              *)

type result_payload = {
  ranked : (int * float option) list;
  strategy : Optimizer.strategy option;
  counters : Counters.snapshot;
}

type plan = Regular_plan of Topo_sql.Physical.t * float | Choice of Optimizer.strategy

type t = {
  registry : Topology.registry;
  result_tier : result_payload tier;
  plan_tier : plan tier;
}

let create ?(results = 1024) registry =
  { registry; result_tier = tier_create results; plan_tier = tier_create 512 }

let stamp t = Topology.generation t.registry

let find_result t ~key = tier_find t.result_tier ~gen:(stamp t) key

let add_result t ~key ~stamp:s payload = tier_add t.result_tier ~stamp:s key payload

(* When [check] carries the catalog, a [Regular_plan] hit is re-verified
   before being served: verification mode must hold for memoized plans
   exactly as for freshly priced ones, and a corrupted entry should fail
   loudly ([Plan_check.Plan_error]) rather than execute.  [Choice] hits
   carry no plan to verify and pass through. *)
let find_plan ?check t ~key =
  let hit = tier_find t.plan_tier ~gen:(stamp t) key in
  (match (hit, check) with
  | Some (Regular_plan (plan, _)), Some catalog -> Topo_sql.Plan_check.check catalog plan
  | (Some (Choice _) | Some (Regular_plan _) | None), _ -> ());
  hit

let add_plan t ~key ~stamp:s plan = tier_add t.plan_tier ~stamp:s key plan

(* ------------------------------------------------------------------ *)
(* Plan keys                                                           *)

let pred_key = function None -> "" | Some p -> Topo_sql.Expr.to_string p

let plan_key ~tag (spec : Optimizer.spec) =
  let dim (d : Optimizer.dim) =
    Printf.sprintf "%s/%s/%s/%s[%s]" d.Optimizer.dim_table d.Optimizer.dim_alias
      d.Optimizer.dim_key d.Optimizer.fact_col (pred_key d.Optimizer.dim_pred)
  in
  Printf.sprintf "%s|%s.%s:%s[%s]|%s.%s|k=%d|%s" tag spec.Optimizer.group_table
    spec.Optimizer.group_key spec.Optimizer.score_col
    (pred_key spec.Optimizer.group_pred)
    spec.Optimizer.fact_table spec.Optimizer.fact_group_col spec.Optimizer.k
    (String.concat ";" (List.map dim spec.Optimizer.dims))

(* ------------------------------------------------------------------ *)
(* Stats                                                               *)

let result_stats t = tier_stats t.result_tier

let plan_stats t = tier_stats t.plan_tier

let totals t = { results = result_stats t; plans = plan_stats t }

let zero_stats = { hits = 0; misses = 0; evictions = 0; invalidations = 0; insertions = 0; entries = 0 }

let zero_totals = { results = zero_stats; plans = zero_stats }

(* Per-batch deltas: cumulative counters subtracted, live entry counts
   taken from [after]. *)
let diff_stats ~before ~after =
  {
    hits = after.hits - before.hits;
    misses = after.misses - before.misses;
    evictions = after.evictions - before.evictions;
    invalidations = after.invalidations - before.invalidations;
    insertions = after.insertions - before.insertions;
    entries = after.entries;
  }

let diff ~before ~after =
  {
    results = diff_stats ~before:before.results ~after:after.results;
    plans = diff_stats ~before:before.plans ~after:after.plans;
  }

let hit_rate s =
  let looked = s.hits + s.misses in
  if looked = 0 then 0.0 else float_of_int s.hits /. float_of_int looked
