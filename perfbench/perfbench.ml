(* The serving-stack benchmark: one run of one workload.

     perfbench.exe --workload W --seed N --seconds S --trace 0|1 \
       --toposearch _build/default/bin/toposearch.exe

   Workloads (README.md records why each exists):
   - inproc-batches: closed loop, batches of 16 distinct requests into
     [Serve.exec] on an nproc-domain pool with a result cache that only
     ever misses.  With --trace 1 the same stream also goes through
     [Router.exec] to two [toposearch shard] processes at jobs=1 each,
     which gives the router, shard and fleet layers.
   - zipf-open: open loop, Poisson arrivals at two fixed rates, Zipf(1)
     draws from a pool 4x the result-cache capacity, warm cache.

   Every workload sets up (generate, build, save, load) [setup_reps]
   times and serves from the last set-up.  Answers are checked against
   an uncached in-process jobs=1 reference over the same requests; a
   mismatch fails the run and no metric is written.  The last stdout
   line is the JSON result: the end-to-end metrics with --trace 0, the
   per-layer ones with --trace 1 (a run that also times the traced and
   routed passes). *)

module Engine = Topo_core.Engine
module Serve = Topo_core.Serve
module Request = Topo_core.Request
module Cache = Topo_core.Cache
module Snapshot = Topo_core.Snapshot
module Router = Topo_core.Router
module Wire = Topo_core.Wire
module Pool = Topo_util.Pool
module Prng = Topo_util.Prng
module Zipf = Topo_util.Zipf
module Trace = Topo_obs.Trace
module Json = Topo_obs.Json
module Counters = Topo_sql.Iterator.Counters

(* ---- settings: fixed, never calibrated per run (README.md) ---------- *)

let scale = 0.5
let setup_reps = 3
let shards = 2
let routed_passes = 2
let batch_size = 16
let n_batches = 200
let qps_window = 50 (* batches *)
let n_warm = 320 (* warm-up requests, distinct from every timed request *)
let result_capacity = 1024
let zipf_pool = 4 * result_capacity
let zipf_s = 1.0
let zipf_warm = 4096

(* The open-loop rate ladder in requests/s; the rungs take turns in
   segments of [segment_s]. *)
let rungs = [ ("light", 400.0); ("heavy", 800.0) ]
let segment_s = 2.5
let latency_limit_ms = 250.0

(* Deadline and queue bound are sized so that a healthy run never sheds:
   the queue holds more than a whole segment's arrivals, so a stall of
   the machine shows as queueing latency (and can miss the limit)
   instead of as a rejected or cut-short request, which would count as
   failed. *)
let deadline_s = 5.0
let max_queue = 4096
let nproc = Domain.recommended_domain_count ()

let span_names =
  [
    "optimize";
    "choose";
    "build_plan";
    "build_et_plan";
    "execute";
    "pruned_checks";
    "stream_witnesses";
    "merge_with_pruned";
  ]

(* ---- results --------------------------------------------------------- *)

exception Mismatch of string

let mismatch fmt = Printf.ksprintf (fun s -> raise (Mismatch s)) fmt

let end_to_end : (string * float * string) list ref = ref []
let per_layer : (string * float * string) list ref = ref []
let e2e name unit v = end_to_end := (name, v, unit) :: !end_to_end

(* A later value of a per-layer metric replaces an earlier one. *)
let layer name unit v =
  per_layer := (name, v, unit) :: List.filter (fun (n, _, _) -> n <> name) !per_layer
let attempted = ref 0
let failed = ref 0
let now = Unix.gettimeofday
let say fmt = Printf.printf (fmt ^^ "\n%!")

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* Nearest-rank quantile; 0 for an empty sample. *)
let quantile q xs =
  match xs with
  | [] -> 0.0
  | _ ->
      let a = Array.of_list xs in
      Array.sort Float.compare a;
      let n = Array.length a in
      a.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

let median = quantile 0.5

(* [chunks n xs] cuts [xs] into consecutive runs of [n] (the last may be
   shorter). *)
let chunks n xs =
  let rec go acc cur k = function
    | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
    | x :: rest ->
        if k = n then go (List.rev cur :: acc) [ x ] 1 rest else go acc (x :: cur) (k + 1) rest
  in
  go [] [] 0 xs

(* The median over windows of a per-window figure: one stretch of the run
   disturbed by the machine moves at most the windows it covers. *)
let windowed size f xs = median (List.map f (chunks size xs))
let sum = List.fold_left ( +. ) 0.0
let ms s = s *. 1000.0
let ratio a b = if b > 0.0 then a /. b else 0.0

(* ---- outcomes -------------------------------------------------------- *)

let service_s (o : Request.outcome) =
  match Request.answered o.Request.result with Some r -> r.Request.elapsed_s | None -> 0.0

let is_done (o : Request.outcome) = match o.Request.result with Request.Done _ -> true | _ -> false

let rejected (o : Request.outcome) =
  match o.Request.result with Request.Rejected _ -> true | _ -> false

let overloaded (o : Request.outcome) =
  match o.Request.result with Request.Rejected Request.Overloaded -> true | _ -> false

let ranked (o : Request.outcome) =
  Option.map (fun r -> r.Request.ranked) (Request.answered o.Request.result)

let work outcomes =
  List.fold_left
    (fun (t, p, s) (o : Request.outcome) ->
      let c = o.Request.counters in
      (t + c.Counters.tuples, p + c.Counters.index_probes, s + c.Counters.rows_scanned))
    (0, 0, 0) outcomes

let count_outcomes outcomes =
  attempted := !attempted + List.length outcomes;
  failed := !failed + List.length (List.filter (fun o -> not (is_done o)) outcomes)

(* The exact-count self-check: a count that must repeat between the
   repetitions of one run. *)
let same_count what a b = if a <> b then mismatch "%s drifted between repetitions: %d vs %d" what a b

let same_work what a b =
  let (t1, p1, s1), (t2, p2, s2) = (a, b) in
  same_count (what ^ " exec.tuples") t1 t2;
  same_count (what ^ " exec.index_probes") p1 p2;
  same_count (what ^ " exec.rows_scanned") s1 s2

let record_work outcomes =
  let t, p, s = work outcomes in
  layer "exec.tuples" "count" (float_of_int t);
  layer "exec.index_probes" "count" (float_of_int p);
  layer "exec.rows_scanned" "count" (float_of_int s)

(* Per-method service time over outcomes that were evaluated (cache hits
   report no service time). *)
let record_methods outcomes =
  Array.iter
    (fun m ->
      let xs =
        List.filter_map
          (fun (o : Request.outcome) ->
            if o.Request.request.Request.method_ = m && o.Request.cache <> Request.Hit then
              Option.map (fun (r : Request.result) -> ms r.Request.elapsed_s)
                (Request.answered o.Request.result)
            else None)
          outcomes
      in
      let name = Engine.method_name m in
      layer (Printf.sprintf "methods.%s.service_p50_ms" name) "ms" (quantile 0.5 xs);
      layer (Printf.sprintf "methods.%s.service_p95_ms" name) "ms" (quantile 0.95 xs))
    Gen.methods

let record_cache (t : Cache.totals) =
  let r = t.Cache.results and p = t.Cache.plans in
  layer "cache.result.hit_rate" "ratio" (Cache.hit_rate r);
  layer "cache.result.misses" "count" (float_of_int r.Cache.misses);
  layer "cache.result.insertions" "count" (float_of_int r.Cache.insertions);
  layer "cache.result.evictions" "count" (float_of_int r.Cache.evictions);
  layer "cache.plan.hit_rate" "ratio" (Cache.hit_rate p);
  layer "cache.plan.evictions" "count" (float_of_int p.Cache.evictions)

(* Self time per span name over every outcome's private trace. *)
let record_spans outcomes =
  let self = Hashtbl.create 16 in
  let rec walk sp =
    let kids = Trace.children sp in
    let d = Trace.duration_s sp -. sum (List.map Trace.duration_s kids) in
    let name = Trace.name sp in
    let s, c = Option.value (Hashtbl.find_opt self name) ~default:(0.0, 0) in
    Hashtbl.replace self name (s +. d, c + 1);
    List.iter walk kids
  in
  List.iter
    (fun (o : Request.outcome) ->
      Option.iter (fun t -> List.iter walk (Trace.roots t)) o.Request.trace)
    outcomes;
  List.iter
    (fun name ->
      let s, _ = Option.value (Hashtbl.find_opt self name) ~default:(0.0, 0) in
      layer (Printf.sprintf "span.%s.self_s" name) "s" s)
    span_names;
  let _, hits = Option.value (Hashtbl.find_opt self "cache_hit") ~default:(0.0, 0) in
  layer "span.cache_hit.count" "count" (float_of_int hits)

let wire_bytes (outcomes : Request.outcome list) =
  List.fold_left
    (fun (rq, oc) (o : Request.outcome) ->
      ( rq + String.length (Request.to_wire o.Request.request),
        oc + String.length (Request.outcome_to_wire o) ))
    (0, 0) outcomes

(* Encode/decode cost of the workload's own requests and outcomes, per
   request+outcome pair, median over repeated rounds; byte sizes are
   exact counts. *)
let record_wire (outcomes : Request.outcome list) =
  let reqs = Array.of_list (List.map (fun (o : Request.outcome) -> o.Request.request) outcomes) in
  let outs = Array.of_list outcomes in
  let n = Array.length outs in
  let enc_req = Array.map Request.to_wire reqs and enc_out = Array.map Request.outcome_to_wire outs in
  let round f =
    let (), dt = timed (fun () -> for i = 0 to n - 1 do f i done) in
    dt *. 1e6 /. float_of_int n
  in
  let rounds f = median (List.init 15 (fun _ -> round f)) in
  layer "wire.encode_us" "us"
    (rounds (fun i ->
         ignore (Request.to_wire reqs.(i));
         ignore (Request.outcome_to_wire outs.(i))));
  layer "wire.decode_us" "us"
    (rounds (fun i ->
         ignore (Request.of_wire enc_req.(i));
         ignore (Request.outcome_of_wire enc_out.(i))));
  let rq, oc = wire_bytes outcomes in
  layer "wire.bytes_per_request" "bytes" (float_of_int rq /. float_of_int n);
  layer "wire.bytes_per_outcome" "bytes" (float_of_int oc /. float_of_int n)

let record_outcome_fracs outcomes =
  let n = float_of_int (List.length outcomes) in
  let count p = float_of_int (List.length (List.filter p outcomes)) in
  layer "outcomes.failed_frac" "ratio"
    (ratio (count (fun (o : Request.outcome) -> Option.is_some (Request.failure o.Request.result))) n);
  layer "outcomes.rejected_frac" "ratio" (ratio (count rejected) n);
  layer "shard.rejected_overload" "count" (count overloaded)

(* Share of the stream owned by the busiest shard under the fleet's pair
   partitioning; computed for every workload from its own requests. *)
let record_shard_share (reqs : Request.t list) =
  let per = Array.make shards 0 in
  List.iter (fun r -> let k = Gen.shard_of ~shards r in per.(k) <- per.(k) + 1) reqs;
  layer "router.max_shard_share" "ratio"
    (ratio (float_of_int (Array.fold_left max 0 per)) (float_of_int (List.length reqs)))

(* ---- set-up ------------------------------------------------------------ *)

type setup = {
  gen_s : float;
  build_s : float;
  save_s : float;
  load_s : float;  (* Snapshot.load of the snapshot *)
  boot_s : float;  (* loaded snapshot -> evaluation pool ready *)
  bytes : int;
  total_s : float;  (* generate -> ready to serve *)
}

(* The dataset is the generator's default instance at [scale] for every
   seed: set-up time and memory then compare like with like between runs,
   and --seed varies the request streams only. *)
let generate () = Biozon.Generator.generate (Biozon.Generator.scale scale Biozon.Generator.default)

let build catalog =
  Engine.build catalog
    ~pairs:(Array.to_list Gen.pairs)
    ~l:3
    ~pruning_threshold:(max 20 (int_of_float (50.0 *. scale)))
    ()

(* Runs [one] [setup_reps] times, records the stage medians and returns
   the last repetition's product; earlier products are disposed of as
   soon as they exist, so they neither hold memory nor run domains. *)
let set_up ?(dispose = ignore) one =
  let rec go i acc =
    let s, product = one () in
    if i = setup_reps then (List.rev (s :: acc), product)
    else begin
      dispose product;
      go (i + 1) (s :: acc)
    end
  in
  let reps, product = go 1 [] in
  let stat f = median (List.map f reps) in
  let s0 = List.hd reps in
  List.iter (fun s -> same_count "snapshot.bytes" s0.bytes s.bytes) reps;
  e2e "setup_s" "s" (stat (fun s -> s.total_s));
  layer "generator.generate_s" "s" (stat (fun s -> s.gen_s));
  layer "engine.build_s" "s" (stat (fun s -> s.build_s));
  layer "snapshot.save_s" "s" (stat (fun s -> s.save_s));
  layer "snapshot.load_s" "s" (stat (fun s -> s.load_s));
  layer "fleet.boot_s" "s" (stat (fun s -> s.boot_s));
  layer "snapshot.bytes" "bytes" (float_of_int s0.bytes);
  say "setup (median of %d): %.3f s = generate %.3f + build %.3f + save %.3f + ready; %d snapshot bytes"
    setup_reps (stat (fun s -> s.total_s)) (stat (fun s -> s.gen_s)) (stat (fun s -> s.build_s))
    (stat (fun s -> s.save_s)) s0.bytes;
  product

(* In-process: generate, build, save, load; the pool is the fleet. *)
let set_up_inproc ~dir =
  set_up
    ~dispose:(fun (_, pool) -> Pool.shutdown pool)
    (fun () ->
      Gc.compact ();
      let catalog, gen_s = timed generate in
      let built, build_s = timed (fun () -> build catalog) in
      let path = Filename.concat dir "engine.snap" in
      let bytes, save_s = timed (fun () -> Snapshot.save built ~path) in
      let engine, load_s = timed (fun () -> Snapshot.load path) in
      let pool, boot_s = timed (fun () -> Pool.create ~jobs:nproc ()) in
      let total_s = gen_s +. build_s +. save_s +. load_s +. boot_s in
      ({ gen_s; build_s; save_s; load_s; boot_s; bytes; total_s }, (engine, pool)))

(* ---- batch workloads ----------------------------------------------------- *)

type pass = {
  wall_s : float;
  batch_s : float list;  (* one per batch, in stream order *)
  batch_outcomes : Request.outcome list list;
}

let pass_outcomes p = List.concat p.batch_outcomes

(* Times [exec] over the batches in order. *)
let run_batches exec batches =
  let t0 = now () in
  let timed_batches = List.map (fun b -> timed (fun () -> exec b)) batches in
  {
    wall_s = now () -. t0;
    batch_s = List.map snd timed_batches;
    batch_outcomes = List.map fst timed_batches;
  }

let check_pass ~what ~reference p =
  let outcomes = pass_outcomes p in
  if Serve.fingerprint outcomes <> Serve.fingerprint reference then
    mismatch "%s: answers differ from the uncached jobs=1 reference" what;
  same_work what (work reference) (work outcomes)

let stream ~seed catalog =
  let all = Gen.distinct ~seed catalog ((n_batches * batch_size) + n_warm) in
  let timed_reqs = Array.to_list (Array.sub all 0 (n_batches * batch_size)) in
  let warm = Array.to_list (Array.sub all (n_batches * batch_size) n_warm) in
  (chunks batch_size timed_reqs, warm)

let catalog_of (e : Engine.t) = e.Engine.ctx.Topo_core.Context.catalog

(* Per batch: the busiest serving unit's summed service time, the number
   of units that served, and the slowest-to-mean unit ratio.  A unit is a
   domain, and with [~routed] a (shard, domain) pair. *)
let units_of ~routed outcomes =
  let per = Hashtbl.create 8 in
  List.iter
    (fun (o : Request.outcome) ->
      let shard = if routed then Gen.shard_of ~shards o.Request.request else 0 in
      let k = (shard, o.Request.served_by) in
      Hashtbl.replace per k (service_s o +. Option.value (Hashtbl.find_opt per k) ~default:0.0))
    outcomes;
  let loads = Hashtbl.fold (fun _ s acc -> s :: acc) per [] in
  let busiest = List.fold_left max 0.0 loads in
  let n = List.length loads in
  (busiest, n, ratio busiest (sum loads /. float_of_int (max 1 n)))

let record_router ~hop_ms ~straggler =
  layer "router.hop_ms.p50" "ms" (quantile 0.5 hop_ms);
  layer "router.straggler_ratio" "ratio" (quantile 0.5 straggler)

(* Runs [pass] at least twice and until [seconds] of passes have elapsed. *)
let repeat_for seconds pass =
  let t0 = now () in
  let rec go acc =
    let acc = pass () :: acc in
    if List.length acc >= 2 && now () -. t0 >= seconds then List.rev acc else go acc
  in
  go []

(* Closed-loop throughput: the median over [qps_window]-batch windows. *)
let batch_qps passes =
  windowed qps_window
    (fun w -> float_of_int (batch_size * List.length w) /. sum w)
    (List.concat_map (fun p -> p.batch_s) passes)

(* Per batch: the busiest unit's own service time and the slowest-to-mean
   unit ratio, from checked passes. *)
let batch_units ~routed passes =
  List.concat_map
    (fun p -> List.map2 (fun b os -> (b, units_of ~routed os)) p.batch_s p.batch_outcomes)
    passes

(* A checked pass keeps its timings and counters but not its ranked
   answers, so the memory a run holds does not grow with the number of
   passes it makes. *)
let strip p =
  let light (o : Request.outcome) =
    let drop r = { r with Request.ranked = [] } in
    match o.Request.result with
    | Request.Done r -> { o with Request.result = Request.Done (drop r) }
    | Request.Partial r -> { o with Request.result = Request.Partial (drop r) }
    | _ -> o
  in
  { p with batch_outcomes = List.map (List.map light) p.batch_outcomes }

(* The batch workload's metrics, from its checked passes and the full
   outcomes of the last one; [units] is the number of evaluating
   domains. *)
let record_batch_metrics ~units ~last passes =
  (* Medians over windows: throughput and p50 per [qps_window] batches,
     p95 per pass (200 batches, so 10 beyond it). *)
  let batch_s = List.concat_map (fun p -> p.batch_s) passes in
  let qps = batch_qps passes in
  let p50 = windowed qps_window (fun w -> ms (quantile 0.5 w)) batch_s in
  let p95 = median (List.map (fun p -> ms (quantile 0.95 p.batch_s)) passes) in
  e2e "qps" "req/s" qps;
  layer "latency.p50_ms" "ms" p50;
  layer "latency.tail_ms" "ms" p95;
  let wall = sum (List.map (fun p -> p.wall_s) passes) in
  let pairs = List.concat_map (fun p -> List.combine p.batch_s p.batch_outcomes) passes in
  let outcomes = List.concat_map snd pairs in
  let busy = ratio (sum (List.map service_s outcomes)) (wall *. float_of_int units) in
  say "%d passes x %d batches of %d: %.1f req/s, batch p50 %.2f ms (medians over %d-batch \
       windows), p95 %.2f ms (median over passes); measured utilization %.3f of %d domains"
    (List.length passes) n_batches batch_size qps p50 qps_window p95 busy units;
  layer "serve.busy_frac" "ratio" busy;
  (* A closed-batch request waits for its whole batch: wait = batch wall
     time - its own service time. *)
  let waits =
    List.concat_map (fun (b, os) -> List.map (fun o -> ms (b -. service_s o)) os) pairs
  in
  layer "serve.queue_wait_p50_ms" "ms" (quantile 0.5 waits);
  layer "serve.queue_wait_p99_ms" "ms" (quantile 0.99 waits);
  layer "serve.achieved_over_offered" "ratio" 0.0;
  let units = batch_units ~routed:false passes in
  layer "serve.domains_used" "count"
    (sum (List.map (fun (_, (_, n, _)) -> float_of_int n) units) /. float_of_int (List.length units));
  record_methods outcomes;
  record_outcome_fracs outcomes;
  record_work last;
  record_shard_share (List.map (fun (o : Request.outcome) -> o.Request.request) last);
  record_wire last

let rss_mb extra_bytes =
  float_of_int (Fleet.vm_hwm_bytes (Unix.getpid ()) + extra_bytes) /. 1048576.0

(* The routed hop, on the traced run of inproc-batches: the same warm-up
   and batch stream through [Router.exec] to [shards] [toposearch shard]
   processes, each at jobs=1 with its own result cache, over slices of
   the served engine.  Every pass boots a fresh fleet, so the shard
   caches start empty as in process.  Only Wire/Router/Shard differ from
   the in-process passes, so a hop fix moves these figures and leaves
   the in-process ones alone. *)
let routed_layers ~exe ~dir ~engine ~batches ~warm ~reference ~inproc_qps =
  let manifest, _ = Snapshot.save_sharded engine ~dir ~shards in
  let pass () =
    let fleet, boot_s = timed (fun () -> Fleet.boot ~exe ~dir ~shards) in
    Fun.protect
      ~finally:(fun () -> Fleet.stop fleet)
      (fun () ->
        let router = Router.create ~manifest ~addrs:fleet.Fleet.addrs () in
        Fun.protect
          ~finally:(fun () -> Router.close router)
          (fun () ->
            ignore (Router.exec router warm);
            let p = run_batches (Router.exec router) batches in
            check_pass ~what:"routed" ~reference p;
            (p, boot_s)))
  in
  let runs = List.init routed_passes (fun _ -> pass ()) in
  let passes = List.map fst runs in
  List.iter (fun p -> count_outcomes (pass_outcomes p)) passes;
  let bytes = List.map (fun p -> wire_bytes (pass_outcomes p)) passes in
  List.iter (fun b -> if b <> List.hd bytes then mismatch "routed wire bytes drifted between passes") bytes;
  let outcomes = List.concat_map pass_outcomes passes in
  if List.exists (fun (o : Request.outcome) -> o.Request.cache = Request.Hit) outcomes then
    mismatch "routed: a result-cache hit";
  let qps = batch_qps passes in
  say "routed: %d passes through %d shard processes: %.1f req/s (medians over %d-batch windows)"
    routed_passes shards qps qps_window;
  layer "router.routed_over_inproc" "ratio" (qps /. inproc_qps);
  layer "fleet.boot_s" "s" (median (List.map snd runs));
  (* The hop: batch wall time beyond the busiest shard's own service
     time, which the outcomes carry across the wire: wire, sockets and
     scatter-gather. *)
  let units = batch_units ~routed:true passes in
  record_router
    ~hop_ms:(List.map (fun (b, (busiest, _, _)) -> ms (b -. busiest)) units)
    ~straggler:(List.map (fun (_, (_, _, straggler)) -> straggler) units);
  layer "shard.rejected_overload" "count" (float_of_int (List.length (List.filter overloaded outcomes)))

let inproc_batches ~seed ~seconds ~trace ~dir ~exe =
  let engine, pool = set_up_inproc ~dir in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
      let batches, warm = stream ~seed (catalog_of engine) in
      (* The reference pass also warms every lazily built structure. *)
      let reference =
        (Serve.exec (Serve.config ~jobs:1 ()) engine (List.concat batches)).Serve.outcomes
      in
      let first_bytes = ref None and last = ref [] in
      let pass ~traces () =
        let cache = Engine.cache ~results:result_capacity engine in
        let cfg = Serve.config ~pool ~cache ~traces () in
        ignore (Serve.exec cfg engine warm);
        let before = Cache.totals cache in
        let p = run_batches (fun b -> (Serve.exec cfg engine b).Serve.outcomes) batches in
        check_pass ~what:"inproc-batches" ~reference p;
        let rq, oc = wire_bytes (pass_outcomes p) in
        let rq0, oc0 = Option.value !first_bytes ~default:(rq, oc) in
        same_count "wire request bytes" rq0 rq;
        same_count "wire outcome bytes" oc0 oc;
        first_bytes := Some (rq, oc);
        last := pass_outcomes p;
        (p, Cache.diff ~before ~after:(Cache.totals cache))
      in
      let passes = repeat_for seconds (fun () -> let p, c = pass ~traces:false () in (strip p, c)) in
      List.iter (fun (p, _) -> count_outcomes (pass_outcomes p)) passes;
      let _, c0 = List.hd passes in
      List.iter
        (fun (_, (c : Cache.totals)) ->
          if c.Cache.results.Cache.hits <> 0 then mismatch "inproc-batches: a result-cache hit";
          same_count "cache.result.insertions" c0.Cache.results.Cache.insertions
            c.Cache.results.Cache.insertions;
          same_count "cache.result.evictions" c0.Cache.results.Cache.evictions
            c.Cache.results.Cache.evictions)
        passes;
      record_batch_metrics ~units:nproc ~last:!last (List.map fst passes);
      record_cache c0;
      e2e "rss_peak_mb" "MB" (rss_mb 0);
      if trace then begin
        let p, _ = pass ~traces:true () in
        let untraced = median (List.map (fun (p, _) -> p.wall_s) passes) in
        layer "trace.overhead_frac" "ratio" ((p.wall_s /. untraced) -. 1.0);
        record_spans (pass_outcomes p);
        routed_layers ~exe ~dir ~engine ~batches ~warm ~reference
          ~inproc_qps:(batch_qps (List.map fst passes))
      end)

(* ---- zipf-open ------------------------------------------------------------ *)

(* One open-loop segment: [segment_s] of Poisson arrivals at one rate. *)
type segment = { timed_list : Serve.timed list; stats : Serve.open_stats }

type rung = { rung_name : string; rate : float; segments : segment list }

let rung_timed r = List.concat_map (fun s -> s.timed_list) r.segments
let rung_outcomes r = List.map (fun (t : Serve.timed) -> t.Serve.timed_outcome) (rung_timed r)
let rung_sum f r = List.fold_left (fun acc s -> acc + f s.stats) 0 r.segments

let answered_ms timed =
  List.filter_map
    (fun (t : Serve.timed) ->
      if Option.is_some (Request.answered t.Serve.timed_outcome.Request.result) then
        Some (ms t.Serve.latency_s)
      else None)
    timed

(* Time a worker held each request: admission-queue pop to finish. *)
let held (t : Serve.timed) = t.Serve.finished_s -. t.Serve.started_s

let zipf_open ~seed ~seconds ~trace ~dir =
  let engine, pool = set_up_inproc ~dir in
  let requests = Gen.distinct ~seed (catalog_of engine) zipf_pool in
  let rng = Prng.create (seed + 1) in
  let zipf = Zipf.create ~n:zipf_pool ~s:zipf_s in
  let draw n = List.init n (fun _ -> requests.(Zipf.sample zipf rng - 1)) in
  let cache = Engine.cache ~results:result_capacity engine in
  (* Untimed warm pass: fills the cache with the head of the pool. *)
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () -> ignore (Serve.exec (Serve.config ~pool ~cache ()) engine (draw zipf_warm)));
  let segment ~traces rate =
    let n = int_of_float (rate *. segment_s) in
    let at = Array.make n 0.0 in
    let t = ref 0.0 in
    for i = 0 to n - 1 do
      t := !t -. (log (1.0 -. Prng.float rng) /. rate);
      at.(i) <- !t
    done;
    let r =
      Serve.exec
        (Serve.config ~jobs:nproc ~cache ~traces
           ~mode:
             (Serve.Open (Serve.open_config ~max_queue ~deadline_s ~schedule:(fun i -> at.(i)) ()))
           ())
        engine (draw n)
    in
    { timed_list = Option.get r.Serve.timed; stats = Option.get r.Serve.open_stats }
  in
  (* The rungs alternate segment by segment over the whole run, so a
     stretch of machine noise lands on both rungs, and the per-segment
     medians below shrug off the segments it covers. *)
  let cycles =
    max 1 (int_of_float (Float.round (seconds /. (segment_s *. float_of_int (List.length rungs)))))
  in
  let cache_before = Cache.totals cache in
  let by_cycle =
    List.init cycles (fun _ -> List.map (fun (_, rate) -> segment ~traces:false rate) rungs)
  in
  let results =
    List.mapi
      (fun i (rung_name, rate) ->
        { rung_name; rate; segments = List.map (fun c -> List.nth c i) by_cycle })
      rungs
  in
  let cache_total = Cache.diff ~before:cache_before ~after:(Cache.totals cache) in
  let heavy = List.nth results (List.length results - 1) in
  (* The traced run: one more heavy segment with fresh draws, so it meets
     misses at the untraced rate instead of hits on its own requests. *)
  let traced = if trace then Some (segment ~traces:true heavy.rate) else None in
  let all = List.concat_map rung_outcomes results in
  count_outcomes all;
  let checked =
    all
    @ List.concat_map
        (fun s -> List.map (fun (t : Serve.timed) -> t.Serve.timed_outcome) s.timed_list)
        (Option.to_list traced)
  in
  (* Reference: every distinct request answered, uncached at jobs=1. *)
  let reference = Hashtbl.create 4096 in
  let distinct =
    List.filter_map
      (fun (o : Request.outcome) ->
        let key = Request.key o.Request.request in
        if Hashtbl.mem reference key then None
        else begin
          Hashtbl.add reference key None;
          (* Open loop stamps each request with its wall deadline. *)
          Some { o.Request.request with Request.deadline = None }
        end)
      checked
  in
  List.iter
    (fun (o : Request.outcome) -> Hashtbl.replace reference (Request.key o.Request.request) (Some o))
    (Serve.exec (Serve.config ~jobs:1 ()) engine distinct).Serve.outcomes;
  let expected (o : Request.outcome) =
    Option.get (Hashtbl.find reference (Request.key o.Request.request))
  in
  let rec is_prefix a b =
    match (a, b) with [], _ -> true | x :: a, y :: b -> x = y && is_prefix a b | _ -> false
  in
  List.iter
    (fun (o : Request.outcome) ->
      let key = Request.key o.Request.request in
      match (ranked (expected o), o.Request.result) with
      | None, _ -> mismatch "zipf-open: the reference failed for %s" key
      | Some want, Request.Done r when r.Request.ranked <> want ->
          mismatch "zipf-open: answer for %s differs from the reference" key
      | Some want, Request.Partial r when not (is_prefix r.Request.ranked want) ->
          mismatch "zipf-open: partial answer for %s is not a prefix of the reference" key
      | _ -> ())
    checked;
  let done_ = List.filter is_done checked in
  same_work "zipf-open" (work (List.map expected done_)) (work done_);
  (* Per-rung figures over all its segments; a rejection counts as
     missing the limit. *)
  (* The limit is judged on the median over segments of the per-segment
     p99, so one segment covered by a stall of the machine does not decide
     the rung. *)
  let p99 r = median (List.map (fun s -> quantile 0.99 (answered_ms s.timed_list)) r.segments) in
  let rejections r = rung_sum (fun s -> s.Serve.rejected_overload + s.Serve.expired) r in
  let meets r = rejections r = 0 && p99 r <= latency_limit_ms in
  let offered r = rung_sum (fun s -> s.Serve.offered) r in
  let achieved r =
    let answered = rung_sum (fun s -> s.Serve.completed + s.Serve.partial) r in
    ratio (float_of_int answered) (sum (List.map (fun s -> s.stats.Serve.wall_s) r.segments))
  in
  List.iter
    (fun r ->
      say "rung %s: offered %.0f/s, achieved %.1f/s over %d requests in %d segments (%d rejected, \
           %d partial); p50 %.3f ms, p99 %.2f ms (limit %.0f ms: %s); per-segment p50/p99: %s"
        r.rung_name r.rate (achieved r) (offered r) (List.length r.segments) (rejections r)
        (rung_sum (fun s -> s.Serve.partial) r)
        (quantile 0.5 (answered_ms (rung_timed r)))
        (p99 r) latency_limit_ms
        (if meets r then "met" else "missed")
        (String.concat " "
           (List.map
              (fun s ->
                let l = answered_ms s.timed_list in
                Printf.sprintf "%.3f/%.2f" (quantile 0.5 l) (quantile 0.99 l))
              r.segments)))
    results;
  (* The sustained rate: the highest rung that meets the limit. *)
  e2e "qps" "req/s" (List.fold_left (fun acc r -> if meets r then achieved r else acc) 0.0 results);
  let per_segment q =
    median (List.map (fun s -> quantile q (answered_ms s.timed_list)) heavy.segments)
  in
  layer "latency.p50_ms" "ms" (per_segment 0.5);
  layer "latency.tail_ms" "ms" (per_segment 0.99);
  (* Per-layer figures come from the heavy rung unless stated. *)
  let ht = rung_timed heavy in
  let wall = sum (List.map (fun s -> s.stats.Serve.wall_s) heavy.segments) in
  let busy = ratio (sum (List.map held ht)) (wall *. float_of_int nproc) in
  say "heavy rung measured utilization %.3f of %d domains" busy nproc;
  layer "serve.busy_frac" "ratio" busy;
  let waits = List.map (fun (t : Serve.timed) -> ms (t.Serve.started_s -. t.Serve.intended_s)) ht in
  layer "serve.queue_wait_p50_ms" "ms" (quantile 0.5 waits);
  layer "serve.queue_wait_p99_ms" "ms" (quantile 0.99 waits);
  layer "serve.achieved_over_offered" "ratio" (ratio (achieved heavy) heavy.rate);
  layer "router.routed_over_inproc" "ratio" 0.0;
  let _, used, _ = units_of ~routed:false (rung_outcomes heavy) in
  layer "serve.domains_used" "count" (float_of_int used);
  record_cache cache_total;
  record_methods all;
  record_outcome_fracs all;
  record_work all;
  record_shard_share (List.map (fun (o : Request.outcome) -> o.Request.request) all);
  record_wire all;
  (* An open-loop request has no batch and no hop: the analogue is the
     serving overhead around its evaluation, and load skew across domains. *)
  let per_domain = Hashtbl.create 4 in
  List.iter
    (fun (t : Serve.timed) ->
      let d = t.Serve.timed_outcome.Request.served_by in
      let prev = Option.value (Hashtbl.find_opt per_domain d) ~default:0.0 in
      Hashtbl.replace per_domain d (held t +. prev))
    ht;
  let loads = Hashtbl.fold (fun _ s acc -> s :: acc) per_domain [] in
  record_router
    ~hop_ms:(List.map (fun (t : Serve.timed) -> ms (held t -. service_s t.Serve.timed_outcome)) ht)
    ~straggler:
      [ ratio (List.fold_left max 0.0 loads) (sum loads /. float_of_int (max 1 (List.length loads))) ];
  Option.iter
    (fun s ->
      let mean l = sum l /. float_of_int (max 1 (List.length l)) in
      layer "trace.overhead_frac" "ratio"
        ((mean (answered_ms s.timed_list) /. mean (answered_ms ht)) -. 1.0);
      record_spans (List.map (fun (t : Serve.timed) -> t.Serve.timed_outcome) s.timed_list))
    traced;
  e2e "rss_peak_mb" "MB" (rss_mb 0)

(* ---- main -------------------------------------------------------------------- *)

let workloads = [ "inproc-batches"; "zipf-open" ]

let rec remove_tree path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun n -> remove_tree (Filename.concat path n)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let print_result ~correct metrics =
  let metric (name, v, unit) = (name, Json.Obj [ ("value", Json.Num v); ("unit", Json.Str unit) ]) in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool correct);
            ("attempted", Json.int !attempted);
            ("failed", Json.int !failed);
            ("metrics", Json.Obj (List.rev_map metric metrics));
          ]))

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let exe = ref "_build/default/bin/toposearch.exe" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, String.concat "|" workloads);
      ("--seed", Arg.Set_int seed, "N  request-stream seed");
      ("--seconds", Arg.Set_float seconds, "S  minimum length of the timed section");
      ("--trace", Arg.Set_int trace, "0|1  print end-to-end (0) or per-layer (1) metrics");
      ("--toposearch", Arg.Set_string exe, "PATH  the toposearch binary (shard server, --trace 1)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench.exe --workload W --seed N --seconds S --trace 0|1";
  if not (List.mem !workload workloads) then begin
    prerr_endline ("perfbench: --workload must be one of " ^ String.concat ", " workloads);
    exit 2
  end;
  let dir = Filename.concat ".perfbench-tmp" (string_of_int (Unix.getpid ())) in
  (try Unix.mkdir ".perfbench-tmp" 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  Unix.mkdir dir 0o755;
  let trace = !trace = 1 and seed = !seed and seconds = !seconds in
  let outcome =
    Fun.protect
      ~finally:(fun () -> remove_tree dir)
      (fun () ->
        try
          (match !workload with
          | "inproc-batches" -> inproc_batches ~seed ~seconds ~trace ~dir ~exe:!exe
          | _ -> zipf_open ~seed ~seconds ~trace ~dir);
          Ok ()
        with Mismatch msg -> Error msg)
  in
  match outcome with
  | Ok () -> print_result ~correct:true (if trace then !per_layer else !end_to_end)
  | Error msg ->
      prerr_endline ("perfbench: check failed: " ^ msg);
      print_result ~correct:false [];
      exit 1
