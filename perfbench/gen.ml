(* The seeded request generator shared by every workload.

   A request combines one of the eight precomputed methods, one of the
   five main entity-set pairs (either orientation), a predicate per
   endpoint, the ranking scheme and k; streams cover the combinations
   evenly (see [distinct]) and draw the predicates.  Predicates are keyword
   containment on [desc] (the generator's calibrated 15/50/85% keywords,
   or one of its filler words at roughly 11%) or equality on DNA.type, and
   occasionally none.  The Sql method is left out: one Sql request costs
   about a thousand others and would hide every other layer. *)

module Engine = Topo_core.Engine
module Query = Topo_core.Query
module Request = Topo_core.Request
module Ranking = Topo_core.Ranking
module Prng = Topo_util.Prng

let pairs =
  [|
    ("Protein", "DNA");
    ("Protein", "Interaction");
    ("Protein", "Unigene");
    ("DNA", "Unigene");
    ("DNA", "Interaction");
  |]

let methods = Array.of_list (List.filter (fun m -> m <> Engine.Sql) Engine.all_methods)
let schemes = [| Ranking.Freq; Ranking.Rare; Ranking.Domain |]
let ks = [| 5; 10; 20 |]

(* Words the Biozon generator scatters over every description. *)
let fillers =
  [|
    "ubiquitin"; "homolog"; "putative"; "hypothetical"; "variant"; "transcription"; "factor";
    "regulatory"; "membrane"; "nuclear"; "mitochondrial"; "ribosomal"; "polymerase"; "synthase";
    "receptor"; "transporter"; "domain"; "zinc"; "finger"; "helix"; "carrier"; "chain"; "alpha";
    "beta"; "gamma"; "precursor"; "isoform"; "subunit"; "dependent"; "induced"; "repressor";
    "activator"; "fragment"; "chromosome"; "operon";
  |]

let calibrated entity =
  match entity with
  | "Protein" -> List.map fst Biozon.Vocab.protein_keywords
  | "Interaction" -> List.map fst Biozon.Vocab.interaction_keywords
  | _ -> []

let endpoint rng catalog entity =
  let keyword kw = Query.keyword catalog entity ~col:"desc" ~kw in
  let u = Prng.float rng in
  if u < 0.1 then Query.endpoint catalog entity
  else if u < 0.45 && entity = "DNA" then
    let ty = fst (Prng.choose rng (Array.of_list Biozon.Vocab.dna_types)) in
    Query.equals catalog "DNA" ~col:"type" ~value:(Topo_sql.Value.Str ty)
  else if u < 0.45 && calibrated entity <> [] then
    keyword (Prng.choose rng (Array.of_list (calibrated entity)))
  else keyword (Prng.choose rng fillers)

(* Every (method, ordered pair, scheme, k) combination: 8 x 10 x 3 x 3. *)
let cells =
  let ( let* ) l f = List.concat_map f l in
  let* m = Array.to_list methods in
  let* t1, t2 = Array.to_list pairs in
  let* a, b = [ (t1, t2); (t2, t1) ] in
  let* scheme = Array.to_list schemes in
  let* k = Array.to_list ks in
  [ (m, a, b, scheme, k) ]

(* [distinct ~seed catalog n] is [n] requests with pairwise distinct
   [Request.key]s, deterministic in [seed].  The stream is stratified:
   it walks the cells in seeded shuffled rounds, each cell once per
   round, and draws only the predicates at random.  So every seed gives
   the same method, pair, scheme and k mix, and the cost of a stream
   moves less from seed to seed than under independent draws. *)
let distinct ~seed catalog n =
  let rng = Prng.create seed in
  let seen = Hashtbl.create (2 * n) in
  let round = Array.of_list cells in
  let draw i =
    if i mod Array.length round = 0 then Prng.shuffle rng round;
    let method_, t1, t2, scheme, k = round.(i mod Array.length round) in
    let rec fresh tries =
      if tries > 100 then failwith "gen: request space too small for a distinct stream";
      let r =
        Request.make ~scheme ~k method_
          (Query.make (endpoint rng catalog t1) (endpoint rng catalog t2))
      in
      let key = Request.key r in
      if Hashtbl.mem seen key then fresh (tries + 1)
      else begin
        Hashtbl.add seen key ();
        r
      end
    in
    fresh 0
  in
  (* Array.init applies [draw] in index order, which the rounds need. *)
  Array.init n draw

(* The owning shard of a request under [shards]-way pair partitioning. *)
let shard_of ~shards (r : Request.t) =
  Topo_core.Snapshot.shard_of_pair ~shards ~t1:r.Request.query.Query.e1.Query.entity
    ~t2:r.Request.query.Query.e2.Query.entity
