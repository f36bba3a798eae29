(** Cost-based optimization for distinct top-k group queries (Section 5.4).

    The optimizer handles the SQL6 query class: a {e group relation} whose
    tuples are the groups (TopInfo, one row per topology, carrying a score),
    a {e fact relation} expanding each group into member tuples (LeftTops),
    and {e dimension relations} joined to fact columns with local predicates
    (the selected Proteins / DNAs / Interactions), producing the distinct
    top-k groups by score.

    Two plan families are enumerated, as in the paper:

    - {b regular}: a System-R style dynamic program over left-deep hash /
      index-nested-loop join orders, followed by project, distinct, sort by
      score and limit (the Figure 14 shape);
    - {b early-termination}: an ordered grouped scan of the group relation
      feeding a stack of DGJ operators (the Figure 15 shape), enumerated
      over dimension orders and per-level IDGJ/HDGJ implementations, and
      priced with the {!Dgj_cost} model.

    [choose] returns the cheaper plan along with both estimates so callers
    (and Table 2) can report the optimizer's decision.

    Every search prices from a {!stats} value that {!gather} reads from
    the catalog once per spec; a request that runs several searches over
    one spec hands them the same value. *)

type dim = {
  dim_table : string;
  dim_alias : string;
  dim_key : string;  (** join column on the dimension side, e.g. ["ID"] *)
  fact_col : string;  (** join column on the fact side, e.g. ["E1"] *)
  dim_pred : Expr.t option;  (** local predicate over the dimension's base schema *)
}

type spec = {
  group_table : string;  (** e.g. TopInfo *)
  group_key : string;  (** e.g. TID *)
  score_col : string;  (** ordering column, scanned descending *)
  group_pred : Expr.t option;
  fact_table : string;  (** e.g. LeftTops *)
  fact_group_col : string;  (** fact column joining to [group_key] *)
  dims : dim list;
  k : int;
}

type strategy = Regular | Early_termination

type decision = {
  plan : Physical.t;
  strategy : strategy;
  regular_cost : float;
  et_cost : float;
}

(** The catalog statistics pricing reads for one spec: the row counts
    and local-predicate selectivities of the group, fact and dimension
    relations, the join selectivity of each edge of the join graph, and
    the group cardinalities in score order (computed on the first
    early-termination search that needs them).  A value belongs to the
    request that gathered it: it is not shared across requests or
    domains, and it is only valid while the catalog is unchanged. *)
type stats

(** [gather catalog spec] reads [spec]'s statistics from the catalog. *)
val gather : Catalog.t -> spec -> stats

(** [et_plan catalog spec ~impls ~dim_order] builds the DGJ-stack physical
    plan explicitly: [dim_order] permutes [spec.dims] and [impls] chooses
    IDGJ ([`I]) or HDGJ ([`H]) per level ([impls] also covers the fact
    expansion level at its head).  Exposed so benchmarks can time specific
    plan shapes (the paper's "best and worst plans"). *)
val et_plan : Catalog.t -> spec -> impls:[ `I | `H ] list -> dim_order:int list -> Physical.t

(** [regular_plan catalog spec stats] is the best regular plan found by the
    join-order dynamic program, with its estimated cost.  With [~check:true]
    every candidate the DP prices, and the returned plan, must pass
    {!Plan_check.check} (raises {!Plan_check.Plan_error} otherwise); tests
    run with it on. *)
val regular_plan : ?check:bool -> Catalog.t -> spec -> stats -> Physical.t * float

(** [best_et_plan catalog spec stats] enumerates dimension orders and per-level
    implementations, pricing each with {!Dgj_cost}; returns the cheapest
    with its cost.  Returns [None] when the fact or group relation is
    empty.  [~check:true] verifies every enumerated candidate and the
    winner. *)
val best_et_plan : ?check:bool -> Catalog.t -> spec -> stats -> (Physical.t * float) option

(** [choose catalog spec stats] runs both searches over [stats] and picks
    the cheaper plan.  [~check] is forwarded to both searches. *)
val choose : ?check:bool -> Catalog.t -> spec -> stats -> decision

(** [run_topk catalog spec decision] executes the decision and returns the
    top-k [(group_key_value, score)] pairs in descending score order.  For
    an [Early_termination] plan this drives the DGJ stack with
    [first_match_per_group]; for a [Regular] plan it drains the plan. *)
val run_topk : Catalog.t -> spec -> decision -> (Value.t * float) list
