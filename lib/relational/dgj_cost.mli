(** Cost model for stacks of DGJ operators (Sections 5.4.2 and 5.4.3).

    The model prices a plan that feeds [m] groups of tuples (group [i] has
    [cards.(i)] tuples, in processing order — score order for topology
    queries) through a stack of [n] DGJ operators, stopping after [k] groups
    have produced a result.  Each level [i] of the stack is described by the
    statistics of Section 5.4.3:

    - [n_inner]: cardinality N_i of the inner relation,
    - [probe_cost]: index probe cost I_i,
    - [pred_sel]: local predicate selectivity rho_i,
    - [join_sel]: join selectivity s_i.

    Two formulas in the paper are typos which we repair (and note in
    DESIGN.md / code comments):

    - Lemma 1 as printed gives x_n = 0 because x_{n+1} = 0 zeroes every
      term; the base case must be x_{n+1} = 1 (a tuple surviving the whole
      stack {e is} a result).  We also weight by the binomial coefficient
      the paper omits.
    - Theorem 4 uses rho_l where the success probability of an input tuple
      is x_l; we use x_l. *)

type level = { n_inner : int; probe_cost : float; pred_sel : float; join_sel : float }

type input = {
  cards : int array;  (** Card_i per group, in processing order *)
  levels : level array;  (** bottom-up stack of DGJ operators *)
  k : int;  (** desired number of result groups *)
  per_group_overhead : float;  (** fixed cost of expanding one group (e.g. the TID probe into the fact table) *)
}

(** [hit_probabilities levels] is the array x_1..x_{n+1} of Lemma 1:
    [x.(i)] is the probability that a tuple entering level [i] (0-based)
    yields at least one plan result. *)
val hit_probabilities : level array -> float array

(** [probe_costs levels] is delta_1..delta_{n+1} of Lemma 2: expected index
    probe cost charged to one level-[i] input tuple that yields no result. *)
val probe_costs : level array -> float array

(** [group_params input] is the per-group [(np_i, nc_i, ec_i)] of Theorems
    2-4, computed once per distinct card (groups with equal cards share
    them). *)
val group_params : input -> (float * float * float) array

(** [expected_cost input] is E[Z^k_{1:m}] of Theorem 1, computed by dynamic
    programming over (group, remaining-k), two rows at a time. *)
val expected_cost : input -> float

(** [expected_groups_examined input] is the expected number of groups the
    plan opens before finding [k] results: the same dynamic program with
    every opened group costing 1 (a diagnostic; pricing does not use
    it). *)
val expected_groups_examined : input -> float
