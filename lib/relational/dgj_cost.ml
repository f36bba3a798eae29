type level = { n_inner : int; probe_cost : float; pred_sel : float; join_sel : float }

type input = {
  cards : int array;
  levels : level array;
  k : int;
  per_group_overhead : float;
}

let expected_matches level =
  (* K_i: how many inner tuples one outer tuple joins with.  For the
     foreign-key joins of topology plans this is 1. *)
  let k = level.join_sel *. float_of_int level.n_inner in
  if k < 1.0 then 1.0 else Float.round k

(* Binomial(n, p) expectation of f(j): sum_j C(n,j) p^j (1-p)^(n-j) f(j).
   n is small (K_i), so the direct sum is fine; we walk the probability
   mass recursively to avoid computing large binomial coefficients. *)
let binomial_expect n p f =
  let n = int_of_float n in
  if n <= 0 then f 0
  else begin
    (* Iteratively: P(j) = C(n,j) p^j (1-p)^(n-j). *)
    let q = 1.0 -. p in
    let acc = ref 0.0 in
    let prob = ref (Float.pow q (float_of_int n)) in
    for j = 0 to n do
      acc := !acc +. (!prob *. f j);
      (* P(j+1) = P(j) * (n-j)/(j+1) * p/q *)
      if j < n then
        prob :=
          if q = 0.0 then if j + 1 = n then 1.0 else 0.0
          else !prob *. (float_of_int (n - j) /. float_of_int (j + 1)) *. (p /. q)
    done;
    !acc
  end

let hit_probabilities levels =
  let n = Array.length levels in
  let x = Array.make (n + 1) 1.0 in
  (* Paper's Lemma 1 with the base case repaired: x_{n+1} = 1. *)
  for i = n - 1 downto 0 do
    let level = levels.(i) in
    let k = expected_matches level in
    x.(i) <-
      binomial_expect k level.pred_sel (fun j -> 1.0 -. Float.pow (1.0 -. x.(i + 1)) (float_of_int j))
  done;
  x

let probe_costs levels =
  let n = Array.length levels in
  let delta = Array.make (n + 1) 0.0 in
  (* Lemma 2 closed form: delta_i = I_i + rho_i * K_i * delta_{i+1}. *)
  for i = n - 1 downto 0 do
    let level = levels.(i) in
    let k = expected_matches level in
    delta.(i) <- level.probe_cost +. (level.pred_sel *. k *. delta.(i + 1))
  done;
  delta

(* Truncated sum S(h, q) = sum_{j=1}^{h} (j-1) q^{j-1}; the expected number
   of failing tuples processed before the first success, unnormalized.
   Closed form: S = q (1 - h q^{h-1} + (h-1) q^h) / (1-q)^2, with the
   degenerate q -> 1 limit h(h-1)/2. *)
let failure_weight h q =
  let hf = float_of_int h in
  if q >= 1.0 -. 1e-12 then hf *. (hf -. 1.0) /. 2.0
  else if q <= 0.0 then 0.0
  else
    let qh1 = Float.pow q (hf -. 1.0) in
    let qh = qh1 *. q in
    q *. (1.0 -. (hf *. qh1) +. ((hf -. 1.0) *. qh)) /. ((1.0 -. q) *. (1.0 -. q))

(* Theorem 4 (with x_l in place of the paper's rho_l as the probability that
   an input tuple produces a result):

     EC_{l:n}(h) = sum_{j=1}^{h} x_l (1-x_l)^{j-1}
                     [ (j-1) delta_l + I_l + EC_{l+1:n}(K_l) ]
     EC_{n+1:n}(h) = 0

   The bracket depends on j only through (j-1) delta_l, so
     EC_{l:n}(h) = (1-(1-x_l)^h) (I_l + EC_{l+1:n}(K_l))
                   + x_l delta_l S(h, 1-x_l). *)
let ec_machinery levels =
  let n = Array.length levels in
  let x = hit_probabilities levels in
  let delta = probe_costs levels in
  (* upper.(l) = EC_{l+1:n}(K_l), the cost incurred above level l by the
     first successful tuple's matches. *)
  let upper = Array.make n 0.0 in
  let ec_at l h =
    if n = 0 then 0.0
    else
      let level = levels.(l) in
      let q = 1.0 -. x.(l) in
      ((1.0 -. Float.pow q (float_of_int h)) *. (level.probe_cost +. upper.(l)))
      +. (x.(l) *. delta.(l) *. failure_weight h q)
  in
  for l = n - 1 downto 0 do
    if l = n - 1 then upper.(l) <- 0.0
    else upper.(l) <- ec_at (l + 1) (int_of_float (expected_matches levels.(l)))
  done;
  (x, delta, ec_at)


let group_params input =
  let n = Array.length input.levels in
  let x, delta, ec_at = ec_machinery input.levels in
  let x1 = if n = 0 then 1.0 else x.(0) in
  let delta1 = if n = 0 then 0.0 else delta.(0) in
  let params card =
    let cardf = float_of_int card in
    let np = Float.pow (1.0 -. x1) cardf in
    (* Theorem 3: cost of exhausting the group without a result, weighted
       by its probability. *)
    let nc = np *. cardf *. delta1 in
    let ec = if n = 0 then 0.0 else ec_at 0 card in
    (np, nc +. input.per_group_overhead, ec)
  in
  (* The parameters depend on the card alone; groups repeat few distinct
     cards, so each is computed once. *)
  let by_card = Hashtbl.create 16 in
  Array.map
    (fun card ->
      match Hashtbl.find_opt by_card card with
      | Some p -> p
      | None ->
          let p = params card in
          Hashtbl.add by_card card p;
          p)
    input.cards

(* E[Z^k'_{l:m}] of Theorem 1 by dynamic programming over (group,
   remaining k'), from the last group up; E = 0 when l > m or k' = 0.
   Row l reads only row l+1, so two rows suffice: row l lives in
   [rows.(l land 1)].  Column 0 is never written and stays 0. *)
let dp ~k params =
  let m = Array.length params in
  if m = 0 || k = 0 then 0.0
  else begin
    let rows = Array.make_matrix 2 (k + 1) 0.0 in
    for l = m - 1 downto 0 do
      let np, nc, ec = params.(l) in
      let next = rows.((l + 1) land 1) in
      for k' = 1 to k do
        rows.(l land 1).(k') <- ec +. ((1.0 -. np) *. next.(k' - 1)) +. nc +. (np *. next.(k'))
      done
    done;
    rows.(0).(k)
  end

let expected_cost input = dp ~k:input.k (group_params input)

(* The same recurrence with every opened group costing 1 and nothing
   else: (1 + a) + 0 is exactly 1 + a, so this is the expected number of
   groups opened. *)
let expected_groups_examined input =
  dp ~k:input.k (Array.map (fun (np, _, _) -> (np, 0.0, 1.0)) (group_params input))
