let uniprocessor_consensus_quantum = 8
let fig5_stmt_const = 60
let fig7_stmt_const = 160
let universal_stmt_const = 40

let fig7_k ~p ~consensus_number = min consensus_number (2 * p) - p

let universal_quantum ~c ~p ~consensus_number =
  if consensus_number < p then None
  else if consensus_number = max_int then Some 0
  else Some (max (2 * c) (c * (p + 1 - fig7_k ~p ~consensus_number)))

let impossibility_quantum ~p ~consensus_number =
  if consensus_number = max_int then None
  else Some (max 1 (2 * p - consensus_number))

let levels ~m ~p ~k =
  if k < 0 || k > p then invalid_arg "Bounds.levels: need 0 <= k <= p";
  if m < 1 then invalid_arg "Bounds.levels: need m >= 1";
  ((k + 1) * m * (1 + p - k)) + ((p - k) * (p - k) * m) + 1

let ports_per_processor ~p ~k ~processor =
  if processor < 0 || processor >= p then
    invalid_arg "Bounds.ports_per_processor: processor out of range";
  if processor < k then 2 else 1

let af_diff_bound ~m = m

let af_same_bound ~m ~p ~k ~l =
  (* KM + (P-K)(L + M(P-K)) / (1+P-K), rounded up *)
  let num = (p - k) * (l + (m * (p - k))) in
  let den = 1 + p - k in
  (k * m) + ((num + den - 1) / den)

let deciding_level_threshold ~m ~p ~k =
  ((k + 1) * m * (1 + p - k)) + ((p - k) * (p - k) * m)

let exponential_baseline_levels ~m ~p = m * (1 lsl (2 * p))
