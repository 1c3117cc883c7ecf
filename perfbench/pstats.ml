(* Sample statistics for the benchmark: medians, nearest-rank tail
   percentiles with the "ten samples beyond" rule, and quartile spreads. *)

let sorted xs = List.sort Float.compare xs

(* Median with the usual midpoint rule for even counts. *)
let median xs =
  match sorted xs with
  | [] -> invalid_arg "Pstats.median: no samples"
  | s ->
    let a = Array.of_list s in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Nearest-rank percentile [p] (0 < p < 100): the smallest sample with at
   least [p]% of the samples at or below it. *)
let percentile p xs =
  match sorted xs with
  | [] -> invalid_arg "Pstats.percentile: no samples"
  | s ->
    let a = Array.of_list s in
    let n = Array.length a in
    let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))

(* How many samples lie strictly above [v]. *)
let beyond v xs = List.length (List.filter (fun x -> x > v) xs)

let min_beyond = 10

(* The tail percentile is reported only when at least [min_beyond]
   samples lie beyond it; [None] tells the caller to keep sampling. *)
let tail p xs =
  match xs with
  | [] -> None
  | _ ->
    let v = percentile p xs in
    let k = beyond v xs in
    if k >= min_beyond then Some (v, k) else None

(* The smallest sample count at which a nearest-rank p95 can have ten
   distinct samples beyond it. *)
let samples_for_p95 = 200

(* Consecutive windows of [n] samples; a short tail joins the last full
   window. *)
let windows n xs =
  let rec go acc cur k = function
    | [] -> (
      match (acc, cur) with
      | _, [] -> List.rev acc
      | last :: rest, _ when k < n -> List.rev ((last @ List.rev cur) :: rest)
      | _ -> List.rev (List.rev cur :: acc))
    | x :: rest ->
      if k = n then go (List.rev cur :: acc) [ x ] 1 rest else go acc (x :: cur) (k + 1) rest
  in
  go [] [] 0 xs

let mean = function
  | [] -> 0.0
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)
