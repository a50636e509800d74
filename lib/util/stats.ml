type series = float list

let mean = function
  | [] -> 0.0
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let stddev xs =
  match xs with
  | [] | [ _ ] -> 0.0
  | _ ->
      let m = mean xs in
      let var =
        List.fold_left (fun acc x -> acc +. ((x -. m) ** 2.0)) 0.0 xs
        /. float_of_int (List.length xs)
      in
      sqrt var

let sorted xs = List.sort compare xs

let percentile xs p =
  match sorted xs with
  | [] -> 0.0
  | s ->
      let n = List.length s in
      let rank = int_of_float (ceil (p /. 100.0 *. float_of_int n)) in
      let rank = max 1 (min n rank) in
      List.nth s (rank - 1)

let median xs = percentile xs 50.0
let minimum = function [] -> 0.0 | xs -> List.fold_left Float.min infinity xs
let maximum = function [] -> 0.0 | xs -> List.fold_left Float.max neg_infinity xs


type counter = { mutable n : int; mutable sum : float }

let counter () = { n = 0; sum = 0.0 }

let tick c v =
  c.n <- c.n + 1;
  c.sum <- c.sum +. v

let rate c ~duration = if duration <= 0.0 then 0.0 else c.sum /. duration
