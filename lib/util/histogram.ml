(* Geometric buckets: bucket i covers (base^i, base^(i+1)] relative to
   [smallest]. With base = 1.02, relative error is ~2%, and ~2300 buckets
   cover 1e-9 .. 1e11. A histogram only touches a narrow band of them (a
   latency histogram spans a few hundred), so the counts live in a dense
   array over the band [lo, lo + length), grown on demand: [add] indexes
   it directly, and merge, percentile and CDF walk it in ascending bucket
   order, skipping empty buckets. *)

let base = 1.02
let log_base = log base
let smallest = 1e-9

(* Every sample below ~1e299 lands in its own bucket; larger and
   non-finite ones share the top bucket, so no sample can demand a huge
   array. *)
let max_index = 40_000

let index_of v =
  let v = if v <= smallest then smallest else v in
  let i = Float.round (log (v /. smallest) /. log_base) in
  if i < float_of_int max_index then int_of_float i else max_index

let upper_of i = smallest *. exp (float_of_int i *. log_base)

type t = {
  mutable lo : int;
  mutable counts : int array;
  mutable count : int;
  mutable total : float;
  mutable min_v : float;
  mutable max_v : float;
}

let create () = { lo = 0; counts = [||]; count = 0; total = 0.0; min_v = infinity; max_v = 0.0 }

(* Extra buckets added on the growing side, so a band widening one
   bucket at a time does not copy the array on every sample. *)
let headroom = 16

(* Make buckets [first, last] addressable. *)
let cover t first last =
  let n = Array.length t.counts in
  if n = 0 then begin
    t.lo <- first;
    t.counts <- Array.make (last - first + 1 + headroom) 0
  end
  else if first < t.lo || last >= t.lo + n then begin
    let lo = if first < t.lo then max 0 (first - headroom) else t.lo in
    let hi = if last >= t.lo + n then last + headroom else t.lo + n - 1 in
    let counts = Array.make (hi - lo + 1) 0 in
    Array.blit t.counts 0 counts (t.lo - lo) n;
    t.lo <- lo;
    t.counts <- counts
  end

(* Non-positive samples are clamped to [smallest] before recording, so every
   statistic (count, total, min, percentiles) agrees with the bucket data. *)
let add t v =
  let v = if v < smallest then smallest else v in
  let i = index_of v in
  cover t i i;
  t.counts.(i - t.lo) <- t.counts.(i - t.lo) + 1;
  t.count <- t.count + 1;
  t.total <- t.total +. v;
  if v < t.min_v then t.min_v <- v;
  if v > t.max_v then t.max_v <- v

let merge_into ~dst src =
  if src.count > 0 then begin
    let n = Array.length src.counts in
    cover dst src.lo (src.lo + n - 1);
    let off = src.lo - dst.lo in
    for j = 0 to n - 1 do
      dst.counts.(off + j) <- dst.counts.(off + j) + src.counts.(j)
    done
  end;
  dst.count <- dst.count + src.count;
  dst.total <- dst.total +. src.total;
  if src.min_v < dst.min_v then dst.min_v <- src.min_v;
  if src.max_v > dst.max_v then dst.max_v <- src.max_v

let count t = t.count
let total t = t.total
let mean t = if t.count = 0 then 0.0 else t.total /. float_of_int t.count
let max_value t = if t.count = 0 then 0.0 else t.max_v
let min_value t = if t.count = 0 then 0.0 else t.min_v

let percentile t p =
  if t.count = 0 then 0.0
  else begin
    let target = p /. 100.0 *. float_of_int t.count in
    let n = Array.length t.counts in
    let rec walk acc j =
      if j >= n then t.max_v
      else
        let c = t.counts.(j) in
        let acc = acc + c in
        if c > 0 && float_of_int acc >= target then Float.min (upper_of (t.lo + j)) t.max_v
        else walk acc (j + 1)
    in
    walk 0 0
  end

let cdf_points t =
  if t.count = 0 then []
  else begin
    let n = float_of_int t.count and acc = ref 0 and pts = ref [] in
    Array.iteri
      (fun j c ->
        if c > 0 then begin
          acc := !acc + c;
          pts := (upper_of (t.lo + j), float_of_int !acc /. n) :: !pts
        end)
      t.counts;
    List.rev !pts
  end

let clear t =
  Array.fill t.counts 0 (Array.length t.counts) 0;
  t.count <- 0;
  t.total <- 0.0;
  t.min_v <- infinity;
  t.max_v <- 0.0
