let sorted xs = List.sort compare xs

let median xs =
  assert (xs <> []);
  let arr = Array.of_list (sorted xs) in
  let n = Array.length arr in
  if n mod 2 = 1 then arr.(n / 2) else (arr.((n / 2) - 1) +. arr.(n / 2)) /. 2.

let mean xs =
  assert (xs <> []);
  List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let stddev xs =
  let m = mean xs in
  let sq = List.map (fun x -> (x -. m) ** 2.) xs in
  sqrt (mean sq)

(* Linear interpolation between closest ranks (the numpy/R-7 definition):
   agrees with [median] at p = 50 and needs no special case at p = 0. *)
let percentile p xs =
  assert (xs <> []);
  assert (p >= 0. && p <= 100.);
  let arr = Array.of_list (sorted xs) in
  let n = Array.length arr in
  if n = 1 then arr.(0)
  else begin
    let rank = p /. 100. *. float_of_int (n - 1) in
    let lo = int_of_float (floor rank) in
    let lo = max 0 (min (n - 2) lo) in
    let frac = rank -. float_of_int lo in
    arr.(lo) +. (frac *. (arr.(lo + 1) -. arr.(lo)))
  end

let min_max xs =
  assert (xs <> []);
  let lo = List.fold_left min infinity xs in
  let hi = List.fold_left max neg_infinity xs in
  (lo, hi)

let geometric_mean xs =
  assert (xs <> []);
  assert (List.for_all (fun x -> x > 0.) xs);
  exp (mean (List.map log xs))

let p50 xs = percentile 50. xs
let p90 xs = percentile 90. xs
let p99 xs = percentile 99. xs

type summary = {
  n : int;
  mean : float;
  p50 : float;
  p90 : float;
  p99 : float;
  min : float;
  max : float;
}

let summary xs =
  let lo, hi = min_max xs in
  {
    n = List.length xs;
    mean = mean xs;
    p50 = percentile 50. xs;
    p90 = percentile 90. xs;
    p99 = percentile 99. xs;
    min = lo;
    max = hi;
  }

(* ------------------------------------------------------------------ *)
(* Fixed-bucket integer histograms (virtual-time durations, sizes).
   Deterministic by construction: bucket bounds are fixed at creation and
   observations land by value, never by wall clock. *)

type hist = {
  bounds : int array;  (* strictly increasing upper bounds *)
  counts : int array;  (* length bounds + 1; last is overflow *)
  mutable total : int;
  mutable sum : int;
  mutable vmax : int;
}

let hist_create ~bounds =
  let n = Array.length bounds in
  if n = 0 then invalid_arg "Stats.hist_create: empty bounds";
  for i = 1 to n - 1 do
    if bounds.(i) <= bounds.(i - 1) then
      invalid_arg "Stats.hist_create: bounds must be strictly increasing"
  done;
  { bounds = Array.copy bounds; counts = Array.make (n + 1) 0; total = 0; sum = 0; vmax = 0 }

(* 1 us .. 10 s, the range of virtual-time stage durations *)
let default_ns_bounds =
  [| 1_000; 10_000; 100_000; 1_000_000; 5_000_000; 10_000_000; 50_000_000;
     100_000_000; 500_000_000; 1_000_000_000; 5_000_000_000; 10_000_000_000 |]

(* HDR-style log-bucketed bounds: geometric octaves from [lo] up past [hi],
   each split into [sub] linear sub-buckets, so relative error per bucket is
   bounded by 1/sub regardless of magnitude. With the defaults (1 us .. 10 s,
   8 sub-buckets) that is ~190 buckets — cheap, mergeable, and fine enough
   for a meaningful p99.9. *)
let log_bounds ?(lo = 1_000) ?(hi = 10_000_000_000) ?(sub = 8) () =
  if lo <= 0 || hi <= lo || sub <= 0 then invalid_arg "Stats.log_bounds";
  let out = ref [ lo ] in
  let base = ref lo in
  let last = ref lo in
  (try
     while !last < hi do
       let step = max 1 (!base / sub) in
       for k = 1 to sub do
         let b = !base + (k * step) in
         if b > !last then begin
           out := b :: !out;
           last := b
         end;
         if !last >= hi then raise Exit
       done;
       base := !base * 2
     done
   with Exit -> ());
  Array.of_list (List.rev !out)

let log_ns_bounds = log_bounds ()

let bucket_index h v =
  let n = Array.length h.bounds in
  let rec go lo hi =
    (* first bucket whose bound is >= v, else the overflow bucket *)
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if h.bounds.(mid) >= v then go lo mid else go (mid + 1) hi
  in
  go 0 n

let hist_observe h v =
  h.counts.(bucket_index h v) <- h.counts.(bucket_index h v) + 1;
  h.total <- h.total + 1;
  h.sum <- h.sum + v;
  if v > h.vmax then h.vmax <- v

let hist_copy h =
  {
    bounds = Array.copy h.bounds;
    counts = Array.copy h.counts;
    total = h.total;
    sum = h.sum;
    vmax = h.vmax;
  }

let hist_merge a b =
  if a.bounds <> b.bounds then invalid_arg "Stats.hist_merge: bucket bounds differ";
  let m = hist_copy a in
  Array.iteri (fun i c -> m.counts.(i) <- m.counts.(i) + c) b.counts;
  m.total <- a.total + b.total;
  m.sum <- a.sum + b.sum;
  m.vmax <- max a.vmax b.vmax;
  m

let hist_percentile h p =
  assert (p >= 0. && p <= 100.);
  if h.total = 0 then 0
  else begin
    let rank = int_of_float (ceil (p /. 100. *. float_of_int h.total)) in
    let rank = max 1 rank in
    let n = Array.length h.bounds in
    let rec go i acc =
      if i > n then h.bounds.(n - 1)
      else
        let acc = acc + h.counts.(i) in
        if acc >= rank then if i < n then h.bounds.(i) else h.bounds.(n - 1)
        else go (i + 1) acc
    in
    go 0 0
  end

type hist_summary = {
  count : int;
  p50_ns : int;
  p90_ns : int;
  p99_ns : int;
  p999_ns : int;
  max_ns : int;
}

let hist_summary h =
  {
    count = h.total;
    p50_ns = hist_percentile h 50.;
    p90_ns = hist_percentile h 90.;
    p99_ns = hist_percentile h 99.;
    p999_ns = hist_percentile h 99.9;
    max_ns = h.vmax;
  }
