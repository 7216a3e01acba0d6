(* Tests for Mcr_util: hashing, RNG, statistics, table rendering. *)

open Mcr_util

(* ------------------------------------------------------------------ *)
(* Fnv *)

let test_fnv_deterministic () =
  Alcotest.(check int) "same input same hash" (Fnv.string "accept") (Fnv.string "accept")

let test_fnv_distinguishes () =
  Alcotest.(check bool) "different strings differ" false
    (Fnv.string "server_init" = Fnv.string "server_loop")

let test_fnv_nonnegative () =
  List.iter
    (fun s -> Alcotest.(check bool) ("nonneg " ^ s) true (Fnv.string s >= 0))
    [ ""; "a"; "main"; String.make 1000 'x' ]

let test_fnv_strings_order_sensitive () =
  Alcotest.(check bool) "order matters" false
    (Fnv.strings [ "main"; "server_init" ] = Fnv.strings [ "server_init"; "main" ])

let test_fnv_strings_no_concat_collision () =
  (* ["ab"; "c"] must not collide with ["a"; "bc"]: the separator byte breaks
     plain concatenation. *)
  Alcotest.(check bool) "no concat collision" false
    (Fnv.strings [ "ab"; "c" ] = Fnv.strings [ "a"; "bc" ])

(* No names and no bytes both hash as the basis; an empty name is still a
   frame, so its separator makes the hash differ. *)
let test_fnv_empty_stack () =
  Alcotest.(check int) "empty stack is the basis" Fnv.basis (Fnv.strings []);
  Alcotest.(check int) "empty string is the basis" Fnv.basis (Fnv.string "");
  Alcotest.(check bool) "an empty frame name is a frame" false
    (Fnv.strings [ "" ] = Fnv.strings [])

let test_fnv_combine_not_commutative () =
  let a = Fnv.string "a" and b = Fnv.string "b" in
  Alcotest.(check bool) "combine is order sensitive" false
    (Fnv.combine a b = Fnv.combine b a)

let test_fnv_int () =
  Alcotest.(check bool) "int hashes differ" false (Fnv.int 1 = Fnv.int 2);
  Alcotest.(check int) "int deterministic" (Fnv.int 42) (Fnv.int 42)

let prop_fnv_nonneg =
  QCheck.Test.make ~name:"fnv strings always nonnegative" ~count:200
    QCheck.(small_list small_string)
    (fun names -> Fnv.strings names >= 0)

(* The byte-at-a-time definitions [Fnv.sub] and [Fnv.int] must reproduce
   exactly: FNV-1a over 64-bit constants, folded to a non-negative int. *)
let ref_basis = Int64.to_int 0xcbf29ce484222325L land max_int
let ref_prime = 0x100000001b3
let ref_fold h c = (h lxor Char.code c) * ref_prime

(* The byte loop continued from any state [h]. *)
let ref_fold_from h s =
  let h = ref h in
  String.iter (fun c -> h := ref_fold !h c) s;
  !h land max_int

let ref_string s = ref_fold_from ref_basis s

let ref_int n =
  let h = ref ref_basis in
  for shift = 0 to 7 do
    h := ref_fold !h (Char.chr ((n lsr (shift * 8)) land 0xff))
  done;
  !h land max_int

(* Strings built from zero runs (often whole zero words) and short random
   runs, with a sub-range at any offset and of any length, so every tail
   length 0-7 and every word alignment comes up. *)
let gen_zero_heavy_range =
  let open QCheck.Gen in
  let chunk =
    frequency
      [
        (2, map (fun n -> String.make n '\x00') (int_range 0 40));
        (1, string_size ~gen:char (int_range 0 12));
      ]
  in
  let* s = map (String.concat "") (list_size (int_range 0 12) chunk) in
  let n = String.length s in
  let* pos = int_range 0 n in
  let* len = int_range 0 (n - pos) in
  return (s, pos, len)

let prop_fnv_sub_matches_string =
  QCheck.Test.make ~name:"fnv sub = string of the copied range" ~count:1000
    (QCheck.make
       ~print:(fun (s, pos, len) -> Printf.sprintf "%S pos=%d len=%d" s pos len)
       gen_zero_heavy_range)
    (fun (s, pos, len) ->
      let copy = String.sub s pos len in
      Fnv.sub s ~pos ~len = Fnv.string copy && Fnv.sub s ~pos ~len = ref_string copy)

let prop_fnv_int_matches_bytes =
  QCheck.Test.make ~name:"fnv int = byte-loop reference" ~count:1000
    QCheck.(oneof [ int; oneofl [ 0; -1; 1; min_int; max_int; 1 lsl 61; -42 ] ])
    (fun n -> Fnv.int n = ref_int n)

(* A string cut into pieces at any points, folded piece by piece from the
   basis, hashes as the whole; [fold2] from two arbitrary states is two
   [fold]s, and each is the byte loop continued from its state. *)
let prop_fnv_fold_split =
  QCheck.Test.make ~name:"fnv fold over any split = sub of the whole" ~count:1000
    (QCheck.make
       ~print:(fun ((s, pos, len), cuts) ->
         Printf.sprintf "%S pos=%d len=%d cuts=[%s]" s pos len
           (String.concat ";" (List.map string_of_int cuts)))
       QCheck.Gen.(pair gen_zero_heavy_range (small_list (int_bound 60))))
    (fun ((s, pos, len), cuts) ->
      let cuts = List.sort_uniq compare (List.filter (fun c -> c < len) cuts) @ [ len ] in
      let h, _ =
        List.fold_left
          (fun (h, at) c -> (Fnv.fold h s ~pos:(pos + at) ~len:(c - at), c))
          (Fnv.basis, 0) cuts
      in
      h = Fnv.sub s ~pos ~len && h = ref_string (String.sub s pos len))

let prop_fnv_fold2 =
  QCheck.Test.make ~name:"fnv fold2 = two folds = the byte loop" ~count:1000
    (QCheck.make
       ~print:(fun ((s, pos, len), (h1, h2)) ->
         Printf.sprintf "%S pos=%d len=%d from %d, %d" s pos len h1 h2)
       QCheck.Gen.(
         pair gen_zero_heavy_range
           (pair (oneof [ return Fnv.basis; map abs int ]) (map abs int))))
    (fun ((s, pos, len), (h1, h2)) ->
      let copy = String.sub s pos len in
      Fnv.fold2 h1 h2 s ~pos ~len = (Fnv.fold h1 s ~pos ~len, Fnv.fold h2 s ~pos ~len)
      && Fnv.fold h1 s ~pos ~len = ref_fold_from h1 copy
      && Fnv.fold h2 s ~pos ~len = ref_fold_from h2 copy)

(* Arrays mostly of zeros and of the words whose bytes reach the edges
   (sign bit, bit 61, all ones), from any non-negative state, each laid out
   as a little-endian u64 sign-extended from 63 bits (bit 63 copies bit 62,
   and [combine_ints] must ignore it); every run [(i, n)] of each array,
   the empty ones included, against [combine] over the byte-loop [int]. *)
let prop_fnv_combine_ints =
  QCheck.Test.make ~name:"fnv combine_ints = combine over byte-loop int" ~count:300
    (QCheck.make
       ~print:(fun (h, a) ->
         Printf.sprintf "from %d [|%s|]" h
           (String.concat "; " (Array.to_list (Array.map string_of_int a))))
       QCheck.Gen.(
         pair
           (oneof [ return Fnv.basis; map (fun h -> h land max_int) int ])
           (array_size (int_range 0 24)
              (frequency
                 [
                   (4, return 0);
                   (2, oneofl [ -1; min_int; max_int; 1 lsl 61 ]);
                   (1, int);
                 ]))))
    (fun (h, a) ->
      let len = Array.length a in
      let b = Bytes.create (8 * len) in
      Array.iteri (fun j w -> Bytes.set_int64_le b (8 * j) (Int64.of_int w)) a;
      let ok = ref true in
      for i = 0 to len do
        let expected = ref h in
        for n = 0 to len - i do
          if n > 0 then expected := Fnv.combine !expected (ref_int a.(i + n - 1));
          if Fnv.combine_ints h b i n <> !expected then ok := false
        done
      done;
      !ok)

let test_fnv_sub_bounds () =
  List.iter
    (fun (pos, len) ->
      List.iter
        (fun (name, hash) ->
          match hash () with
          | exception Invalid_argument _ -> ()
          | _ -> Alcotest.failf "%s pos=%d len=%d accepted" name pos len)
        [
          ("sub", fun () -> ignore (Fnv.sub "abcdefgh" ~pos ~len));
          ("fold2", fun () -> ignore (Fnv.fold2 1 2 "abcdefgh" ~pos ~len));
        ])
    [ (-1, 1); (0, 9); (8, 1); (3, -1); (max_int, 1); (1, max_int) ];
  (* [combine_ints] counts in words, here one, and reads them unchecked *)
  let b = Bytes.of_string "abcdefgh" in
  List.iter
    (fun (i, n) ->
      match Fnv.combine_ints 1 b i n with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "combine_ints i=%d n=%d accepted" i n)
    [ (-1, 1); (0, 2); (1, 1); (max_int, 1); (1, max_int); (0, max_int) ]

(* ------------------------------------------------------------------ *)
(* Rng *)

let test_rng_deterministic () =
  let a = Rng.create 7 and b = Rng.create 7 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Rng.next a) (Rng.next b)
  done

let test_rng_copy_independent () =
  let a = Rng.create 11 in
  let _ = Rng.next a in
  let b = Rng.copy a in
  let xa = Rng.next a in
  let xb = Rng.next b in
  Alcotest.(check int) "copy continues the same stream" xa xb;
  (* advancing a further does not affect b *)
  let _ = Rng.next a in
  let ya = Rng.next a and yb = Rng.next b in
  Alcotest.(check bool) "streams diverge after independent advance" true (ya <> yb || ya = yb)

let test_rng_int_bounds () =
  let r = Rng.create 3 in
  for _ = 1 to 1000 do
    let v = Rng.int r 17 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 17)
  done

let test_rng_shuffle_permutation () =
  let r = Rng.create 5 in
  let arr = Array.init 50 Fun.id in
  Rng.shuffle r arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 50 Fun.id) sorted

let test_rng_pick_member () =
  let r = Rng.create 9 in
  let arr = [| "a"; "b"; "c" |] in
  for _ = 1 to 50 do
    let v = Rng.pick r arr in
    Alcotest.(check bool) "member" true (Array.exists (( = ) v) arr)
  done

(* ------------------------------------------------------------------ *)
(* Stats *)

let feq = Alcotest.(float 1e-9)

let test_median_odd () = Alcotest.check feq "median odd" 2. (Stats.median [ 3.; 1.; 2. ])

let test_median_even () =
  Alcotest.check feq "median even" 2.5 (Stats.median [ 4.; 1.; 2.; 3. ])

let test_median_single () = Alcotest.check feq "median single" 7. (Stats.median [ 7. ])

let test_mean () = Alcotest.check feq "mean" 2. (Stats.mean [ 1.; 2.; 3. ])

let test_stddev_constant () =
  Alcotest.check feq "stddev of constant" 0. (Stats.stddev [ 5.; 5.; 5. ])

let test_percentile () =
  let xs = List.init 100 (fun i -> float_of_int (i + 1)) in
  (* interpolated: p50 of 1..100 sits between the 50th and 51st values *)
  Alcotest.check feq "p50" 50.5 (Stats.percentile 50. xs);
  Alcotest.check feq "p100" 100. (Stats.percentile 100. xs);
  Alcotest.check feq "p0" 1. (Stats.percentile 0. xs)

let test_percentile_small () =
  (* pins on tiny inputs: p50 must agree with median (the nearest-rank
     implementation returned 1.0 here) *)
  Alcotest.check feq "p50 pair" 1.5 (Stats.percentile 50. [ 1.; 2. ]);
  Alcotest.check feq "p50 = median" (Stats.median [ 1.; 2. ]) (Stats.p50 [ 2.; 1. ]);
  Alcotest.check feq "p90 pair" 1.9 (Stats.percentile 90. [ 1.; 2. ]);
  Alcotest.check feq "p99 pair" 1.99 (Stats.percentile 99. [ 1.; 2. ]);
  Alcotest.check feq "p50 triple" 2. (Stats.percentile 50. [ 3.; 1.; 2. ]);
  Alcotest.check feq "p50 quad = median" (Stats.median [ 4.; 1.; 2.; 3. ])
    (Stats.percentile 50. [ 4.; 1.; 2.; 3. ]);
  Alcotest.check feq "p90 quad" 3.7 (Stats.percentile 90. [ 4.; 1.; 2.; 3. ]);
  Alcotest.check feq "singleton any p" 7. (Stats.percentile 33. [ 7. ])

let test_min_max () =
  let lo, hi = Stats.min_max [ 3.; -1.; 7. ] in
  Alcotest.check feq "min" (-1.) lo;
  Alcotest.check feq "max" 7. hi

let test_geometric_mean () =
  Alcotest.check feq "geomean" 2. (Stats.geometric_mean [ 1.; 2.; 4. ])

let test_summary () =
  let xs = List.init 100 (fun i -> float_of_int (i + 1)) in
  let s = Stats.summary xs in
  Alcotest.(check int) "n" 100 s.Stats.n;
  Alcotest.check feq "p50" (Stats.p50 xs) s.Stats.p50;
  Alcotest.check feq "p90" 90.1 s.Stats.p90;
  Alcotest.check feq "p99" 99.01 s.Stats.p99;
  Alcotest.check feq "min" 1. s.Stats.min;
  Alcotest.check feq "max" 100. s.Stats.max

let test_hist_observe_percentile () =
  let h = Stats.hist_create ~bounds:[| 10; 100; 1000 |] in
  Alcotest.(check int) "empty percentile" 0 (Stats.hist_percentile h 99.);
  List.iter (Stats.hist_observe h) [ 5; 7; 50; 200; 5000 ];
  Alcotest.(check int) "total" 5 h.Stats.total;
  Alcotest.(check int) "sum" 5262 h.Stats.sum;
  (* counts: <=10 -> 2, <=100 -> 1, <=1000 -> 1, overflow -> 1 *)
  Alcotest.(check (array int)) "bucket counts" [| 2; 1; 1; 1 |] h.Stats.counts;
  Alcotest.(check int) "p50 = bucket upper bound" 100 (Stats.hist_percentile h 50.);
  (* overflow observations saturate at the last finite bound *)
  Alcotest.(check int) "p99 saturates" 1000 (Stats.hist_percentile h 99.)

let test_hist_merge () =
  let a = Stats.hist_create ~bounds:[| 10; 100 |] in
  let b = Stats.hist_create ~bounds:[| 10; 100 |] in
  Stats.hist_observe a 5;
  Stats.hist_observe b 50;
  Stats.hist_observe b 5000;
  let m = Stats.hist_merge a b in
  Alcotest.(check int) "merged total" 3 m.Stats.total;
  Alcotest.(check (array int)) "merged counts" [| 1; 1; 1 |] m.Stats.counts;
  (* merge leaves the inputs alone *)
  Alcotest.(check int) "a untouched" 1 a.Stats.total;
  (match Stats.hist_merge a (Stats.hist_create ~bounds:[| 1 |]) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "bounds mismatch must raise");
  match Stats.hist_create ~bounds:[| 10; 10 |] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "non-increasing bounds must raise"

let prop_median_bounded =
  QCheck.Test.make ~name:"median lies within min..max" ~count:200
    QCheck.(list_of_size Gen.(int_range 1 40) (float_range (-1e6) 1e6))
    (fun xs ->
      let m = Stats.median xs in
      let lo, hi = Stats.min_max xs in
      m >= lo && m <= hi)

let prop_mean_shift =
  QCheck.Test.make ~name:"mean commutes with shift" ~count:200
    QCheck.(list_of_size Gen.(int_range 1 40) (float_range (-1e3) 1e3))
    (fun xs ->
      let shifted = List.map (fun x -> x +. 10.) xs in
      abs_float (Stats.mean shifted -. (Stats.mean xs +. 10.)) < 1e-6)

(* ------------------------------------------------------------------ *)
(* Tablefmt *)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let test_table_renders_all_cells () =
  let t = Tablefmt.create ~header:[ "name"; "value" ] in
  Tablefmt.add_row t [ "alpha"; "1" ];
  Tablefmt.add_row t [ "b"; "22" ];
  let s = Tablefmt.render t in
  List.iter
    (fun sub -> Alcotest.(check bool) ("contains " ^ sub) true (contains s sub))
    [ "name"; "value"; "alpha"; "22" ]

let test_table_pads_short_rows () =
  let t = Tablefmt.create ~header:[ "a"; "b"; "c" ] in
  Tablefmt.add_row t [ "x" ];
  let s = Tablefmt.render t in
  Alcotest.(check bool) "renders" true (String.length s > 0)

let test_table_separator () =
  let t = Tablefmt.create ~header:[ "a" ] in
  Tablefmt.add_row t [ "1" ];
  Tablefmt.add_sep t;
  Tablefmt.add_row t [ "2" ];
  let s = Tablefmt.render t in
  (* header separator + explicit separator *)
  let dashes = String.split_on_char '\n' s |> List.filter (fun l -> l <> "" && String.for_all (( = ) '-') l) in
  Alcotest.(check int) "two separator lines" 2 (List.length dashes)

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "mcr_util"
    [
      ( "fnv",
        [
          Alcotest.test_case "deterministic" `Quick test_fnv_deterministic;
          Alcotest.test_case "distinguishes strings" `Quick test_fnv_distinguishes;
          Alcotest.test_case "nonnegative" `Quick test_fnv_nonnegative;
          Alcotest.test_case "stack order sensitive" `Quick test_fnv_strings_order_sensitive;
          Alcotest.test_case "no concat collision" `Quick test_fnv_strings_no_concat_collision;
          Alcotest.test_case "empty stack and string are the basis" `Quick
            test_fnv_empty_stack;
          Alcotest.test_case "combine not commutative" `Quick test_fnv_combine_not_commutative;
          Alcotest.test_case "int hashing" `Quick test_fnv_int;
          qt prop_fnv_nonneg;
          qt prop_fnv_sub_matches_string;
          qt prop_fnv_fold_split;
          qt prop_fnv_fold2;
          qt prop_fnv_int_matches_bytes;
          qt prop_fnv_combine_ints;
          Alcotest.test_case "sub range checks" `Quick test_fnv_sub_bounds;
        ] );
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "copy independence" `Quick test_rng_copy_independent;
          Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
          Alcotest.test_case "shuffle is a permutation" `Quick test_rng_shuffle_permutation;
          Alcotest.test_case "pick membership" `Quick test_rng_pick_member;
        ] );
      ( "stats",
        [
          Alcotest.test_case "median odd" `Quick test_median_odd;
          Alcotest.test_case "median even" `Quick test_median_even;
          Alcotest.test_case "median single" `Quick test_median_single;
          Alcotest.test_case "mean" `Quick test_mean;
          Alcotest.test_case "stddev constant" `Quick test_stddev_constant;
          Alcotest.test_case "percentile" `Quick test_percentile;
          Alcotest.test_case "percentile small inputs" `Quick test_percentile_small;
          Alcotest.test_case "min max" `Quick test_min_max;
          Alcotest.test_case "geometric mean" `Quick test_geometric_mean;
          Alcotest.test_case "summary" `Quick test_summary;
          Alcotest.test_case "hist observe/percentile" `Quick test_hist_observe_percentile;
          Alcotest.test_case "hist merge" `Quick test_hist_merge;
          qt prop_median_bounded;
          qt prop_mean_shift;
        ] );
      ( "tablefmt",
        [
          Alcotest.test_case "renders all cells" `Quick test_table_renders_all_cells;
          Alcotest.test_case "pads short rows" `Quick test_table_pads_short_rows;
          Alcotest.test_case "separator lines" `Quick test_table_separator;
        ] );
    ]
