type t = int

(* The 64-bit FNV constants exceed OCaml's 63-bit int literals; truncate the
   basis through Int64. Overflowing multiplication is fine for hashing. *)
let basis = Int64.to_int 0xcbf29ce484222325L land max_int
let prime = 0x100000001b3

let fold_char h c = (h lxor Char.code c) * prime

let fold_string h s =
  let h = ref h in
  String.iter (fun c -> h := fold_char !h c) s;
  !h

let mask h = h land max_int

(* [fold] runs in Int64, whose arithmetic is mod 2^64: the low 63 bits of a
   product or xor depend only on the low 63 bits of its operands, so
   masking the result gives exactly the int (mod 2^63) fold, with no tag
   bit to maintain between steps, and a masked state can be folded on.
   Folding a zero byte is one multiplication by [prime], so an all-zero
   8-byte word folds as one multiplication by [prime^8]. *)
let prime64 = Int64.of_int prime
let prime64_2 = Int64.mul prime64 prime64
let prime64_8 =
  let p4 = Int64.mul prime64_2 prime64_2 in
  Int64.mul p4 p4

let check_range s ~pos ~len =
  if pos < 0 || len < 0 || pos > String.length s - len then invalid_arg "Fnv.fold"

let fold_byte h s j =
  Int64.mul (Int64.logxor h (Int64.of_int (Char.code (String.unsafe_get s j)))) prime64

let fold h s ~pos ~len =
  check_range s ~pos ~len;
  let h = ref (Int64.of_int h) in
  let words_end = pos + (len land lnot 7) in
  let i = ref pos in
  while !i < words_end do
    let j = !i in
    if String.get_int64_le s j = 0L then h := Int64.mul !h prime64_8
    else begin
      let x = fold_byte !h s j in
      let x = fold_byte x s (j + 1) in
      let x = fold_byte x s (j + 2) in
      let x = fold_byte x s (j + 3) in
      let x = fold_byte x s (j + 4) in
      let x = fold_byte x s (j + 5) in
      let x = fold_byte x s (j + 6) in
      h := fold_byte x s (j + 7)
    end;
    i := j + 8
  done;
  for j = words_end to pos + len - 1 do
    h := fold_byte !h s j
  done;
  mask (Int64.to_int !h)

(* [fold] with two states in one loop: each byte is read once, and the two
   multiplication chains overlap. *)
let fold2 h1 h2 s ~pos ~len =
  check_range s ~pos ~len;
  let a = ref (Int64.of_int h1) and b = ref (Int64.of_int h2) in
  let words_end = pos + (len land lnot 7) in
  let i = ref pos in
  while !i < words_end do
    let j = !i in
    if String.get_int64_le s j = 0L then begin
      a := Int64.mul !a prime64_8;
      b := Int64.mul !b prime64_8
    end
    else begin
      let x = fold_byte !a s j and y = fold_byte !b s j in
      let x = fold_byte x s (j + 1) and y = fold_byte y s (j + 1) in
      let x = fold_byte x s (j + 2) and y = fold_byte y s (j + 2) in
      let x = fold_byte x s (j + 3) and y = fold_byte y s (j + 3) in
      let x = fold_byte x s (j + 4) and y = fold_byte y s (j + 4) in
      let x = fold_byte x s (j + 5) and y = fold_byte y s (j + 5) in
      let x = fold_byte x s (j + 6) and y = fold_byte y s (j + 6) in
      a := fold_byte x s (j + 7);
      b := fold_byte y s (j + 7)
    end;
    i := j + 8
  done;
  for j = words_end to pos + len - 1 do
    a := fold_byte !a s j;
    b := fold_byte !b s j
  done;
  (mask (Int64.to_int !a), mask (Int64.to_int !b))

let sub s ~pos ~len = fold basis s ~pos ~len

let string s = sub s ~pos:0 ~len:(String.length s)

let strings names =
  let h =
    List.fold_left (fun h s -> fold_char (fold_string h s) '\x00') basis names
  in
  mask h

let combine h1 h2 = mask (((h1 * prime) lxor h2) * prime)

(* The eight little-endian bytes of [n]; bits 56-62 make the last byte, so
   its top bit is always 0. Inlined: [combine_ints]'s loop then calls nothing. *)
let[@inline] int_nonzero n =
  let h = (basis lxor (n land 0xff)) * prime in
  let h = (h lxor ((n lsr 8) land 0xff)) * prime in
  let h = (h lxor ((n lsr 16) land 0xff)) * prime in
  let h = (h lxor ((n lsr 24) land 0xff)) * prime in
  let h = (h lxor ((n lsr 32) land 0xff)) * prime in
  let h = (h lxor ((n lsr 40) land 0xff)) * prime in
  let h = (h lxor ((n lsr 48) land 0xff)) * prime in
  mask ((h lxor (n lsr 56)) * prime)

let int_zero = int_nonzero 0
let int n = if n = 0 then int_zero else int_nonzero n

external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external swap64 : int64 -> int64 = "%bswap_int64"

(* Bits 0-62 of the little-endian u64 at byte [8 * j], unchecked. *)
let[@inline] le x = if Sys.big_endian then swap64 x else x
let[@inline] word b j = Int64.to_int (le (get64u b (8 * j)))

(* [combine acc x] is [mask ((acc * prime lxor x) * prime)]. As in [fold],
   the low 62 bits that [mask] keeps depend only on the operands' low 62
   bits, so one mask per run will do. Carrying [u = acc * prime] makes a
   word one step [u <- (u lxor x) * prime^2]; the last takes [* prime]. *)
let combine_ints h (b : Bytes.t) i n =
  if n <= 0 then h
  else if i < 0 || i > (Bytes.length b / 8) - n then invalid_arg "Fnv.combine_ints"
  else begin
    let u = ref (Int64.mul (Int64.of_int h) prime64) in
    let zero = Int64.of_int int_zero in
    for j = i to i + n - 2 do
      let w = word b j in
      let x = if w = 0 then zero else Int64.of_int (int_nonzero w) in
      u := Int64.mul (Int64.logxor !u x) prime64_2
    done;
    mask (Int64.to_int (Int64.mul (Int64.logxor !u (Int64.of_int (int (word b (i + n - 1))))) prime64))
  end
