(* Pages are split from their backing frames so state transfer can remap a
   byte-identical page into the new version's address space: both pages then
   reference one refcounted frame, and the first subsequent write to either
   side copies the frame (copy-on-write) so neither image can mutate the
   other. Dirtiness is tracked per page as a last-write generation against
   the space-wide write sequence; consumers own named epochs (saved marks)
   instead of one global soft-dirty bit, so the startup checkpoint, pre-copy
   delta rounds and benches cannot clobber each other's view.

   A frame holds its page in one of three forms, and host memory follows
   the words a page holds rather than the pages stored to:
   - the zero bytes: like the kernel's shared zero page, one immutable
     all-zero string backs every page not stored a non-zero word since it
     was mapped, so mapping and forking cost no page copies;
   - sparse: a page's first non-zero store gives it a short sorted array of
     (word index, value) entries, one per non-zero word, at most
     [sparse_cap] of them;
   - bytes of its own, in the image's canonical word form (bit 63 clear),
     once a store would pass [sparse_cap] entries. A page never leaves its
     bytes.
   The bytes-based readers lend a sparse frame spelled out in one scratch
   page. Likewise a page nothing has stored to, shared, stamped or marked
   is the one immutable [pristine] record: mapping costs a word per page,
   and a page gets a record and a frame of its own ([own]) only on its
   first mutation. Frame records and their refcounts stay one per owned
   page whatever backs them, so sharing, copy-on-write and residency are
   counted exactly as for private bytes. *)

(* The zero bytes: [words == zero_words], [ents == no_ents], [n = 0].
   Sparse: [words == zero_words]; word [ents.(2k)] of the page holds
   [ents.(2k + 1)] for each [k < n], indices ascending, no value 0, and
   every other word is 0. Bytes: [words] the page's own, [ents == no_ents],
   [n = 0]. *)
type frame = {
  mutable words : Bytes.t;
  mutable ents : int array;
  mutable n : int;
  mutable refs : int;
}

(* Never written: every store below goes through [unshare]. *)
let zero_words = Bytes.make Addr.page_size '\000'
let no_ents = [||]

(* The most entries a sparse frame holds, and the room its first store
   gives it. *)
let sparse_cap = 32
let sparse_room = 8

external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64u : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"
external swap64 : int64 -> int64 = "%bswap_int64"

(* Word [i] of a page's bytes, and its store in the canonical form. Every
   [i] is a word index in one page, and every byte offset [off] one the
   caller has checked, so the accesses go unchecked. *)
let[@inline] le x = if Sys.big_endian then swap64 x else x
let[@inline] get_at b off = Int64.to_int (le (get64u b off))
let[@inline] get b i = get_at b (8 * i)
let[@inline] set b i v = set64u b (8 * i) (le (Int64.logand (Int64.of_int v) Int64.max_int))

(* The first of [f]'s entries whose word index is at least [i], or [f.n]. *)
let lower_bound f i =
  let lo = ref 0 and hi = ref f.n in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if f.ents.(2 * mid) < i then lo := mid + 1 else hi := mid
  done;
  !lo

(* Word [i] of the page [f] holds. *)
let[@inline] word_of f i =
  if f.ents == no_ents then get f.words i
  else
    let k = lower_bound f i in
    if k < f.n && f.ents.(2 * k) = i then f.ents.((2 * k) + 1) else 0

(* Whether [f] has an entry for a word of [\[i, i + n)]. *)
let has_entry_in f i n =
  let k = lower_bound f i in
  k < f.n && f.ents.(2 * k) < i + n

(* The page a sparse frame lends to the bytes-based readers, rewritten at
   each lend: [spelled] holds the word indices the last lend set, which
   the next clears. *)
let scratch = Bytes.make Addr.page_size '\000'
let spelled = Array.make sparse_cap 0
let n_spelled = ref 0

(* [f]'s words as page bytes, lent until the next lend. *)
let bytes_of f =
  if f.ents == no_ents then f.words
  else begin
    for k = 0 to !n_spelled - 1 do
      set scratch spelled.(k) 0
    done;
    for k = 0 to f.n - 1 do
      let i = f.ents.(2 * k) in
      set scratch i f.ents.((2 * k) + 1);
      spelled.(k) <- i
    done;
    n_spelled := f.n;
    scratch
  end

(* Bytes of frames that [unmap] dropped, reused before the heap is asked
   for more: a fork-per-connection server unmaps as many pages per exiting
   session as the next fork copies, and a page is too big for the minor
   heap. The cap bounds what a burst of exits pins (4 MiB). Sparse frames
   give nothing back: their entries are small enough for the minor heap. *)
let spare_cap = 1024
let spares = Array.make spare_cap zero_words
let n_spares = ref 0

(* A frame nothing references gives its bytes to [spares]. *)
let drop_ref (f : frame) =
  f.refs <- f.refs - 1;
  if f.refs = 0 && f.words != zero_words && !n_spares < spare_cap then begin
    spares.(!n_spares) <- f.words;
    incr n_spares;
    f.words <- zero_words
  end

(* Private bytes holding [src]'s page, a spare overwritten whole. *)
let copy_of src =
  if !n_spares = 0 then Bytes.copy src
  else begin
    decr n_spares;
    let w = spares.(!n_spares) in
    Bytes.blit src 0 w 0 Addr.page_size;
    w
  end

(* A private frame holding [f]'s words: the zero bytes stay shared, and
   entries are copied with room for what they hold. *)
let copy_frame f =
  if f.ents != no_ents then
    { words = zero_words; ents = Array.sub f.ents 0 (2 * max f.n sparse_room); n = f.n; refs = 1 }
  else
    {
      words = (if f.words == zero_words then zero_words else copy_of f.words);
      ents = no_ents;
      n = 0;
      refs = 1;
    }

(* [f]'s entries moved to bytes of its own, which it returns. *)
let densify f =
  let w = copy_of zero_words in
  for k = 0 to f.n - 1 do
    set w f.ents.(2 * k) f.ents.((2 * k) + 1)
  done;
  f.words <- w;
  f.ents <- no_ents;
  f.n <- 0;
  w

(* Entries [lo, hi) of the zero or sparse frame [f] replaced by room for
   [add] entries at [lo], which the caller fills: the entries from [hi]
   move by [d] slots, and the array grows, doubling from [sparse_room],
   when the [sparse_cap] or fewer entries left do not fit. Returns the
   array; an array grows only for [d > 0]. The moves are loops:
   [Array.blit] into an array in the major heap pays a write barrier per
   slot. *)
let splice f lo hi add =
  let n = f.n - (hi - lo) + add in
  let ents = f.ents in
  let room = Array.length ents / 2 in
  let out =
    if n <= room then ents
    else begin
      let grown = max n (if room = 0 then sparse_room else min sparse_cap (2 * room)) in
      let out = Array.make (2 * grown) 0 in
      for j = 0 to (2 * lo) - 1 do
        out.(j) <- ents.(j)
      done;
      out
    end
  in
  let d = 2 * (lo + add - hi) in
  if d > 0 then
    for j = (2 * f.n) - 1 downto 2 * hi do
      out.(j + d) <- ents.(j)
    done
  else if d < 0 then
    for j = 2 * hi to (2 * f.n) - 1 do
      out.(j + d) <- ents.(j)
    done;
  f.ents <- out;
  f.n <- n;
  out

(* How many of the [n] words at byte [off] of [src] are non-zero, counted
   no further than [limit + 1]. *)
let count_nonzero src off n limit =
  let c = ref 0 and j = ref 0 in
  while !j < n && !c <= limit do
    if get_at src (off + (8 * !j)) <> 0 then incr c;
    incr j
  done;
  !c

(* Store the [n] words at byte [off] of [src] (bit 63 ignored) at word [i]
   of the zero or sparse frame [f]: the entries in the range go in one
   pass and only the source's non-zero words come in, so a run of zeros
   into the zero bytes stores nothing. [false] when that would pass
   [sparse_cap] entries: [f] has then moved to bytes, and the caller
   stores the run there. *)
let store_entries f i src off n =
  let lo = lower_bound f i in
  let hi = lower_bound f (i + n) in
  let kept = f.n - (hi - lo) in
  let add = if src == zero_words then 0 else count_nonzero src off n (sparse_cap - kept) in
  if kept + add > sparse_cap then begin
    ignore (densify f);
    false
  end
  else begin
    if add > 0 || lo < hi then begin
      let ents = splice f lo hi add in
      let k = ref lo in
      for j = 0 to n - 1 do
        let v = get_at src (off + (8 * j)) in
        if v <> 0 then begin
          ents.(2 * !k) <- i + j;
          ents.((2 * !k) + 1) <- v;
          incr k
        end
      done
    end;
    true
  end

type page = {
  mutable frame : frame;
  mutable touched : bool;
  mutable last_write_seq : int;
  mutable inherited : bool;
}

let fresh_page () =
  {
    frame = { words = zero_words; ents = no_ents; n = 0; refs = 1 };
    touched = false;
    last_write_seq = 0;
    inherited = false;
  }

(* A mapped page nothing has mutated: it reads as a fresh page (zero
   bytes, untouched, stamped 0, not inherited, one frame reference) and is
   shared by every such page of every space. Nothing stores into it: every
   mutation takes its page through [own]. *)
let pristine = fresh_page ()

type epoch = { mutable mark : int }

type t = {
  mutable regions_arr : Region.t array; (* sorted by base, disjoint *)
  mutable region_pages : page array array; (* region [i]'s pages, in address order *)
  bias : int;
  mutable wseq : int;
  mutable epochs : (string * epoch) list; (* a handful of consumers' names *)
  (* The page number [find_page] last resolved to a mapped page, with its
     region's index and its index in that region's array; [min_int], which
     no page number is, when empty. Ints only, so filling the entry costs
     no write barrier, and a hit reads the live slot, which [own] may have
     replaced since. [map] and [unmap] shift region indices, so both empty
     it. *)
  mutable last_pn : int;
  mutable last_region : int;
  mutable last_k : int;
}

exception Fault of Addr.t

let create ?(layout_bias = 0) () =
  {
    regions_arr = [||];
    region_pages = [||];
    bias = layout_bias;
    wseq = 0;
    epochs = [];
    last_pn = min_int;
    last_region = 0;
    last_k = 0;
  }

let layout_bias t = t.bias

(* What [find_page] returns for an unmapped page number: never stamped,
   touched or inherited. Callers must not store into it. *)
let absent =
  {
    frame = { words = zero_words; ents = no_ents; n = 0; refs = 0 };
    touched = false;
    last_write_seq = min_int;
    inherited = false;
  }

type placement = Fixed of Addr.t | Near of Region.kind

(* The end of every simulated address space: the 4 GiB of the 32-bit layout
   the placement areas below model. The page table holds one entry per
   mapped page, so this bound is also what keeps a region size read from
   outside input from exhausting host memory. *)
let ceiling = 1 lsl 32

(* Customary placement areas, loosely modeled on a 32-bit Linux layout
   (the paper's testbed). Biased per address space to emulate cross-version
   layout changes. *)
let kind_base t = function
  | Region.Static -> 0x08048000 + (t.bias * Addr.page_size)
  | Region.Heap -> 0x09000000 + (t.bias * Addr.page_size)
  | Region.Mmap -> 0x30000000 + (t.bias * Addr.page_size)
  | Region.Lib -> 0x40000000 + (t.bias * Addr.page_size)
  | Region.Stack -> 0x7f000000 + (t.bias * Addr.page_size)

let round_pages size = (size + Addr.page_size - 1) land lnot (Addr.page_size - 1)

(* Index of the region with the greatest base <= [a], or -1. Regions are
   disjoint and sorted by base, so limits are sorted too — the floor region
   is the only candidate that can contain [a]. *)
let floor_index (arr : Region.t array) a =
  let lo = ref 0 and hi = ref (Array.length arr - 1) and res = ref (-1) in
  while !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    if arr.(mid).Region.base <= a then begin
      res := mid;
      lo := mid + 1
    end
    else hi := mid - 1
  done;
  !res

(* Every page lookup goes through here: the last page found, else the
   floor region's array, indexed by the page's offset in it, or [absent]
   for a page past that region's end, below the first region or between
   regions. No lookup allocates. *)
let find_page t pn =
  if pn = t.last_pn then t.region_pages.(t.last_region).(t.last_k)
  else
    let i = floor_index t.regions_arr (pn * Addr.page_size) in
    if i < 0 then absent
    else
      let pages = t.region_pages.(i) in
      let k = pn - Addr.page_of t.regions_arr.(i).Region.base in
      if k < Array.length pages then begin
        t.last_pn <- pn;
        t.last_region <- i;
        t.last_k <- k;
        pages.(k)
      end
      else absent

(* The page numbered [pn] with a record of its own, or [absent]: a
   [pristine] page gets a fresh record in the slot [find_page] just left in
   the cache. Every mutation takes its page through here. *)
let own t pn =
  let p = find_page t pn in
  if p != pristine then p
  else begin
    let q = fresh_page () in
    t.region_pages.(t.last_region).(t.last_k) <- q;
    q
  end

let clone_page p =
  if p == pristine then p
  else
    {
      frame = copy_frame p.frame;
      touched = p.touched;
      last_write_seq = p.last_write_seq;
      inherited = p.inherited;
    }

let clone t =
  {
    regions_arr = Array.copy t.regions_arr;
    region_pages = Array.map (Array.map clone_page) t.region_pages;
    bias = t.bias;
    wseq = t.wseq;
    epochs = List.map (fun (name, e) -> (name, { mark = e.mark })) t.epochs;
    last_pn = min_int;
    last_region = 0;
    last_k = 0;
  }

(* [f acc pn page] over every mapped page, in ascending address order. *)
let fold_pages t ~init ~f =
  let acc = ref init in
  Array.iteri
    (fun i pages ->
      let first = Addr.page_of t.regions_arr.(i).Region.base in
      Array.iteri (fun k p -> acc := f !acc (first + k) p) pages)
    t.region_pages;
  !acc

let overlaps_any t ~base ~size =
  let arr = t.regions_arr in
  let i = floor_index arr base in
  (i >= 0 && Region.overlaps arr.(i) ~base ~size)
  || (i + 1 < Array.length arr && arr.(i + 1).Region.base < base + size)

(* First gap of [size] bytes at or after [from], skipping existing regions. *)
let find_gap t ~from ~size =
  let arr = t.regions_arr in
  let n = Array.length arr in
  let start =
    let i = floor_index arr from in
    if i >= 0 && Region.limit arr.(i) > from then i else i + 1
  in
  let rec search base j =
    if j >= n then base
    else
      let r = arr.(j) in
      if base + size <= r.Region.base then base
      else if base >= Region.limit r then search base (j + 1)
      else search (Region.limit r) (j + 1)
  in
  search from start

(* [arr] with [x] inserted at [pos], or with the element at [pos] removed. *)
let array_insert arr pos x =
  let n = Array.length arr in
  let out = Array.make (n + 1) x in
  Array.blit arr 0 out 0 pos;
  Array.blit arr pos out (pos + 1) (n - pos);
  out

let array_remove arr pos =
  let n = Array.length arr in
  let out = Array.sub arr 0 (n - 1) in
  Array.blit arr (pos + 1) out pos (n - 1 - pos);
  out

let insert_region t (r : Region.t) pages =
  let pos = floor_index t.regions_arr r.Region.base + 1 in
  t.regions_arr <- array_insert t.regions_arr pos r;
  t.region_pages <- array_insert t.region_pages pos pages;
  t.last_pn <- min_int

let map t ?(name = "") placement ~size kind =
  if size <= 0 || size > ceiling then
    invalid_arg "Aspace.map: size must be positive and at most the ceiling";
  let size = round_pages size in
  let base =
    match placement with
    | Fixed base ->
        if base land (Addr.page_size - 1) <> 0 then
          invalid_arg "Aspace.map: fixed base must be page-aligned";
        if overlaps_any t ~base ~size then
          invalid_arg
            (Format.asprintf "Aspace.map: fixed mapping %a+%d overlaps" Addr.pp base size);
        base
    | Near k -> find_gap t ~from:(kind_base t k) ~size
  in
  if base > ceiling - size then
    invalid_arg
      (Format.asprintf "Aspace.map: mapping %a+%d ends past the address-space ceiling" Addr.pp
         base size);
  insert_region t { Region.base; size; kind; name } (Array.make (size / Addr.page_size) pristine);
  base

let unmap t base =
  let i = floor_index t.regions_arr base in
  if i < 0 || t.regions_arr.(i).Region.base <> base then raise Not_found;
  Array.iter (fun p -> if p != pristine then drop_ref p.frame) t.region_pages.(i);
  t.regions_arr <- array_remove t.regions_arr i;
  t.region_pages <- array_remove t.region_pages i;
  t.last_pn <- min_int

let regions t = Array.to_list t.regions_arr

let find_region t a =
  let arr = t.regions_arr in
  let i = floor_index arr a in
  if i >= 0 && Region.contains arr.(i) a then Some arr.(i) else None

(* The mapped page holding [a], or [Fault a]; [owned_page] gives it a
   record of its own first. *)
let mapped_page t a =
  let p = find_page t (Addr.page_of a) in
  if p == absent then raise (Fault a);
  p

let owned_page t a =
  let p = own t (Addr.page_of a) in
  if p == absent then raise (Fault a);
  p

let check_word a = if a <= 0 || not (Addr.is_aligned a) then raise (Fault a)

let page_for t a =
  check_word a;
  mapped_page t a

let own_page t a =
  check_word a;
  owned_page t a

let is_mapped_word t a =
  a > 0 && Addr.is_aligned a && find_page t (Addr.page_of a) != absent

let read_word t a =
  let p = page_for t a in
  word_of p.frame (Addr.word_index a)

(* Copy-on-write: any store through a page whose frame is shared first gives
   the page a private copy, so a remapped image can never mutate the image
   it borrowed the frame from. The copy is host-side bookkeeping — the
   simulated program pays only its ordinary write cost. A shared zero page
   stays on the zero bytes until something non-zero is stored. *)
let unshare (p : page) =
  if p.frame.refs > 1 then begin
    p.frame.refs <- p.frame.refs - 1;
    p.frame <- copy_frame p.frame
  end

(* A store of 0 into a zero page stores nothing; one into a sparse page
   drops the word's entry. *)
let store (p : page) i v =
  unshare p;
  let f = p.frame in
  if f.words != zero_words then set f.words i v
  else begin
    let k = lower_bound f i in
    if k < f.n && f.ents.(2 * k) = i then
      if v <> 0 then f.ents.((2 * k) + 1) <- v else ignore (splice f k (k + 1) 0)
    else if v <> 0 then
      if f.n = sparse_cap then set (densify f) i v
      else begin
        let ents = splice f k k 1 in
        ents.(2 * k) <- i;
        ents.((2 * k) + 1) <- v
      end
  end

let write_word t a v =
  let p = own_page t a in
  store p (Addr.word_index a) v;
  p.touched <- true;
  t.wseq <- t.wseq + 1;
  p.last_write_seq <- t.wseq

let write_word_untracked t a v =
  let p = own_page t a in
  store p (Addr.word_index a) v;
  p.touched <- true

let find_word t a ~words p =
  let found = ref (-1) and pos = ref 0 and addr = ref a in
  while !found < 0 && !pos < words do
    let f = (page_for t !addr).frame in
    let i = Addr.word_index !addr in
    let n = min (words - !pos) (Addr.words_per_page - i) in
    let j = ref 0 in
    if f.ents == no_ents then
      while !found < 0 && !j < n do
        if p (get f.words (i + !j)) then found := !pos + !j;
        incr j
      done
    else begin
      (* [k] is the first entry at or past word [i + j] *)
      let k = ref (lower_bound f i) in
      while !found < 0 && !j < n do
        let v =
          if !k < f.n && f.ents.(2 * !k) = i + !j then begin
            incr k;
            f.ents.((2 * !k) - 1)
          end
          else 0
        in
        if p v then found := !pos + !j;
        incr j
      done
    end;
    pos := !pos + n;
    addr := Addr.add_words !addr n
  done;
  !found

(* Visit [\[a, a + words)] a page at a time: [f page i pos n] for each run
   of [n] words that starts at word [i] of [page] and [pos] words into the
   range, the page resolved by [lookup]. *)
let[@inline] walk_runs lookup t a ~words f =
  let pos = ref 0 and addr = ref a in
  while !pos < words do
    let p = lookup t !addr in
    let i = Addr.word_index !addr in
    let n = min (words - !pos) (Addr.words_per_page - i) in
    f p i !pos n;
    pos := !pos + n;
    addr := Addr.add_words !addr n
  done

let iter_runs t a ~words f = walk_runs page_for t a ~words f

(* [iter_runs] over pages with records of their own, for the stores. *)
let iter_owned_runs t a ~words f = walk_runs own_page t a ~words f

let fold_runs t a ~words ~init ~f =
  let acc = ref init in
  iter_runs t a ~words (fun p i _ n -> acc := f !acc (bytes_of p.frame) i n);
  !acc

(* A run on the zero bytes holds no non-zero word, and a sparse run's are
   its entries. *)
let iter_nonzero t a ~words f =
  iter_runs t a ~words (fun p i _ n ->
      let fr = p.frame in
      if fr.ents != no_ents then begin
        let k = ref (lower_bound fr i) in
        while !k < fr.n && fr.ents.(2 * !k) < i + n do
          f fr.ents.((2 * !k) + 1);
          incr k
        done
      end
      else if fr.words != zero_words then
        for j = i to i + n - 1 do
          let v = get fr.words j in
          if v <> 0 then f v
        done)

let all_zero w pos n =
  let rec go i = i >= pos + n || (get w i = 0 && go (i + 1)) in
  go pos

(* The zero bytes answer by identity, a sparse run by its entries, a whole
   private page by one compare. *)
let run_is_zero f i n =
  if f.ents != no_ents then not (has_entry_in f i n)
  else
    f.words == zero_words
    || if n = Addr.words_per_page then Bytes.equal f.words zero_words else all_zero f.words i n

let fold_nonzero_runs t a ~words ~init ~f =
  let acc = ref init in
  iter_runs t a ~words (fun p i pos n ->
      let fr = p.frame in
      if not (run_is_zero fr i n) then acc := f !acc (Addr.add_words a pos) (bytes_of fr) i n);
  !acc

let frame_is_zero f = run_is_zero f 0 Addr.words_per_page
let page_is_zero t a = frame_is_zero (mapped_page t a).frame

(* Entries are canonical, so two sparse frames compare entry by entry;
   otherwise at most one side is spelled into the scratch page. *)
let pages_equal t a u b =
  let x = (mapped_page t a).frame and y = (mapped_page u b).frame in
  x == y
  ||
  if x.ents != no_ents && y.ents != no_ents then
    x.n = y.n
    &&
    let rec same k = k >= 2 * x.n || (x.ents.(k) = y.ents.(k) && same (k + 1)) in
    same 0
  else Bytes.equal (bytes_of x) (bytes_of y)

(* Store [n] words of [src] from [pos] at word [i] of the page; a run of
   zeros into a zero page stores nothing. *)
let store_run (p : page) i src pos n =
  unshare p;
  let f = p.frame in
  if f.words != zero_words || not (store_entries f i src (8 * pos) n) then
    Bytes.blit src (8 * pos) f.words (8 * i) (8 * n);
  p.touched <- true

(* Walk [\[src_addr, src_addr + words)] and the destination range in the
   largest runs that stay within one page on both sides. *)
let copy_runs ~src src_addr ~dst dst_addr ~words f =
  let remaining = ref words in
  let sa = ref src_addr and da = ref dst_addr in
  while !remaining > 0 do
    let sp = page_for src !sa in
    let dp = own_page dst !da in
    let si = Addr.word_index !sa and di = Addr.word_index !da in
    let n =
      min !remaining (min (Addr.words_per_page - si) (Addr.words_per_page - di))
    in
    store_run dp di (bytes_of sp.frame) si n;
    f dp n;
    remaining := !remaining - n;
    sa := Addr.add_words !sa n;
    da := Addr.add_words !da n
  done

let copy_words ~src src_addr ~dst dst_addr ~words =
  copy_runs ~src src_addr ~dst dst_addr ~words (fun _ _ -> ())

let copy_words_tracked ~src src_addr ~dst dst_addr ~words =
  copy_runs ~src src_addr ~dst dst_addr ~words (fun dp n ->
      dst.wseq <- dst.wseq + n;
      dp.last_write_seq <- dst.wseq)

(* One tracked [write_word] per word, a page run at a time: [fill p i pos n]
   stores the run into the unshared page, then the page is touched and
   stamped as [n] single-word stores would leave it. *)
let tracked_runs t a ~words fill =
  iter_owned_runs t a ~words (fun p i pos n ->
      unshare p;
      fill p i pos n;
      p.touched <- true;
      t.wseq <- t.wseq + n;
      p.last_write_seq <- t.wseq)

(* A zero page stays on the zero bytes, as a store of 0 leaves it, and a
   sparse page drops the range's entries in one pass. *)
let clear (p : page) i n =
  let f = p.frame in
  if f.words != zero_words then Bytes.fill f.words (8 * i) (8 * n) '\000'
  else ignore (store_entries f i zero_words 0 n)
let zero_fill t a ~words = tracked_runs t a ~words (fun p i _ n -> clear p i n)

let zero_untracked t a ~words =
  iter_owned_runs t a ~words (fun p i _ n ->
      unshare p;
      clear p i n;
      p.touched <- true)

(* A word run in the frames' byte form, built once and stored by [blit]. *)
type words = Bytes.t

let words_of_fn n f =
  let w = Bytes.create (8 * n) in
  for i = 0 to n - 1 do
    set w i (f i)
  done;
  w

let write_words t a w =
  tracked_runs t a ~words:(Bytes.length w / 8) (fun p i pos n -> store_run p i w pos n)

let check_bytes fn len ~words ~pos =
  if pos < 0 || pos > len || words < 0 || words > (len - pos) / 8 then invalid_arg fn

let read_bytes t a ~words buf ~pos =
  check_bytes "Aspace.read_bytes" (Bytes.length buf) ~words ~pos;
  iter_runs t a ~words (fun p i k n ->
      Bytes.blit (bytes_of p.frame) (8 * i) buf (pos + (8 * k)) (8 * n))

(* [store_run] with the words read from [src], bit 63 cleared one by one. *)
let write_bytes_untracked t a ~words src ~pos =
  check_bytes "Aspace.write_bytes_untracked" (String.length src) ~words ~pos;
  let src = Bytes.unsafe_of_string src in
  iter_owned_runs t a ~words (fun p i k n ->
      let off = pos + (8 * k) in
      unshare p;
      let f = p.frame in
      if f.words != zero_words || not (store_entries f i src off n) then
        for j = 0 to n - 1 do
          set f.words (i + j) (get_at src (off + (8 * j)))
        done;
      p.touched <- true)

(* ------------------------------------------------------------------ *)
(* Dirty epochs *)

let epoch t ~name =
  match List.assoc_opt name t.epochs with
  | Some e -> e
  | None ->
      let e = { mark = 0 } in
      t.epochs <- (name, e) :: t.epochs;
      e

let epoch_reset t ~name = (epoch t ~name).mark <- t.wseq
let epoch_mark t ~name = (epoch t ~name).mark
let epoch_remove t ~name = t.epochs <- List.remove_assoc name t.epochs

let epoch_find t ~name =
  Option.map (fun e -> e.mark) (List.assoc_opt name t.epochs)

let epoch_dirty_pages t ~name =
  let mark = epoch_mark t ~name in
  fold_pages t ~init:[] ~f:(fun acc pn p ->
      if p.last_write_seq > mark then (pn * Addr.page_size) :: acc else acc)
  |> List.rev

let write_seq t = t.wseq

(* [absent] is stamped [min_int], so unmapped pages are never written. *)
let page_written_since t a ~seq = (find_page t (Addr.page_of a)).last_write_seq > seq

let range_written_since t a ~words ~seq =
  words > 0
  &&
  let last = Addr.page_of (Addr.add_words a (words - 1)) in
  let rec scan pn = pn <= last && ((find_page t pn).last_write_seq > seq || scan (pn + 1)) in
  scan (Addr.page_of a)

let epoch_page_dirty t ~name a = page_written_since t a ~seq:(epoch_mark t ~name)

(* ------------------------------------------------------------------ *)
(* Inherited content and page remap *)

let mark_inherited t a ~words =
  if words > 0 then begin
    let first = Addr.page_of a in
    let last = Addr.page_of (Addr.add_words a (words - 1)) in
    for pn = first to last do
      let p = own t pn in
      if p != absent then begin
        p.inherited <- true;
        p.touched <- true
      end
    done
  end

let page_inherited t a = (find_page t (Addr.page_of a)).inherited

let share_page ~src src_addr ~dst dst_addr =
  if Addr.page_offset src_addr <> 0 || Addr.page_offset dst_addr <> 0 then
    invalid_arg "Aspace.share_page: addresses must be page-aligned";
  let sp = owned_page src src_addr in
  let dp = owned_page dst dst_addr in
  if sp.frame != dp.frame then begin
    dp.frame.refs <- dp.frame.refs - 1;
    sp.frame.refs <- sp.frame.refs + 1;
    dp.frame <- sp.frame
  end;
  dp.touched <- true;
  dp.inherited <- true

let shared_frame_count t =
  fold_pages t ~init:0 ~f:(fun acc _ p -> if p.frame.refs > 1 then acc + 1 else acc)

(* ------------------------------------------------------------------ *)
(* Checkpoint export/import *)

type page_state = {
  ps_page : Addr.t;
  ps_last_write_seq : int;
  ps_touched : bool;
  ps_inherited : bool;
}

let page_states t =
  fold_pages t ~init:[] ~f:(fun acc pn p ->
      {
        ps_page = pn * Addr.page_size;
        ps_last_write_seq = p.last_write_seq;
        ps_touched = p.touched;
        ps_inherited = p.inherited;
      }
      :: acc)
  |> List.rev

(* A page restored to a fresh page's state that holds only zeros in a
   frame of its own reads as [pristine], and becomes it again: an image
   restore zeroes every page no saved run covers, then puts back the
   state of the many that were never touched. *)
let restore_page_state t ps =
  if Addr.page_offset ps.ps_page <> 0 then
    invalid_arg "Aspace.restore_page_state: address must be page-aligned";
  let p = owned_page t ps.ps_page in
  if
    ps.ps_last_write_seq = 0 && (not ps.ps_touched) && (not ps.ps_inherited)
    && p.frame.refs = 1 && frame_is_zero p.frame
  then begin
    drop_ref p.frame;
    t.region_pages.(t.last_region).(t.last_k) <- pristine
  end
  else begin
    p.last_write_seq <- ps.ps_last_write_seq;
    p.touched <- ps.ps_touched;
    p.inherited <- ps.ps_inherited
  end

let epochs t = List.map (fun (name, e) -> (name, e.mark)) t.epochs |> List.sort compare

let set_write_seq t seq = t.wseq <- seq

(* A name given twice keeps its last mark: sorted stably from the last
   entry, the first of each name wins. *)
let restore_epochs t entries =
  t.epochs <-
    List.rev entries
    |> List.stable_sort (fun (a, _) (b, _) -> String.compare a b)
    |> List.fold_left
         (fun acc (name, mark) ->
           match acc with (n, _) :: _ when n = name -> acc | _ -> (name, { mark }) :: acc)
         []

let resident_bytes t =
  Array.fold_left (fun acc pages -> acc + Array.length pages) 0 t.region_pages * Addr.page_size

let touched_bytes t =
  fold_pages t ~init:0 ~f:(fun acc _ p -> if p.touched then acc + Addr.page_size else acc)

let pp ppf t =
  Array.iter (fun r -> Format.fprintf ppf "%a@." Region.pp r) t.regions_arr
