(* Tests for Mcr_vmem: addresses, regions, address spaces, soft-dirty bits. *)

open Mcr_vmem

(* ------------------------------------------------------------------ *)
(* Addr *)

let test_addr_alignment () =
  Alcotest.(check bool) "0 aligned" true (Addr.is_aligned 0);
  Alcotest.(check bool) "8 aligned" true (Addr.is_aligned 8);
  Alcotest.(check bool) "4 unaligned" false (Addr.is_aligned 4);
  Alcotest.(check int) "align_up 1" 8 (Addr.align_up 1);
  Alcotest.(check int) "align_up 8" 8 (Addr.align_up 8)

let test_addr_pages () =
  Alcotest.(check int) "page_of 0" 0 (Addr.page_of 0);
  Alcotest.(check int) "page_of 4096" 1 (Addr.page_of 4096);
  Alcotest.(check int) "page_base" 4096 (Addr.page_base 4100);
  Alcotest.(check int) "page_offset" 4 (Addr.page_offset 4100);
  Alcotest.(check int) "word_index" 1 (Addr.word_index 4104)

let test_addr_arith () =
  Alcotest.(check int) "add" 108 (Addr.add 100 8);
  Alcotest.(check int) "add_words" 116 (Addr.add_words 100 2)

let prop_align_up_idempotent =
  QCheck.Test.make ~name:"align_up is idempotent and aligned" ~count:500
    QCheck.(int_range 0 1_000_000)
    (fun a ->
      let u = Addr.align_up a in
      Addr.is_aligned u && Addr.align_up u = u && u >= a && u - a < Addr.word_size)

(* ------------------------------------------------------------------ *)
(* Region *)

let region base size kind = { Region.base; size; kind; name = "r" }

let test_region_contains () =
  let r = region 4096 8192 Region.Heap in
  Alcotest.(check bool) "base in" true (Region.contains r 4096);
  Alcotest.(check bool) "mid in" true (Region.contains r 8000);
  Alcotest.(check bool) "limit out" false (Region.contains r (4096 + 8192));
  Alcotest.(check bool) "below out" false (Region.contains r 4095)

let test_region_overlaps () =
  let r = region 4096 4096 Region.Static in
  Alcotest.(check bool) "exact overlap" true (Region.overlaps r ~base:4096 ~size:4096);
  Alcotest.(check bool) "partial overlap" true (Region.overlaps r ~base:8000 ~size:4096);
  Alcotest.(check bool) "adjacent above" false (Region.overlaps r ~base:8192 ~size:4096);
  Alcotest.(check bool) "adjacent below" false (Region.overlaps r ~base:0 ~size:4096)

(* ------------------------------------------------------------------ *)
(* Aspace mapping *)

let test_map_read_write () =
  let sp = Aspace.create () in
  let base = Aspace.map sp (Aspace.Near Region.Heap) ~size:4096 Region.Heap in
  Aspace.write_word sp base 42;
  Alcotest.(check int) "read back" 42 (Aspace.read_word sp base);
  Alcotest.(check int) "zero init" 0 (Aspace.read_word sp (Addr.add_words base 1))

let test_map_fixed () =
  let sp = Aspace.create () in
  let base = Aspace.map sp (Aspace.Fixed 0x10000) ~size:4096 Region.Mmap in
  Alcotest.(check int) "fixed placement honored" 0x10000 base

let test_map_fixed_overlap_rejected () =
  let sp = Aspace.create () in
  let _ = Aspace.map sp (Aspace.Fixed 0x10000) ~size:8192 Region.Mmap in
  Alcotest.check_raises "overlap rejected"
    (Invalid_argument "Aspace.map: fixed mapping 0x11000+4096 overlaps") (fun () ->
      ignore (Aspace.map sp (Aspace.Fixed 0x11000) ~size:4096 Region.Mmap))

let test_map_near_no_overlap () =
  let sp = Aspace.create () in
  let a = Aspace.map sp (Aspace.Near Region.Heap) ~size:4096 Region.Heap in
  let b = Aspace.map sp (Aspace.Near Region.Heap) ~size:4096 Region.Heap in
  Alcotest.(check bool) "distinct mappings" true (a <> b);
  Alcotest.(check int) "two regions" 2 (List.length (Aspace.regions sp))

let test_unmap () =
  let sp = Aspace.create () in
  let base = Aspace.map sp (Aspace.Near Region.Heap) ~size:4096 Region.Heap in
  Aspace.unmap sp base;
  Alcotest.(check int) "no regions" 0 (List.length (Aspace.regions sp));
  Alcotest.check_raises "fault after unmap" (Aspace.Fault base) (fun () ->
      ignore (Aspace.read_word sp base))

let test_fault_on_unmapped () =
  let sp = Aspace.create () in
  Alcotest.check_raises "unmapped faults" (Aspace.Fault 0x5000) (fun () ->
      ignore (Aspace.read_word sp 0x5000))

let test_fault_on_unaligned () =
  let sp = Aspace.create () in
  let base = Aspace.map sp (Aspace.Near Region.Heap) ~size:4096 Region.Heap in
  Alcotest.check_raises "unaligned faults" (Aspace.Fault (base + 3)) (fun () ->
      ignore (Aspace.read_word sp (base + 3)))

let test_null_never_mapped () =
  let sp = Aspace.create () in
  Alcotest.(check bool) "null not mapped" false (Aspace.is_mapped_word sp Addr.null)

let test_find_region () =
  let sp = Aspace.create () in
  let base = Aspace.map sp ~name:"globals" (Aspace.Near Region.Static) ~size:8192 Region.Static in
  (match Aspace.find_region sp (Addr.add base 4100) with
  | Some r ->
      Alcotest.(check string) "name" "globals" r.Region.name;
      Alcotest.(check bool) "kind" true (r.Region.kind = Region.Static)
  | None -> Alcotest.fail "region not found");
  Alcotest.(check bool) "outside" true (Aspace.find_region sp 0x100 = None)

let test_layout_bias_shifts_placement () =
  let a = Aspace.create () in
  let b = Aspace.create ~layout_bias:16 () in
  let ba = Aspace.map a (Aspace.Near Region.Static) ~size:4096 Region.Static in
  let bb = Aspace.map b (Aspace.Near Region.Static) ~size:4096 Region.Static in
  Alcotest.(check int) "bias in pages" (16 * Addr.page_size) (bb - ba)

(* ------------------------------------------------------------------ *)
(* Soft-dirty tracking *)

let test_soft_dirty_basics () =
  let sp = Aspace.create () in
  let base = Aspace.map sp (Aspace.Near Region.Heap) ~size:(2 * 4096) Region.Heap in
  Aspace.epoch_reset sp ~name:"startup";
  Alcotest.(check (list int)) "clean after clear" [] (Aspace.epoch_dirty_pages sp ~name:"startup");
  Aspace.write_word sp (Addr.add base 4096) 1;
  Alcotest.(check (list int)) "second page dirty" [ base + 4096 ] (Aspace.epoch_dirty_pages sp ~name:"startup");
  Alcotest.(check bool) "first page clean" false (Aspace.epoch_page_dirty sp ~name:"startup" base)

let test_soft_dirty_untracked_write () =
  let sp = Aspace.create () in
  let base = Aspace.map sp (Aspace.Near Region.Heap) ~size:4096 Region.Heap in
  Aspace.epoch_reset sp ~name:"startup";
  Aspace.write_word_untracked sp base 7;
  Alcotest.(check int) "value written" 7 (Aspace.read_word sp base);
  Alcotest.(check (list int)) "still clean" [] (Aspace.epoch_dirty_pages sp ~name:"startup")

let test_soft_dirty_epoch () =
  let sp = Aspace.create () in
  let base = Aspace.map sp (Aspace.Near Region.Heap) ~size:4096 Region.Heap in
  Aspace.write_word sp base 1;
  Aspace.epoch_reset sp ~name:"startup";
  Alcotest.(check (list int)) "clear resets" [] (Aspace.epoch_dirty_pages sp ~name:"startup");
  Aspace.write_word sp base 2;
  Alcotest.(check (list int)) "re-dirty" [ Addr.page_base base ] (Aspace.epoch_dirty_pages sp ~name:"startup")

let test_reads_do_not_dirty () =
  let sp = Aspace.create () in
  let base = Aspace.map sp (Aspace.Near Region.Heap) ~size:4096 Region.Heap in
  Aspace.epoch_reset sp ~name:"startup";
  ignore (Aspace.read_word sp base);
  Alcotest.(check (list int)) "reads keep pages clean" [] (Aspace.epoch_dirty_pages sp ~name:"startup")

(* ------------------------------------------------------------------ *)
(* Clone and cross-space copy *)

let test_clone_deep () =
  let sp = Aspace.create () in
  let base = Aspace.map sp (Aspace.Near Region.Heap) ~size:4096 Region.Heap in
  Aspace.write_word sp base 99;
  let child = Aspace.clone sp in
  Alcotest.(check int) "child sees value" 99 (Aspace.read_word child base);
  Aspace.write_word child base 1;
  Alcotest.(check int) "parent unaffected" 99 (Aspace.read_word sp base);
  Aspace.write_word sp base 2;
  Alcotest.(check int) "child unaffected" 1 (Aspace.read_word child base)

let test_copy_words_across_spaces () =
  let a = Aspace.create () in
  let b = Aspace.create () in
  let src = Aspace.map a (Aspace.Near Region.Heap) ~size:4096 Region.Heap in
  let dst = Aspace.map b (Aspace.Near Region.Heap) ~size:4096 Region.Heap in
  for i = 0 to 9 do
    Aspace.write_word a (Addr.add_words src i) (i * 11)
  done;
  Aspace.epoch_reset b ~name:"startup";
  Aspace.copy_words ~src:a src ~dst:b dst ~words:10;
  for i = 0 to 9 do
    Alcotest.(check int) "copied" (i * 11) (Aspace.read_word b (Addr.add_words dst i))
  done;
  Alcotest.(check (list int)) "transfer writes untracked" [] (Aspace.epoch_dirty_pages b ~name:"startup")

(* ------------------------------------------------------------------ *)
(* Named epochs, frame sharing, copy-on-write *)

let test_named_epochs_independent () =
  let sp = Aspace.create () in
  let base = Aspace.map sp (Aspace.Near Region.Heap) ~size:(2 * 4096) Region.Heap in
  Aspace.write_word sp base 1;
  Aspace.epoch_reset sp ~name:"a";
  Aspace.write_word sp (Addr.add base 4096) 2;
  Aspace.epoch_reset sp ~name:"b";
  (* page 2 written after a's mark, before b's *)
  Alcotest.(check bool) "dirty in a" true
    (Aspace.epoch_page_dirty sp ~name:"a" (Addr.add base 4096));
  Alcotest.(check bool) "clean in b" false
    (Aspace.epoch_page_dirty sp ~name:"b" (Addr.add base 4096));
  Alcotest.(check bool) "page 1 clean in both" false
    (Aspace.epoch_page_dirty sp ~name:"a" base);
  (* resetting a does not disturb b *)
  Aspace.write_word sp base 3;
  Aspace.epoch_reset sp ~name:"a";
  Alcotest.(check bool) "b saw the write" true (Aspace.epoch_page_dirty sp ~name:"b" base);
  Alcotest.(check bool) "a reset past it" false (Aspace.epoch_page_dirty sp ~name:"a" base);
  Alcotest.(check (list int)) "b's dirty page list" [ Addr.page_base base ]
    (Aspace.epoch_dirty_pages sp ~name:"b");
  (* a clone copies the marks; a restore replaces them, the last of a
     repeated name winning *)
  let child = Aspace.clone sp in
  Aspace.write_word sp base 4;
  Aspace.epoch_reset sp ~name:"a";
  Alcotest.(check (list (pair string int))) "clone keeps its marks"
    [ ("a", 3); ("b", 2) ] (Aspace.epochs child);
  Aspace.restore_epochs child [ ("c", 1); ("a", 5); ("c", 7); ("a", 4) ];
  Alcotest.(check (list (pair string int))) "restore" [ ("a", 4); ("c", 7) ]
    (Aspace.epochs child)

let test_epoch_never_created_sees_everything () =
  let sp = Aspace.create () in
  let base = Aspace.map sp (Aspace.Near Region.Heap) ~size:4096 Region.Heap in
  Aspace.write_word sp base 1;
  Alcotest.(check (option int)) "find on absent epoch" None
    (Aspace.epoch_find sp ~name:"ghost");
  Alcotest.(check bool) "absent epoch: everything dirty" true
    (Aspace.epoch_page_dirty sp ~name:"ghost" base);
  Aspace.epoch_reset sp ~name:"ghost";
  Alcotest.(check bool) "created by reset" true (Aspace.epoch_find sp ~name:"ghost" <> None);
  Aspace.epoch_remove sp ~name:"ghost";
  Alcotest.(check (option int)) "removed" None (Aspace.epoch_find sp ~name:"ghost")

let test_legacy_shims_are_startup_epoch () =
  let sp = Aspace.create () in
  let base = Aspace.map sp (Aspace.Near Region.Heap) ~size:4096 Region.Heap in
  Aspace.epoch_reset sp ~name:"startup";
  Aspace.write_word sp base 1;
  Alcotest.(check bool) "shim sees startup epoch" true
    (Aspace.epoch_page_dirty sp ~name:"startup" base);
  Aspace.epoch_reset sp ~name:"startup";
  Alcotest.(check bool) "epoch read agrees" false (Aspace.epoch_page_dirty sp ~name:"startup" base)

let share_setup () =
  let a = Aspace.create () in
  let b = Aspace.create () in
  let src = Aspace.map a (Aspace.Fixed 4096) ~size:4096 Region.Heap in
  let dst = Aspace.map b (Aspace.Fixed 8192) ~size:4096 Region.Heap in
  for i = 0 to Addr.words_per_page - 1 do
    Aspace.write_word a (Addr.add_words src i) (i * 7);
    Aspace.write_word b (Addr.add_words dst i) (i * 7)
  done;
  (a, b, src, dst)

let test_share_page_and_counts () =
  let a, b, src, dst = share_setup () in
  Alcotest.(check int) "no sharing before" 0 (Aspace.shared_frame_count b);
  Aspace.share_page ~src:a src ~dst:b dst;
  Alcotest.(check int) "dst shares" 1 (Aspace.shared_frame_count b);
  Alcotest.(check int) "src shares" 1 (Aspace.shared_frame_count a);
  Alcotest.(check bool) "dst marked inherited" true (Aspace.page_inherited b dst);
  for i = 0 to Addr.words_per_page - 1 do
    Alcotest.(check int) "content preserved" (i * 7)
      (Aspace.read_word b (Addr.add_words dst i))
  done

let test_share_page_cow_isolates () =
  let a, b, src, dst = share_setup () in
  Aspace.share_page ~src:a src ~dst:b dst;
  (* write through the source: the destination must not see it *)
  Aspace.write_word a src 999;
  Alcotest.(check int) "dst unaffected by src write" 0 (Aspace.read_word b dst);
  Alcotest.(check int) "src sees own write" 999 (Aspace.read_word a src);
  Alcotest.(check int) "sharing broken by COW" 0 (Aspace.shared_frame_count a);
  (* share again, write through the destination this time, untracked *)
  Aspace.share_page ~src:a src ~dst:b dst;
  Aspace.write_word_untracked b (Addr.add_words dst 1) 555;
  Alcotest.(check int) "src unaffected by dst write" 999 (Aspace.read_word a src);
  Alcotest.(check int) "dst sees own write" 555 (Aspace.read_word b (Addr.add_words dst 1))

(* Words the host allocated while running [f]. *)
let allocated_words f =
  let minor0, promoted0, major0 = Gc.counters () in
  f ();
  let minor1, promoted1, major1 = Gc.counters () in
  minor1 -. minor0 +. (major1 -. major0) -. (promoted1 -. promoted0)

(* What a process exit does on the dying side of an update: the sharer
   unmaps, and the survivor owns the frame without a copy. *)
let test_unmap_sharer_leaves_survivor_private () =
  let page = float_of_int Addr.words_per_page in
  let a, b, src, dst = share_setup () in
  Aspace.share_page ~src:a src ~dst:b dst;
  let cow = allocated_words (fun () -> Aspace.write_word b (Addr.add_words dst 1) 8) in
  Alcotest.(check bool) "a store to a shared frame copies it" true (cow >= page);
  let a, b, src, dst = share_setup () in
  Aspace.share_page ~src:a src ~dst:b dst;
  Aspace.unmap a src;
  Alcotest.(check int) "survivor shares nothing" 0 (Aspace.shared_frame_count b);
  for i = 0 to Addr.words_per_page - 1 do
    Alcotest.(check int) "survivor content intact" (i * 7)
      (Aspace.read_word b (Addr.add_words dst i))
  done;
  let store = allocated_words (fun () -> Aspace.write_word b (Addr.add_words dst 1) 8) in
  Alcotest.(check bool) "the survivor's next store copies nothing" true (store < page);
  Alcotest.(check int) "store landed" 8 (Aspace.read_word b (Addr.add_words dst 1))

let test_share_page_rejects_misaligned () =
  let a, b, src, dst = share_setup () in
  Alcotest.check_raises "unaligned src"
    (Invalid_argument "Aspace.share_page: addresses must be page-aligned")
    (fun () -> Aspace.share_page ~src:a (Addr.add src 8) ~dst:b dst)

let test_unmap_shared_releases_ref () =
  let a, b, src, dst = share_setup () in
  Aspace.share_page ~src:a src ~dst:b dst;
  Aspace.unmap b dst;
  Alcotest.(check int) "src sole owner after unmap" 0 (Aspace.shared_frame_count a)

let test_mark_inherited_survives_tracking () =
  let sp = Aspace.create () in
  let base = Aspace.map sp (Aspace.Near Region.Heap) ~size:(2 * 4096) Region.Heap in
  Aspace.epoch_reset sp ~name:"startup";
  Aspace.mark_inherited sp (Addr.add base 4096) ~words:1;
  Alcotest.(check bool) "tainted" true (Aspace.page_inherited sp (Addr.add base 4096));
  Alcotest.(check bool) "first page untainted" false (Aspace.page_inherited sp base);
  Alcotest.(check (list int)) "taint is not dirtiness" [] (Aspace.epoch_dirty_pages sp ~name:"startup");
  (* the taint survives epoch resets — it is not epoch state *)
  Aspace.epoch_reset sp ~name:"startup";
  Alcotest.(check bool) "survives reset" true (Aspace.page_inherited sp (Addr.add base 4096))

let test_resident_bytes () =
  let sp = Aspace.create () in
  ignore (Aspace.map sp (Aspace.Near Region.Heap) ~size:10000 Region.Heap);
  (* 10000 rounds to 3 pages *)
  Alcotest.(check int) "rss" (3 * 4096) (Aspace.resident_bytes sp)

let prop_write_read_roundtrip =
  QCheck.Test.make ~name:"write/read word roundtrip" ~count:300
    QCheck.(pair (int_range 0 511) int)
    (fun (word_off, v) ->
      let sp = Aspace.create () in
      let base = Aspace.map sp (Aspace.Near Region.Heap) ~size:4096 Region.Heap in
      let a = Addr.add_words base word_off in
      Aspace.write_word sp a v;
      Aspace.read_word sp a = v)

let prop_dirty_iff_written =
  QCheck.Test.make ~name:"a page is dirty iff some word on it was written" ~count:100
    QCheck.(small_list (int_range 0 (4 * 512 - 1)))
    (fun offsets ->
      let sp = Aspace.create () in
      let base = Aspace.map sp (Aspace.Near Region.Heap) ~size:(4 * 4096) Region.Heap in
      Aspace.epoch_reset sp ~name:"startup";
      List.iter (fun off -> Aspace.write_word sp (Addr.add_words base off) 1) offsets;
      let expected =
        List.sort_uniq compare
          (List.map (fun off -> Addr.page_base (Addr.add_words base off)) offsets)
      in
      Aspace.epoch_dirty_pages sp ~name:"startup" = expected)

(* The checkpoint image's byte form of words: bits 0-62 of each word as a
   little-endian u64. *)
let bytes_of_words a =
  let b = Bytes.create (8 * Array.length a) in
  Array.iteri
    (fun i v -> Bytes.set_int64_le b (8 * i) (Int64.logand (Int64.of_int v) Int64.max_int))
    a;
  Bytes.to_string b

let read_bytes sp a ~words =
  let b = Bytes.create (8 * words) in
  Aspace.read_bytes sp a ~words b ~pos:0;
  Bytes.to_string b

(* [words] words from [a], one [read_word] each. *)
let read_each sp a ~words = Array.init words (fun i -> Aspace.read_word sp (Addr.add_words a i))

(* ------------------------------------------------------------------ *)
(* Model-based: zero pages, copy-on-write and remap against a plain model

   Three address spaces, each with three two-page slots at fixed bases.
   The model keeps every mapped slot's words in an array and gives every
   page a frame id with a reference count, so the remapped (shared) pages
   are exactly the pages whose id is referenced more than once. It also
   keeps each page's stamp, touch and taint, and each space's write
   sequence. *)

let m_spaces = 3
let m_slots = 3
let m_slot_words = 2 * Addr.words_per_page
let m_slot_base j = (j + 1) * 16 * Addr.page_size

type m_loc = int * int * int (* space, slot, word (or page) within the slot *)

type m_op =
  | M_map of int * int
  | M_unmap of int * int
  | M_clone of int * int (* src space, dst space; dst is emptied first *)
  | M_write of bool * m_loc * int (* tracked *)
  | M_copy of bool * m_loc * m_loc * int (* tracked, src, dst, words *)
  | M_write_run of m_loc * int array
  | M_share of m_loc * m_loc (* src page, dst page: copy unless equal, then remap *)
  | M_exit of int (* unmap every mapped slot, as a process exit does *)
  | M_zero of m_loc * int (* words *)
  | M_init of m_loc * int array (* write_words from the array's values *)
  | M_read of m_loc * int * int (* words, value: read_word each, find_word the value *)
  | M_zero_u of m_loc * int (* zero_untracked, words *)
  | M_mark of m_loc * int (* mark_inherited, words: may run past the slot *)
  | M_restore of m_loc * int * bool * bool (* page: seq, touched, inherited *)
  | M_install of m_loc (* page: zero_untracked, then restore a fresh page's state *)

let show_loc (s, j, w) = Printf.sprintf "%d/%d/%d" s j w

let show_op = function
  | M_map (s, j) -> Printf.sprintf "map %d/%d" s j
  | M_unmap (s, j) -> Printf.sprintf "unmap %d/%d" s j
  | M_clone (s, d) -> Printf.sprintf "clone %d->%d" s d
  | M_write (t, l, v) -> Printf.sprintf "write%s %s=%d" (if t then "" else "_u") (show_loc l) v
  | M_copy (t, a, b, n) ->
      Printf.sprintf "copy%s %s->%s x%d" (if t then "_t" else "") (show_loc a) (show_loc b) n
  | M_write_run (l, a) -> Printf.sprintf "write_run %s x%d" (show_loc l) (Array.length a)
  | M_share (a, b) -> Printf.sprintf "share %s->%s" (show_loc a) (show_loc b)
  | M_exit s -> Printf.sprintf "exit %d" s
  | M_zero (l, n) -> Printf.sprintf "zero %s x%d" (show_loc l) n
  | M_init (l, a) -> Printf.sprintf "init %s x%d" (show_loc l) (Array.length a)
  | M_read (l, n, v) -> Printf.sprintf "read %s x%d find %d" (show_loc l) n v
  | M_zero_u (l, n) -> Printf.sprintf "zero_u %s x%d" (show_loc l) n
  | M_mark (l, n) -> Printf.sprintf "mark %s x%d" (show_loc l) n
  | M_restore (l, seq, t, i) -> Printf.sprintf "restore %s seq=%d t=%b i=%b" (show_loc l) seq t i
  | M_install l -> Printf.sprintf "install %s" (show_loc l)

let m_op_gen =
  let open QCheck.Gen in
  let space = int_bound (m_spaces - 1) and slot = int_bound (m_slots - 1) in
  let loc = triple space slot (int_bound (m_slot_words - 1)) in
  let page = triple space slot (int_bound 1) in
  let value = frequency [ (3, return 0); (2, int_range 1 9) ] in
  frequency
    [
      (2, map2 (fun s j -> M_map (s, j)) space slot);
      (1, map2 (fun s j -> M_unmap (s, j)) space slot);
      (1, map2 (fun s d -> M_clone (s, d)) space space);
      (6, map3 (fun t l v -> M_write (t, l, v)) bool loc value);
      (3, map3 (fun (t, a) b n -> M_copy (t, a, b, n)) (pair bool loc) loc (int_bound 1200));
      (2, map2 (fun l a -> M_write_run (l, a)) loc (array_size (int_bound 700) value));
      (3, map2 (fun a b -> M_share (a, b)) page page);
      (1, map (fun s -> M_exit s) space);
      (2, map2 (fun l n -> M_zero (l, n)) loc (int_bound 1200));
      (2, map2 (fun l a -> M_init (l, a)) loc (array_size (int_bound 1200) value));
      (4, map3 (fun l n v -> M_read (l, n, v)) loc (int_bound 1200) value);
    ]

(* [m_op_gen] with the stores and stamps that move only page state:
   zero_untracked, mark_inherited and restore_page_state (half of them
   back to a fresh page's state), and an image restore's install of a
   page no saved run covers (zeroed, then put back to a fresh page's
   state, which makes it [pristine] again unless its frame is shared). *)
let p_op_gen =
  let open QCheck.Gen in
  let space = int_bound (m_spaces - 1) and slot = int_bound (m_slots - 1) in
  let loc = triple space slot (int_bound (m_slot_words - 1)) in
  let page = triple space slot (int_bound 1) in
  let state = frequency [ (1, return (0, false, false)); (1, triple (int_bound 50) bool bool) ] in
  frequency
    [
      (27, m_op_gen) (* its own weights sum to 27 *);
      (2, map2 (fun l n -> M_zero_u (l, n)) loc (int_bound 1200));
      (3, map2 (fun l n -> M_mark (l, n)) loc (int_bound 3000));
      (2, map2 (fun l (seq, t, i) -> M_restore (l, seq, t, i)) page state);
      (2, map (fun l -> M_install l) page);
    ]

(* [find_word] spelled as one [read_word] per word: the index of the first
   of the [words] words from [a] that satisfies [p], [-1], or the address
   of the fault that stopped the reads. *)
let find_each sp a ~words p =
  let rec go i =
    if i >= words then Ok (-1) else if p (Aspace.read_word sp (Addr.add_words a i)) then Ok i
    else go (i + 1)
  in
  match go 0 with r -> r | exception Aspace.Fault x -> Error x

let find_scan sp a ~words p =
  match Aspace.find_word sp a ~words p with r -> Ok r | exception Aspace.Fault x -> Error x

(* Each page's dirty-tracking state in the model, and a fresh page's. *)
type m_page = { mutable m_touched : bool; mutable m_inherited : bool; mutable m_seq : int }

let m_fresh () = { m_touched = false; m_inherited = false; m_seq = 0 }
let m_copy st = { m_touched = st.m_touched; m_inherited = st.m_inherited; m_seq = st.m_seq }

(* Run [ops] on the real spaces and the model; [after_step ()] is checked
   after every step. True when the two agree at the end (contents,
   shared frames, page tables and page states) and every check held. *)
let run_model ~after_step ops =
  let real = Array.init m_spaces (fun _ -> Aspace.create ()) in
  let words = Array.make_matrix m_spaces m_slots None in
  let ids = Array.make_matrix m_spaces m_slots [||] in
  let states = Array.make_matrix m_spaces m_slots [||] in
  let wseq = Array.make m_spaces 0 in
  let refs = Hashtbl.create 64 in
  let next_id = ref 0 in
  let fresh () =
    incr next_id;
    Hashtbl.replace refs !next_id 1;
    !next_id
  in
  let count id = Hashtbl.find refs id in
  let bump id d = Hashtbl.replace refs id (count id + d) in
  let mapped s j = words.(s).(j) <> None in
  let addr j w = Addr.add_words (m_slot_base j) w in
  (* a store through a page gives it a private frame first *)
  let break s j p =
    let id = ids.(s).(j).(p) in
    if count id > 1 then begin
      bump id (-1);
      ids.(s).(j).(p) <- fresh ()
    end
  in
  let break_range s j w n =
    for p = w / Addr.words_per_page to (w + n - 1) / Addr.words_per_page do
      break s j p
    done
  in
  (* [n] stores from word [w]: each page touched and, when tracked,
     stamped with the sequence value after its last word *)
  let stamp ~tracked s j w n =
    for p = w / Addr.words_per_page to (w + n - 1) / Addr.words_per_page do
      let st = states.(s).(j).(p) in
      st.m_touched <- true;
      if tracked then begin
        let lo = max w (p * Addr.words_per_page)
        and hi = min (w + n) ((p + 1) * Addr.words_per_page) in
        wseq.(s) <- wseq.(s) + (hi - lo);
        st.m_seq <- wseq.(s)
      end
    done
  in
  let map s j =
    ignore (Aspace.map real.(s) (Aspace.Fixed (m_slot_base j)) ~size:(2 * 4096) Region.Heap);
    words.(s).(j) <- Some (Array.make m_slot_words 0);
    ids.(s).(j) <- Array.init 2 (fun _ -> fresh ());
    states.(s).(j) <- Array.init 2 (fun _ -> m_fresh ())
  in
  let unmap s j =
    Aspace.unmap real.(s) (m_slot_base j);
    Array.iter (fun id -> bump id (-1)) ids.(s).(j);
    words.(s).(j) <- None
  in
  let content s j = Option.get words.(s).(j) in
  let reads_agree = ref true in
  let step = function
    | M_map (s, j) -> if not (mapped s j) then map s j
    | M_unmap (s, j) -> if mapped s j then unmap s j
    | M_clone (s, d) ->
        if s <> d then begin
          for j = 0 to m_slots - 1 do
            if mapped d j then unmap d j
          done;
          real.(d) <- Aspace.clone real.(s);
          wseq.(d) <- wseq.(s);
          for j = 0 to m_slots - 1 do
            words.(d).(j) <- Option.map Array.copy words.(s).(j);
            if mapped s j then begin
              ids.(d).(j) <- Array.init 2 (fun _ -> fresh ());
              states.(d).(j) <- Array.map m_copy states.(s).(j)
            end
          done
        end
    | M_write (tracked, (s, j, w), v) ->
        if mapped s j then begin
          (if tracked then Aspace.write_word else Aspace.write_word_untracked)
            real.(s) (addr j w) v;
          break_range s j w 1;
          stamp ~tracked s j w 1;
          (content s j).(w) <- v
        end
    | M_copy (tracked, (s1, j1, w1), (s2, j2, w2), n) ->
        let n = min n (min (m_slot_words - w1) (m_slot_words - w2)) in
        if mapped s1 j1 && mapped s2 j2 && (s1, j1) <> (s2, j2) && n > 0 then begin
          (if tracked then Aspace.copy_words_tracked else Aspace.copy_words)
            ~src:real.(s1) (addr j1 w1) ~dst:real.(s2) (addr j2 w2) ~words:n;
          break_range s2 j2 w2 n;
          stamp ~tracked s2 j2 w2 n;
          Array.blit (content s1 j1) w1 (content s2 j2) w2 n
        end
    | M_write_run ((s, j, w), a) ->
        let a = Array.sub a 0 (min (Array.length a) (m_slot_words - w)) in
        if mapped s j && Array.length a > 0 then begin
          Aspace.write_bytes_untracked real.(s) (addr j w) ~words:(Array.length a)
            (bytes_of_words a) ~pos:0;
          break_range s j w (Array.length a);
          stamp ~tracked:false s j w (Array.length a);
          Array.blit a 0 (content s j) w (Array.length a)
        end
    | M_share ((s1, j1, p1), (s2, j2, p2)) ->
        if mapped s1 j1 && mapped s2 j2 then begin
          let w1 = p1 * Addr.words_per_page and w2 = p2 * Addr.words_per_page in
          let src = addr j1 w1 and dst = addr j2 w2 in
          (* pages already holding the same words are shared as they are *)
          let page s j w = Array.sub (content s j) w Addr.words_per_page in
          if page s1 j1 w1 <> page s2 j2 w2 then
            Aspace.copy_words ~src:real.(s1) src ~dst:real.(s2) dst ~words:Addr.words_per_page;
          Aspace.share_page ~src:real.(s1) src ~dst:real.(s2) dst;
          break s2 j2 p2;
          let st = states.(s2).(j2).(p2) in
          st.m_touched <- true;
          st.m_inherited <- true;
          Array.blit (content s1 j1) w1 (content s2 j2) w2 Addr.words_per_page;
          let id = ids.(s1).(j1).(p1) in
          if ids.(s2).(j2).(p2) <> id then begin
            bump ids.(s2).(j2).(p2) (-1);
            bump id 1;
            ids.(s2).(j2).(p2) <- id
          end
        end
    | M_exit s ->
        List.iter (fun r -> Aspace.unmap real.(s) r.Region.base) (Aspace.regions real.(s));
        for j = 0 to m_slots - 1 do
          if mapped s j then begin
            Array.iter (fun id -> bump id (-1)) ids.(s).(j);
            words.(s).(j) <- None
          end
        done
    | M_zero ((s, j, w), n) ->
        let n = min n (m_slot_words - w) in
        if mapped s j && n > 0 then begin
          Aspace.zero_fill real.(s) (addr j w) ~words:n;
          break_range s j w n;
          stamp ~tracked:true s j w n;
          Array.fill (content s j) w n 0
        end
    | M_init ((s, j, w), a) ->
        let n = min (Array.length a) (m_slot_words - w) in
        if mapped s j && n > 0 then begin
          Aspace.write_words real.(s) (addr j w) (Aspace.words_of_fn n (Array.get a));
          break_range s j w n;
          stamp ~tracked:true s j w n;
          Array.blit a 0 (content s j) w n
        end
    | M_read ((s, j, w), n, v) ->
        (* the model's answer: a range running past the slot's two
           pages, or starting in an unmapped slot, faults at the first
           unmapped word unless a word before it holds [v] *)
        let expected =
          match words.(s).(j) with
          | None -> if n = 0 then Ok (-1) else Error (addr j w)
          | Some a ->
              let rec go i =
                if i >= n then Ok (-1)
                else if w + i >= m_slot_words then Error (addr j m_slot_words)
                else if a.(w + i) = v then Ok i
                else go (i + 1)
              in
              go 0
        in
        let p x = x = v in
        if find_each real.(s) (addr j w) ~words:n p <> expected
           || find_scan real.(s) (addr j w) ~words:n p <> expected
        then reads_agree := false;
        (* and every word of the range that the slot holds *)
        Option.iter
          (fun a ->
            for i = w to min (w + n) m_slot_words - 1 do
              if Aspace.read_word real.(s) (addr j i) <> a.(i) then reads_agree := false
            done)
          words.(s).(j)
    | M_zero_u ((s, j, w), n) ->
        let n = min n (m_slot_words - w) in
        if mapped s j && n > 0 then begin
          Aspace.zero_untracked real.(s) (addr j w) ~words:n;
          break_range s j w n;
          stamp ~tracked:false s j w n;
          Array.fill (content s j) w n 0
        end
    | M_mark ((s, j, w), n) ->
        (* pages past the slot are unmapped, and skipped *)
        Aspace.mark_inherited real.(s) (addr j w) ~words:n;
        if mapped s j && n > 0 then
          for p = w / Addr.words_per_page to min 1 ((w + n - 1) / Addr.words_per_page) do
            let st = states.(s).(j).(p) in
            st.m_touched <- true;
            st.m_inherited <- true
          done
    | M_restore ((s, j, p), seq, touched, inherited) ->
        if mapped s j then begin
          Aspace.restore_page_state real.(s)
            {
              Aspace.ps_page = addr j (p * Addr.words_per_page);
              ps_last_write_seq = seq;
              ps_touched = touched;
              ps_inherited = inherited;
            };
          let st = states.(s).(j).(p) in
          st.m_seq <- seq;
          st.m_touched <- touched;
          st.m_inherited <- inherited
        end
    | M_install (s, j, p) ->
        if mapped s j then begin
          let w = p * Addr.words_per_page in
          Aspace.zero_untracked real.(s) (addr j w) ~words:Addr.words_per_page;
          Aspace.restore_page_state real.(s)
            {
              Aspace.ps_page = addr j w;
              ps_last_write_seq = 0;
              ps_touched = false;
              ps_inherited = false;
            };
          break s j p;
          Array.fill (content s j) w Addr.words_per_page 0;
          states.(s).(j).(p) <- m_fresh ()
        end
  in
  let steps_agree = List.for_all (fun op -> step op; after_step ()) ops in
  for s = 0 to m_spaces - 1 do
    for j = 0 to m_slots - 1 do
      match words.(s).(j) with
      | None -> if Aspace.is_mapped_word real.(s) (addr j 0) then reads_agree := false
      | Some a ->
          if read_bytes real.(s) (addr j 0) ~words:m_slot_words <> bytes_of_words a then
            reads_agree := false;
          Array.iteri
            (fun w v -> if Aspace.read_word real.(s) (addr j w) <> v then reads_agree := false)
            a
    done
  done;
  let shared_agree =
    List.for_all
      (fun s ->
        let expected = ref 0 in
        for j = 0 to m_slots - 1 do
          if mapped s j then Array.iter (fun id -> if count id > 1 then incr expected) ids.(s).(j)
        done;
        Aspace.shared_frame_count real.(s) = !expected)
      (List.init m_spaces Fun.id)
  in
  (* the zero array behind every unwritten page was never written *)
  let fresh_zero =
    let sp = Aspace.create () in
    let base = Aspace.map sp (Aspace.Near Region.Heap) ~size:(4 * 4096) Region.Heap in
    read_bytes sp base ~words:(4 * Addr.words_per_page)
    = String.make (8 * 4 * Addr.words_per_page) '\000'
  in
  (* the page tables hold exactly the mapped slots' pages, in order *)
  let tables_agree =
    List.for_all
      (fun s ->
        let sp = real.(s) in
        let outside a =
          (not (Aspace.is_mapped_word sp a))
          && match Aspace.read_word sp a with _ -> false | exception Aspace.Fault _ -> true
        in
        let pages =
          List.concat_map
            (fun j ->
              if mapped s j then [ m_slot_base j; m_slot_base j + Addr.page_size ] else [])
            (List.init m_slots Fun.id)
        in
        let rec ascending = function a :: (b :: _ as tl) -> a < b && ascending tl | _ -> true in
        List.for_all
          (fun j ->
            outside (m_slot_base j - Addr.page_size)
            && outside (m_slot_base j + (2 * Addr.page_size)))
          (List.init m_slots Fun.id)
        && Aspace.resident_bytes sp = List.length pages * Addr.page_size
        && List.map (fun ps -> ps.Aspace.ps_page) (Aspace.page_states sp) = pages
        && ascending (Aspace.epoch_dirty_pages sp ~name:"model"))
      (List.init m_spaces Fun.id)
  in
  (* every mapped page carries the model's stamp, taint and touch *)
  let states_agree =
    List.for_all
      (fun s ->
        let expected =
          List.concat_map
            (fun j ->
              if mapped s j then
                List.mapi
                  (fun p st ->
                    {
                      Aspace.ps_page = addr j (p * Addr.words_per_page);
                      ps_last_write_seq = st.m_seq;
                      ps_touched = st.m_touched;
                      ps_inherited = st.m_inherited;
                    })
                  (Array.to_list states.(s).(j))
              else [])
            (List.init m_slots Fun.id)
        in
        Aspace.page_states real.(s) = expected
        && Aspace.write_seq real.(s) = wseq.(s)
        && Aspace.touched_bytes real.(s)
           = Addr.page_size * List.length (List.filter (fun ps -> ps.Aspace.ps_touched) expected))
      (List.init m_spaces Fun.id)
  in
  steps_agree && !reads_agree && shared_agree && fresh_zero && tables_agree && states_agree

let show_ops ops = String.concat "; " (List.map show_op ops)

let prop_zero_page_model =
  QCheck.Test.make ~name:"aspace agrees with a page-table model" ~count:300
    (QCheck.make ~print:show_ops QCheck.Gen.(list_size (int_range 1 60) m_op_gen))
    (run_model ~after_step:(fun () -> true))

(* ------------------------------------------------------------------ *)
(* Pristine pages

   Every mapped page nothing has mutated shares one page record. A store,
   share, stamp or taint that reached that record instead of a record of
   the page's own would show in every page mapped afterwards, in any
   space: so after every step of the model a region freshly mapped in an
   untouched space must read as a fresh page. *)

let fresh_region_is_pristine () =
  let sp = Aspace.create () in
  let pages = 2 in
  let base = Aspace.map sp (Aspace.Near Region.Heap) ~size:(pages * Addr.page_size) Region.Heap in
  List.for_all
    (fun ps ->
      ps.Aspace.ps_last_write_seq = 0 && (not ps.ps_touched) && not ps.ps_inherited)
    (Aspace.page_states sp)
  && Aspace.touched_bytes sp = 0
  && Aspace.shared_frame_count sp = 0
  && List.for_all
       (fun w -> Aspace.read_word sp (Addr.add_words base w) = 0)
       (List.init (pages * Addr.words_per_page) Fun.id)

let prop_pristine_model =
  QCheck.Test.make ~name:"no step reaches the record of an unmutated page" ~count:300
    (QCheck.make ~print:show_ops QCheck.Gen.(list_size (int_range 1 60) p_op_gen))
    (run_model ~after_step:fresh_region_is_pristine)

(* The page table of an untouched mapping holds one shared record, so a
   mapping and its fork keep only the arrays of their pointers alive: one
   live word per page in each. Live words after a full major collection
   count what stays, whatever ran before. *)
let test_untouched_page_word () =
  let pages = 16_384 in
  Gc.full_major ();
  let before = (Gc.stat ()).Gc.live_words in
  let sp = Aspace.create () in
  ignore (Aspace.map sp (Aspace.Near Region.Heap) ~size:(pages * Addr.page_size) Region.Heap);
  let child = Aspace.clone sp in
  Gc.full_major ();
  let words = float_of_int ((Gc.stat ()).Gc.live_words - before) /. float_of_int pages in
  ignore (Sys.opaque_identity (sp, child));
  if words >= 3. then
    Alcotest.failf "%.2f live words per untouched page and its fork's, want under 3" words

(* An image restore zeroes every page no saved run covers, then puts
   back each page's saved state: a page restored to a fresh page's state
   costs one live word again, as an untouched page does. *)
let test_restored_page_word () =
  let pages = 16_384 in
  Gc.full_major ();
  let before = (Gc.stat ()).Gc.live_words in
  let sp = Aspace.create () in
  let base = Aspace.map sp (Aspace.Near Region.Heap) ~size:(pages * Addr.page_size) Region.Heap in
  Aspace.zero_untracked sp base ~words:(pages * Addr.words_per_page);
  for i = 0 to pages - 1 do
    Aspace.restore_page_state sp
      {
        Aspace.ps_page = base + (i * Addr.page_size);
        ps_last_write_seq = 0;
        ps_touched = false;
        ps_inherited = false;
      }
  done;
  Gc.full_major ();
  let words = float_of_int ((Gc.stat ()).Gc.live_words - before) /. float_of_int pages in
  ignore (Sys.opaque_identity sp);
  if words >= 3. then Alcotest.failf "%.2f live words per restored fresh page, want under 3" words;
  (* a frame shared with another space, or a non-zero page, stays its own *)
  let fresh_state a =
    { Aspace.ps_page = a; ps_last_write_seq = 0; ps_touched = false; ps_inherited = false }
  in
  let src = Aspace.create () and dst = Aspace.create () in
  let a = Aspace.map src (Aspace.Near Region.Heap) ~size:(2 * Addr.page_size) Region.Heap in
  let b = Aspace.map dst (Aspace.Fixed a) ~size:(2 * Addr.page_size) Region.Heap in
  Aspace.share_page ~src a ~dst b;
  Aspace.restore_page_state dst (fresh_state b);
  Alcotest.(check (pair int int)) "a shared zero frame stays shared" (1, 1)
    (Aspace.shared_frame_count src, Aspace.shared_frame_count dst);
  let c = a + Addr.page_size in
  Aspace.write_word src c 7;
  Aspace.restore_page_state src (fresh_state c);
  Alcotest.(check int) "a non-zero page keeps its words" 7 (Aspace.read_word src c)

(* ------------------------------------------------------------------ *)
(* Recycled page arrays

   [unmap] hands the arrays of unreferenced frames to later pages. A
   recycled array must come back zeroed to a fresh mapping, a frame still
   shared by a survivor must never be recycled, and a fork that copies
   into recycled arrays must be as deep as one that allocates. *)

let r_pages = 4

(* A fresh space with [r_pages] pages mapped at [base], holding [v + i] at
   word [i] of the range. *)
let r_dirty_space base v =
  let sp = Aspace.create () in
  ignore (Aspace.map sp (Aspace.Fixed base) ~size:(r_pages * 4096) Region.Heap);
  for i = 0 to (r_pages * Addr.words_per_page) - 1 do
    Aspace.write_word sp (Addr.add_words base i) (v + i)
  done;
  sp

let test_recycled_arrays_are_isolated () =
  let base = 0x200000 and words = r_pages * Addr.words_per_page in
  (* 1. dirty pages freed by unmap come back all zero: 64 non-zero words
     a page are more than a page keeps as entries, so each page takes a
     recycled array *)
  Aspace.unmap (r_dirty_space base 1) base;
  let fresh = Aspace.create () in
  ignore (Aspace.map fresh (Aspace.Fixed base) ~size:(r_pages * 4096) Region.Heap);
  for k = 0 to r_pages - 1 do
    for j = 0 to 63 do
      Aspace.write_word fresh (Addr.add_words base ((k * Addr.words_per_page) + (8 * j) + 1)) 7
    done
  done;
  Array.iteri
    (fun i v -> Alcotest.(check int) "fresh mapping reads zero" (if i mod 8 = 1 then 7 else 0) v)
    (read_each fresh base ~words);
  (* 2. a frame shared with an exiting space is never recycled, whichever
     side of [share_page] exits *)
  List.iter
    (fun survivor_is_src ->
      let a, b, src, dst = share_setup () in
      Aspace.share_page ~src:a src ~dst:b dst;
      let survivor, at = if survivor_is_src then (a, src) else (b, dst) in
      if survivor_is_src then Aspace.unmap b dst else Aspace.unmap a src;
      Aspace.unmap (r_dirty_space base 2) base;
      ignore (r_dirty_space base 3);
      Array.iteri
        (fun i v -> Alcotest.(check int) "survivor page unchanged" (i * 7) v)
        (read_each survivor at ~words:Addr.words_per_page))
    [ true; false ];
  (* 3. a clone into recycled arrays is isolated both ways: two exits free
     enough arrays for the parent's pages and the child's copies *)
  let exiting = [ r_dirty_space base 4; r_dirty_space base 5 ] in
  List.iter (fun sp -> Aspace.unmap sp base) exiting;
  let parent = r_dirty_space base 6 in
  let child = Aspace.clone parent in
  let expect = Array.init words (fun i -> 6 + i) in
  Alcotest.(check (array int)) "child starts as the parent" expect (read_each child base ~words);
  for i = 0 to words - 1 do
    Aspace.write_word child (Addr.add_words base i) (-i)
  done;
  Alcotest.(check (array int)) "parent unaffected" expect (read_each parent base ~words);
  Aspace.unmap parent base;
  ignore (r_dirty_space base 8);
  Alcotest.(check (array int)) "child unaffected" (Array.init words (fun i -> -i))
    (read_each child base ~words)

(* ------------------------------------------------------------------ *)
(* Lockstep: the bulk tracked stores against one [write_word] per word

   The same random state is built twice: four mapped pages followed by an
   unmapped one, each mapped page left on the zero array, written
   privately, shared by [share_page] with a donor space's page, or shared
   and then stored to, which breaks the sharing but leaves the words the
   donor's. One copy is stored to with a bulk call, the other word by word;
   every observable must then agree, including the fault on a range that
   runs into the unmapped page and which pages are still on the zero
   array. *)

type z_page =
  | Z_zero
  | Z_private of (int * int) list
  | Z_shared of (int * int) list
  | Z_broken of (int * int) list

let z_pages = 4
let z_base = 0x100000

let z_page_gen =
  let open QCheck.Gen in
  let writes = small_list (pair (int_bound (Addr.words_per_page - 1)) (int_range 1 9)) in
  frequency
    [
      (1, return Z_zero);
      (2, map (fun w -> Z_private w) writes);
      (2, map (fun w -> Z_shared w) writes);
      (1, map (fun w -> Z_broken w) writes);
    ]

let show_z_page = function
  | Z_zero -> "zero"
  | Z_private w -> Printf.sprintf "private x%d" (List.length w)
  | Z_shared w -> Printf.sprintf "shared x%d" (List.length w)
  | Z_broken w -> Printf.sprintf "cow-broken x%d" (List.length w)

(* Pages, the page before which the "e" epoch is reset, a byte offset that
   misaligns the start when non-zero, the first word and the word count. *)
let z_case_gen =
  let open QCheck.Gen in
  let total = (z_pages + 1) * Addr.words_per_page in
  tup5
    (list_repeat z_pages z_page_gen)
    (int_bound z_pages)
    (frequency [ (9, return 0); (1, return 3) ])
    (int_bound (total - 1))
    (int_bound total)

let z_build pages reset_at =
  let donor = Aspace.create () and sp = Aspace.create () in
  ignore (Aspace.map donor (Aspace.Fixed z_base) ~size:(z_pages * 4096) Region.Heap);
  ignore (Aspace.map sp (Aspace.Fixed z_base) ~size:(z_pages * 4096) Region.Heap);
  List.iteri
    (fun k page ->
      if k = reset_at then Aspace.epoch_reset sp ~name:"e";
      let pa = Addr.add z_base (k * Addr.page_size) in
      let store space writes =
        List.iter (fun (w, v) -> Aspace.write_word space (Addr.add_words pa w) v) writes
      in
      let share writes =
        store donor writes;
        Aspace.copy_words ~src:donor pa ~dst:sp pa ~words:Addr.words_per_page;
        Aspace.share_page ~src:donor pa ~dst:sp pa
      in
      match page with
      | Z_zero -> ()
      | Z_private writes -> store sp writes
      | Z_shared writes -> share writes
      | Z_broken writes ->
          share writes;
          Aspace.write_word sp pa (Aspace.read_word sp pa))
    pages;
  if reset_at = z_pages then Aspace.epoch_reset sp ~name:"e";
  (donor, sp)

(* Whether each page of [sp] is still on the zero array. [fold_runs] lends
   a page's own storage, and every zero-array page lends the same array as
   a fresh mapping does; the lent arrays are only compared, never kept. *)
let z_zero_backed sp =
  let fresh = Aspace.create () in
  ignore (Aspace.map fresh (Aspace.Fixed z_base) ~size:4096 Region.Heap);
  Aspace.fold_runs fresh z_base ~words:1 ~init:[] ~f:(fun _ zero _ _ ->
      List.init z_pages (fun k ->
          Aspace.fold_runs sp (Addr.add z_base (k * Addr.page_size)) ~words:1 ~init:false
            ~f:(fun _ page _ _ -> page == zero)))

let z_observe sp donor =
  ( read_each sp z_base ~words:(z_pages * Addr.words_per_page),
    read_each donor z_base ~words:(z_pages * Addr.words_per_page),
    Aspace.write_seq sp,
    Aspace.page_states sp,
    (Aspace.shared_frame_count sp, Aspace.shared_frame_count donor),
    Aspace.epoch_dirty_pages sp ~name:"e",
    z_zero_backed sp,
    List.init z_pages (fun k -> Aspace.page_is_zero sp (Addr.add z_base (k * Addr.page_size))),
    Aspace.resident_bytes sp )

let z_print (pages, reset_at, skew, w, n) =
  Printf.sprintf "[%s] reset@%d skew %d from %d x%d"
    (String.concat "; " (List.map show_z_page pages))
    reset_at skew w n

let z_fault g = try g (); None with Aspace.Fault x -> Some x

(* Build the case twice, store [f i] at word [i] of the range with [bulk]
   on one copy and one [store] (by default [write_word]) per word on the
   other, and compare. *)
let z_lockstep ?(store = Aspace.write_word) (pages, reset_at, skew, w, n) f bulk =
  let a = Addr.add_words z_base w + skew in
  let bulk_donor, bulk_sp = z_build pages reset_at in
  let word_donor, word_sp = z_build pages reset_at in
  let bulk_fault = z_fault (fun () -> bulk bulk_sp a n) in
  let word_fault =
    z_fault (fun () ->
        for i = 0 to n - 1 do
          store word_sp (Addr.add_words a i) (f i)
        done)
  in
  bulk_fault = word_fault && z_observe bulk_sp bulk_donor = z_observe word_sp word_donor

let prop_zero_fill_lockstep =
  QCheck.Test.make ~name:"zero_fill is one write_word _ 0 per word" ~count:300
    (QCheck.make ~print:z_print z_case_gen)
    (fun case -> z_lockstep case (fun _ -> 0) (fun sp a n -> Aspace.zero_fill sp a ~words:n))

let prop_zero_untracked_lockstep =
  QCheck.Test.make ~name:"zero_untracked is one write_word_untracked _ 0 per word" ~count:300
    (QCheck.make ~print:z_print z_case_gen)
    (fun case ->
      z_lockstep ~store:Aspace.write_word_untracked case
        (fun _ -> 0)
        (fun sp a n -> Aspace.zero_untracked sp a ~words:n))

(* The words a read visits, and the fault that stopped it. *)
let z_visited read =
  let seen = ref [] in
  let fault = z_fault (fun () -> read (fun v -> seen := v :: !seen)) in
  (List.rev !seen, fault)

(* Extra stores put negative, large and zero words on the pages. *)
let prop_iter_nonzero_lockstep =
  QCheck.Test.make ~name:"iter_nonzero is read_word without the zeros" ~count:300
    (QCheck.make
       ~print:(fun (case, extra) -> Printf.sprintf "%s extra x%d" (z_print case) (List.length extra))
       QCheck.Gen.(
         pair z_case_gen
           (small_list
              (pair
                 (int_bound ((z_pages * Addr.words_per_page) - 1))
                 (oneofl [ -1; max_int; min_int; 0; 1 lsl 61; 7 ])))))
    (fun ((pages, reset_at, skew, w, n), extra) ->
      let _donor, sp = z_build pages reset_at in
      List.iter (fun (i, v) -> Aspace.write_word sp (Addr.add_words z_base i) v) extra;
      let a = Addr.add_words z_base w + skew in
      z_visited (Aspace.iter_nonzero sp a ~words:n)
      = z_visited (fun f ->
            for i = 0 to n - 1 do
              let v = Aspace.read_word sp (Addr.add_words a i) in
              if v <> 0 then f v
            done))

(* The non-zero run fold against a model that reads the range one
   [read_word] at a time, cuts it at page boundaries and keeps each run
   holding a non-zero word, with its index among the kept runs, its
   address, first word, length and words. On top of the lockstep state,
   extra stores put negative, large and zero words on the pages, and
   [cleared] pages are zeroed whole: a page written non-zero then cleared
   keeps private all-zero bytes, a shared one is unshared first. A range
   running into the unmapped page must fault where [read_word] does, after
   the same runs. *)
let prop_fold_nonzero_runs =
  QCheck.Test.make ~name:"fold_nonzero_runs is the read_word runs holding a non-zero word"
    ~count:300
    (QCheck.make
       ~print:(fun (case, extra, cleared) ->
         Printf.sprintf "%s extra x%d cleared [%s]" (z_print case) (List.length extra)
           (String.concat "; " (List.map string_of_bool cleared)))
       QCheck.Gen.(
         triple z_case_gen
           (small_list
              (pair
                 (int_bound ((z_pages * Addr.words_per_page) - 1))
                 (oneofl [ -1; max_int; min_int; 0; 1 lsl 61; 7 ])))
           (list_repeat z_pages (frequency [ (2, return false); (1, return true) ]))))
    (fun ((pages, reset_at, skew, w, n), extra, cleared) ->
      let _donor, sp = z_build pages reset_at in
      List.iter (fun (i, v) -> Aspace.write_word sp (Addr.add_words z_base i) v) extra;
      List.iteri
        (fun k c ->
          if c then
            Aspace.zero_fill sp (Addr.add z_base (k * Addr.page_size)) ~words:Addr.words_per_page)
        cleared;
      let a = Addr.add_words z_base w + skew in
      (* The fold's count of runs, or the fault that stopped it. *)
      let outcome f = match f () with c -> Ok c | exception Aspace.Fault x -> Error x in
      let folded = ref [] in
      let fold_end =
        outcome (fun () ->
            Aspace.fold_nonzero_runs sp a ~words:n ~init:0 ~f:(fun c addr page i k ->
                let word j = Int64.to_int (Bytes.get_int64_le page (8 * (i + j))) in
                folded := (c, addr, i, k, List.init k word) :: !folded;
                c + 1))
      in
      let model = ref [] in
      let model_end =
        outcome (fun () ->
            let pos = ref 0 in
            while !pos < n do
              let addr = Addr.add_words a !pos in
              (* faults first on a misaligned or unmapped address *)
              ignore (Aspace.read_word sp addr);
              let i = Addr.word_index addr in
              let k = min (n - !pos) (Addr.words_per_page - i) in
              let words = List.init k (fun j -> Aspace.read_word sp (Addr.add_words addr j)) in
              if List.exists (( <> ) 0) words then
                model := (List.length !model, addr, i, k, words) :: !model;
              pos := !pos + k
            done;
            List.length !model)
      in
      fold_end = model_end && !folded = !model)

(* Every pair of pages of the built space and its donor, the unmapped page
   after them included, against the two pages' words read one by one.
   Extra small stores, often at a page's first or last word, make pages
   that differ in one word only. *)
let prop_pages_equal_lockstep =
  let wpp = Addr.words_per_page in
  QCheck.Test.make ~name:"pages_equal is a word-by-word compare" ~count:200
    (QCheck.make
       ~print:(fun (case, extra) -> Printf.sprintf "%s extra x%d" (z_print case) (List.length extra))
       QCheck.Gen.(
         pair z_case_gen
           (small_list
              (triple (int_bound (z_pages - 1))
                 (oneof [ return 0; return (wpp - 1); int_bound (wpp - 1) ])
                 (int_bound 3)))))
    (fun ((pages, reset_at, _, _, _), extra) ->
      let donor, sp = z_build pages reset_at in
      List.iter
        (fun (k, w, v) -> Aspace.write_word sp (Addr.add_words z_base ((k * wpp) + w)) v)
        extra;
      let page k = Addr.add z_base (k * Addr.page_size) in
      let words s k = read_each s (page k) ~words:Addr.words_per_page in
      let outcome f = match f () with b -> Ok b | exception Aspace.Fault x -> Error x in
      let ks = List.init (z_pages + 1) Fun.id in
      List.for_all
        (fun (s, u) ->
          List.for_all
            (fun j ->
              List.for_all
                (fun k ->
                  outcome (fun () -> Aspace.pages_equal s (page j) u (page k))
                  = outcome (fun () ->
                        let x = words s j in
                        x = words u k))
                ks)
            ks)
        [ (sp, sp); (sp, donor); (donor, sp) ])

(* The values [write_words] stores: all zeros, a few non-zero words at
   random offsets (so most page runs are all zero), or a dense pattern
   that is zero only at word [s]. *)
type w_fill = W_zeros | W_points of (int * int) list | W_dense of int

let w_fill_gen =
  let open QCheck.Gen in
  let total = (z_pages + 1) * Addr.words_per_page in
  frequency
    [
      (1, return W_zeros);
      (3, map (fun l -> W_points l) (small_list (pair (int_bound (total - 1)) (int_range 1 9))));
      (2, map (fun s -> W_dense s) (int_bound total));
    ]

let w_value fill i =
  match fill with
  | W_zeros -> 0
  | W_points l -> Option.value (List.assoc_opt i l) ~default:0
  | W_dense s -> i lxor s

let show_w_fill = function
  | W_zeros -> "zeros"
  | W_points l -> Printf.sprintf "points x%d" (List.length l)
  | W_dense s -> Printf.sprintf "dense %d" s

let prop_write_words_lockstep =
  QCheck.Test.make ~name:"write_words is one write_word per word" ~count:300
    (QCheck.make
       ~print:(fun (case, fill) -> z_print case ^ " " ^ show_w_fill fill)
       (QCheck.Gen.pair z_case_gen w_fill_gen))
    (fun (((_, _, _, _, n) as case), fill) ->
      let f = w_value fill in
      z_lockstep case f (fun sp a _ -> Aspace.write_words sp a (Aspace.words_of_fn n f)))

(* The cases the property must not miss, each against the same per-word
   stores: an unaligned start, runs from the middle of a page across page
   boundaries, all-zero runs into zero pages, and runs over frames shared
   with the donor, whose bytes must stay the donor's. *)
let test_write_words_edges () =
  let wpp = Addr.words_per_page in
  let shared = Z_shared [ (0, 5); (wpp - 1, 7) ] in
  List.iter
    (fun (((_, _, _, _, n) as case), fill) ->
      let f = w_value fill in
      Alcotest.(check bool)
        (Printf.sprintf "%s %s" (z_print case) (show_w_fill fill))
        true
        (z_lockstep case f (fun sp a _ -> Aspace.write_words sp a (Aspace.words_of_fn n f))))
    [
      (([ Z_zero; Z_zero; Z_zero; Z_zero ], 0, 3, 10, 20), W_dense 1);
      (([ Z_private [ (3, 1) ]; Z_zero; Z_zero; Z_zero ], 1, 0, wpp / 2, 2 * wpp), W_dense 0);
      (([ Z_zero; Z_zero; Z_private [ (1, 2) ]; Z_zero ], 2, 0, 7, 3 * wpp), W_zeros);
      (([ Z_zero; Z_zero; Z_zero; Z_zero ], 4, 0, 0, 4 * wpp), W_points [ (wpp + 2, 3) ]);
      (([ shared; shared; Z_zero; Z_zero ], 0, 0, wpp - 3, wpp + 6), W_dense 2);
      (([ shared; Z_shared []; Z_zero; Z_zero ], 1, 0, 0, 2 * wpp), W_zeros);
      (([ Z_zero; Z_zero; Z_zero; shared ], 0, 0, (3 * wpp) + 1, wpp + 4), W_dense 9);
    ]

(* Lockstep for the image's byte form. The source words are zero, small,
   arbitrary 64-bit values, or only bit 63 set, which is a zero word: its
   bits 0-62 are clear. The range starts at byte [pos] of the source. *)
type b_fill = B_zeros | B_points of (int * int64) list | B_dense of int64 list

let b_word_gen =
  QCheck.Gen.(
    oneof [ return Int64.min_int; return (-1L); map Int64.of_int (int_range 1 9); ui64 ])

let b_fill_gen =
  let open QCheck.Gen in
  let total = (z_pages + 1) * Addr.words_per_page in
  frequency
    [
      (1, return B_zeros);
      (3, map (fun l -> B_points l) (small_list (pair (int_bound (total - 1)) b_word_gen)));
      (2, map (fun l -> B_dense l) (list_size (int_range 1 7) b_word_gen));
    ]

let show_b_fill = function
  | B_zeros -> "zeros"
  | B_points l -> Printf.sprintf "points x%d" (List.length l)
  | B_dense l -> Printf.sprintf "dense cycle of %d" (List.length l)

let b_source fill ~pos n =
  let b = Bytes.make (pos + (8 * n) + 3) '\x5a' in
  for i = 0 to n - 1 do
    let v =
      match fill with
      | B_zeros -> 0L
      | B_points l -> Option.value (List.assoc_opt i l) ~default:0L
      | B_dense l -> List.nth l (i mod List.length l)
    in
    Bytes.set_int64_le b (pos + (8 * i)) v
  done;
  Bytes.to_string b

let prop_write_bytes_lockstep =
  QCheck.Test.make ~name:"write_bytes_untracked is one write_word_untracked per word"
    ~count:300
    (QCheck.make
       ~print:(fun (case, fill, pos) -> Printf.sprintf "%s %s at %d" (z_print case) (show_b_fill fill) pos)
       (QCheck.Gen.triple z_case_gen b_fill_gen (QCheck.Gen.int_bound 9)))
    (fun (((_, _, _, _, n) as case), fill, pos) ->
      let src = b_source fill ~pos n in
      z_lockstep ~store:Aspace.write_word_untracked case
        (fun i -> Int64.to_int (String.get_int64_le src (pos + (8 * i))))
        (fun sp a n -> Aspace.write_bytes_untracked sp a ~words:n src ~pos))

(* The words read back in byte form are [read_word]'s, word by word: over
   zero, private and shared pages holding negative and top-bit words, into
   a buffer at an odd offset, with the same fault on a range that runs
   into the unmapped page. *)
let prop_read_bytes_lockstep =
  QCheck.Test.make ~name:"read_bytes is one read_word per word" ~count:300
    (QCheck.make
       ~print:(fun (case, extra, pos) ->
         Printf.sprintf "%s extra x%d at %d" (z_print case) (List.length extra) pos)
       QCheck.Gen.(
         triple z_case_gen
           (small_list
              (pair
                 (int_bound ((z_pages * Addr.words_per_page) - 1))
                 (oneofl [ -1; max_int; min_int; -42; 1 lsl 61; 7 ])))
           (int_bound 9)))
    (fun ((pages, reset_at, skew, w, n), extra, pos) ->
      let _donor, sp = z_build pages reset_at in
      List.iter (fun (i, v) -> Aspace.write_word sp (Addr.add_words z_base i) v) extra;
      let a = Addr.add_words z_base w + skew in
      let buf = Bytes.make (pos + (8 * n) + 3) '\x5a' in
      let expected = Bytes.copy buf in
      let bulk_fault = z_fault (fun () -> Aspace.read_bytes sp a ~words:n buf ~pos) in
      let word_fault =
        z_fault (fun () ->
            for i = 0 to n - 1 do
              let v = Aspace.read_word sp (Addr.add_words a i) in
              Bytes.set_int64_le expected (pos + (8 * i))
                (Int64.logand (Int64.of_int v) Int64.max_int)
            done)
      in
      (* a fault leaves the faulting page's words unfilled: compare only
         the words before it *)
      let filled =
        match word_fault with
        | None -> n
        | Some x -> (x - a) / Addr.word_size
      in
      bulk_fault = word_fault
      && Bytes.sub buf 0 (pos + (8 * filled)) = Bytes.sub expected 0 (pos + (8 * filled))
      && Bytes.sub_string buf (pos + (8 * n)) 3 = "\x5a\x5a\x5a")

(* ------------------------------------------------------------------ *)
(* Canonical byte form: a page's bytes depend on its words alone, so pages
   stored through different paths compare, and read out, by value. *)

(* The words whose byte forms reach the edges: [min_int], [max_int], all
   ones, bit 61 alone and bit 62 alone (the sign bit, so [min_int] again). *)
let c_edge_words = [ min_int; max_int; -1; 1 lsl 61; 1 lsl 62 ]

(* A page's words: mostly zeros, some edge words, often at the page's
   first or last word. *)
let c_page_gen =
  let wpp = Addr.words_per_page in
  QCheck.Gen.(
    map
      (fun points ->
        let page = Array.make wpp 0 in
        List.iter (fun (i, v) -> page.(i) <- v) points;
        page)
      (small_list
         (pair
            (oneof [ return 0; return (wpp - 1); int_bound (wpp - 1) ])
            (frequency [ (3, oneofl c_edge_words); (1, int_range (-9) 9) ]))))

let c_space () =
  let sp = Aspace.create () in
  ignore (Aspace.map sp (Aspace.Fixed z_base) ~size:Addr.page_size Region.Heap);
  sp

let c_write_each sp words =
  Array.iteri (fun i v -> Aspace.write_word sp (Addr.add_words z_base i) v) words

(* Store [words] into a one-page space at [z_base], by [write_word],
   [write_words], [copy_words] and [write_bytes_untracked]. The [write_word]
   page is materialised first, so all-zero contents compare a private page
   with pages still on the zero bytes; the byte source sets bit 63 of every
   word. *)
let c_paths : (Aspace.t -> int array -> unit) list =
  let wpp = Addr.words_per_page in
  [
    (fun sp words ->
      Aspace.write_word sp z_base 1;
      c_write_each sp words);
    (fun sp words -> Aspace.write_words sp z_base (Aspace.words_of_fn wpp (Array.get words)));
    (fun sp words ->
      let src = c_space () in
      c_write_each src words;
      Aspace.copy_words ~src z_base ~dst:sp z_base ~words:wpp);
    (fun sp words ->
      let b = Bytes.create (8 * wpp) in
      Array.iteri
        (fun i v -> Bytes.set_int64_le b (8 * i) (Int64.logor (Int64.of_int v) Int64.min_int))
        words;
      Aspace.write_bytes_untracked sp z_base ~words:wpp (Bytes.to_string b) ~pos:0);
  ]

let prop_canonical_pages =
  QCheck.Test.make ~name:"pages stored by any path compare and read out by their words"
    ~count:200
    (QCheck.make
       ~print:(fun (a, b, pick) ->
         let show p =
           String.concat "; "
             (List.filter_map
                (fun i -> if p.(i) = 0 then None else Some (Printf.sprintf "%d:%d" i p.(i)))
                (List.init Addr.words_per_page Fun.id))
         in
         Printf.sprintf "a [%s] b [%s] paths take %s" (show a) (show b)
           (String.concat "" (List.map (fun x -> if x then "b" else "a") pick)))
       QCheck.Gen.(
         triple c_page_gen c_page_gen (list_repeat (List.length c_paths) bool)))
    (fun (a, b, pick) ->
      let spaces =
        List.map2
          (fun store x ->
            let sp = c_space () in
            let words = if x then b else a in
            store sp words;
            (sp, words))
          c_paths pick
      in
      let model sp = read_each sp z_base ~words:Addr.words_per_page in
      List.for_all
        (fun (sp, words) ->
          model sp = words
          && read_bytes sp z_base ~words:Addr.words_per_page = bytes_of_words words
          && List.for_all
               (fun (u, _) -> Aspace.pages_equal sp z_base u z_base = (model sp = model u))
               spaces)
        spaces)

let test_write_bytes_zero_run () =
  let sp = Aspace.create () in
  ignore (Aspace.map sp (Aspace.Fixed z_base) ~size:(z_pages * 4096) Region.Heap);
  let words = z_pages * Addr.words_per_page in
  (* bit 63 alone is outside the word: these are all zero words *)
  let src = String.concat "" (List.init words (fun _ -> "\000\000\000\000\000\000\000\x80")) in
  Aspace.write_bytes_untracked sp z_base ~words src ~pos:0;
  let all = List.init z_pages (fun _ -> true) in
  Alcotest.(check (list bool)) "every page still on the zero array" all (z_zero_backed sp);
  Alcotest.(check (list bool)) "every page touched" all
    (List.map (fun ps -> ps.Aspace.ps_touched) (Aspace.page_states sp));
  Alcotest.(check int) "untracked: no write sequence" 0 (Aspace.write_seq sp)

let test_bytes_range_checks () =
  let sp = Aspace.create () in
  ignore (Aspace.map sp (Aspace.Fixed z_base) ~size:4096 Region.Heap);
  List.iter
    (fun (pos, words) ->
      let rejected name f =
        match f () with
        | exception Invalid_argument _ -> ()
        | () -> Alcotest.failf "%s pos=%d words=%d accepted" name pos words
      in
      rejected "read_bytes" (fun () -> Aspace.read_bytes sp z_base ~words (Bytes.create 16) ~pos);
      rejected "write_bytes_untracked" (fun () ->
          Aspace.write_bytes_untracked sp z_base ~words (String.make 16 'x') ~pos))
    [ (-1, 1); (0, 3); (9, 1); (0, -1); (17, 0); (8, (max_int / 8) + 1); (0, max_int) ]

(* ------------------------------------------------------------------ *)
(* Sparse pages: a page holding few non-zero words keeps them as entries,
   and moves to bytes of its own past 32 of them. Every reader must answer
   from the words alone, whatever backs the page.

   Two pages of one space and the same two of a donor space are driven by
   stores that cross the 32-entry cap both ways (runs of mostly non-zero
   words, then zeros over them), copies between the spaces in both
   directions, a shared page stored to afterwards, forks and page-state
   restores. After each step every reader is checked against a plain
   array of each space's words. A fork's parent is kept with the words it
   had, and must keep them whatever the fork is stored to next. *)

let s_words = 2 * Addr.words_per_page

type s_op =
  | S_write of int * int
  | S_zero of int * int
  | S_words of int * int list
  | S_bytes of int * int list
  | S_copy_in of int * int * int (* donor word, word, count *)
  | S_copy_out of int * int * int (* word, donor word, count *)
  | S_donor of int * int list
  | S_share of int
  | S_clone
  | S_restore of int * bool

let s_value_gen =
  QCheck.Gen.(
    frequency
      [
        (3, return 0);
        (3, int_range 1 9);
        (1, oneofl [ -1; min_int; max_int; 1 lsl 61; 1 lsl 62 ]);
      ])

(* Words cluster at each page's first 64, so entries are updated and
   dropped as well as added. *)
let s_word_gen =
  QCheck.Gen.(
    map2
      (fun k i -> (k * Addr.words_per_page) + i)
      (int_bound 1)
      (frequency [ (3, int_bound 63); (1, int_bound (Addr.words_per_page - 1)) ]))

(* A run from [w] that ends inside the two pages: mostly non-zero, mostly
   zero, or all zero. *)
let s_run_gen =
  QCheck.Gen.(
    s_word_gen >>= fun w ->
    int_range 1 (min 80 (s_words - w)) >>= fun n ->
    frequency
      [
        (2, list_repeat n (frequency [ (4, int_range 1 9); (1, return 0) ]));
        (2, list_repeat n s_value_gen);
        (1, return (List.init n (fun _ -> 0)));
      ]
    >|= fun vs -> (w, vs))

let s_copy_gen =
  QCheck.Gen.(
    triple s_word_gen s_word_gen (int_range 1 80) >|= fun (a, b, n) ->
    (a, b, min n (s_words - max a b)))

let s_op_gen =
  QCheck.Gen.(
    frequency
      [
        (6, map2 (fun w v -> S_write (w, v)) s_word_gen s_value_gen);
        (2, s_copy_gen >|= fun (w, _, n) -> S_zero (w, n));
        (3, s_run_gen >|= fun (w, vs) -> S_words (w, vs));
        (2, s_run_gen >|= fun (w, vs) -> S_bytes (w, vs));
        (2, s_copy_gen >|= fun (a, b, n) -> S_copy_in (a, b, n));
        (2, s_copy_gen >|= fun (a, b, n) -> S_copy_out (a, b, n));
        (2, s_run_gen >|= fun (w, vs) -> S_donor (w, vs));
        (1, map (fun k -> S_share k) (int_bound 1));
        (1, return S_clone);
        (1, map2 (fun k fresh -> S_restore (k, fresh)) (int_bound 1) bool);
      ])

let show_s_op = function
  | S_write (w, v) -> Printf.sprintf "write %d:%d" w v
  | S_zero (w, n) -> Printf.sprintf "zero %d x%d" w n
  | S_words (w, vs) -> Printf.sprintf "words %d x%d" w (List.length vs)
  | S_bytes (w, vs) -> Printf.sprintf "bytes %d x%d" w (List.length vs)
  | S_copy_in (a, b, n) -> Printf.sprintf "copy donor %d -> %d x%d" a b n
  | S_copy_out (a, b, n) -> Printf.sprintf "copy %d -> donor %d x%d" a b n
  | S_donor (w, vs) -> Printf.sprintf "donor words %d x%d" w (List.length vs)
  | S_share k -> Printf.sprintf "share %d" k
  | S_clone -> "clone"
  | S_restore (k, fresh) -> Printf.sprintf "restore %d %s" k (if fresh then "fresh" else "as is")

let s_base = 0x300000
let s_addr w = Addr.add_words s_base w
let s_page k = Addr.add s_base (k * Addr.page_size)

let s_space () =
  let sp = Aspace.create () in
  ignore (Aspace.map sp (Aspace.Fixed s_base) ~size:(2 * Addr.page_size) Region.Heap);
  sp

(* A space holding [model]'s words with both pages on bytes of their own:
   every word is stored non-zero first. *)
let s_dense_twin model =
  let sp = s_space () in
  Aspace.write_words sp s_base (Aspace.words_of_fn s_words (fun _ -> 1));
  Aspace.write_words sp s_base (Aspace.words_of_fn s_words (Array.get model));
  sp

(* The runs [fold_nonzero_runs] must visit over [\[w, w + n)]: page runs
   holding a non-zero word, with their address, first index and words. *)
let s_model_runs model w n =
  let rec go pos acc =
    if pos >= n then List.rev acc
    else
      let i = (w + pos) mod Addr.words_per_page in
      let k = min (n - pos) (Addr.words_per_page - i) in
      let words = Array.to_list (Array.sub model (w + pos) k) in
      go (pos + k) (if List.exists (( <> ) 0) words then (s_addr (w + pos), i, words) :: acc else acc)
  in
  go 0 []

(* Every reader of [sp] over [\[w, w + n)] and over each whole page
   against [model]; [others] are spaces to compare pages with. *)
let s_readers_agree sp model (w, n) others =
  let range w n = Array.sub model w n in
  let ranges = [ (w, n); (0, s_words); (0, Addr.words_per_page); (Addr.words_per_page, Addr.words_per_page) ] in
  let find w n p =
    let expected =
      let rec go j = if j >= n then -1 else if p model.(w + j) then j else go (j + 1) in
      go 0
    in
    Aspace.find_word sp (s_addr w) ~words:n p = expected
  in
  let range_ok (w, n) =
    read_each sp (s_addr w) ~words:n = range w n
    && find w n (( <> ) 0)
    && find w n (( = ) 0)
    && (n = 0 || find w n (( = ) model.(w + n - 1)))
    && (let seen = ref [] in
        Aspace.iter_nonzero sp (s_addr w) ~words:n (fun v -> seen := v :: !seen);
        List.rev !seen = List.filter (( <> ) 0) (Array.to_list (range w n)))
    && Aspace.fold_nonzero_runs sp (s_addr w) ~words:n ~init:[] ~f:(fun acc addr page i k ->
           (addr, i, List.init k (fun j -> Int64.to_int (Bytes.get_int64_le page (8 * (i + j)))))
           :: acc)
       |> List.rev = s_model_runs model w n
    && read_bytes sp (s_addr w) ~words:n = bytes_of_words (range w n)
  in
  let page_words k = range (k * Addr.words_per_page) Addr.words_per_page in
  List.for_all range_ok ranges
  && List.for_all
       (fun k -> Aspace.page_is_zero sp (s_page k) = Array.for_all (( = ) 0) (page_words k))
       [ 0; 1 ]
  && List.for_all
       (fun (u, umodel) ->
         List.for_all
           (fun (j, k) ->
             Aspace.pages_equal sp (s_page j) u (s_page k)
             = (page_words j = Array.sub umodel (k * Addr.words_per_page) Addr.words_per_page))
           [ (0, 0); (0, 1); (1, 0); (1, 1) ])
       ((sp, model) :: others)
  && Mcr_image.Image.aspace_fingerprint ~prog:"sparse" sp
     = Mcr_image.Image.aspace_fingerprint ~prog:"sparse" (s_dense_twin model)

let s_run ops probe =
  let sp = ref (s_space ()) and donor = s_space () in
  let m = Array.make s_words 0 and d = Array.make s_words 0 in
  let parents = ref [] in
  let store_list f w vs = List.iteri (fun j v -> f (w + j) v) vs in
  let step op =
    let sp_ = !sp in
    match op with
    | S_write (w, v) ->
        Aspace.write_word sp_ (s_addr w) v;
        m.(w) <- v
    | S_zero (w, n) ->
        Aspace.zero_fill sp_ (s_addr w) ~words:n;
        Array.fill m w n 0
    | S_words (w, vs) ->
        let a = Array.of_list vs in
        Aspace.write_words sp_ (s_addr w) (Aspace.words_of_fn (Array.length a) (Array.get a));
        store_list (Array.set m) w vs
    | S_bytes (w, vs) ->
        (* bit 63 set on every word: outside the word, so it must not show *)
        let src =
          String.concat ""
            (List.map
               (fun v ->
                 let b = Bytes.create 8 in
                 Bytes.set_int64_le b 0 (Int64.logor (Int64.of_int v) Int64.min_int);
                 Bytes.to_string b)
               vs)
        in
        Aspace.write_bytes_untracked sp_ (s_addr w) ~words:(List.length vs) src ~pos:0;
        store_list (Array.set m) w vs
    | S_copy_in (a, b, n) ->
        Aspace.copy_words ~src:donor (s_addr a) ~dst:sp_ (s_addr b) ~words:n;
        Array.blit d a m b n
    | S_copy_out (a, b, n) ->
        Aspace.copy_words_tracked ~src:sp_ (s_addr a) ~dst:donor (s_addr b) ~words:n;
        Array.blit m a d b n
    | S_donor (w, vs) ->
        let a = Array.of_list vs in
        Aspace.write_words donor (s_addr w) (Aspace.words_of_fn (Array.length a) (Array.get a));
        store_list (Array.set d) w vs
    | S_share k ->
        let w = k * Addr.words_per_page in
        Aspace.copy_words ~src:donor (s_page k) ~dst:sp_ (s_page k) ~words:Addr.words_per_page;
        Aspace.share_page ~src:donor (s_page k) ~dst:sp_ (s_page k);
        Array.blit d w m w Addr.words_per_page
    | S_clone ->
        parents := (sp_, Array.copy m) :: !parents;
        sp := Aspace.clone sp_
    | S_restore (k, fresh) ->
        let ps = List.nth (Aspace.page_states sp_) k in
        Aspace.restore_page_state sp_
          (if fresh then
             { ps with Aspace.ps_last_write_seq = 0; ps_touched = false; ps_inherited = false }
           else ps)
  in
  List.for_all
    (fun op ->
      step op;
      s_readers_agree !sp m probe [ (donor, d) ]
      && read_each donor s_base ~words:s_words = d
      && List.for_all (fun (p, pm) -> read_each p s_base ~words:s_words = pm) !parents)
    ops

let prop_sparse_model =
  QCheck.Test.make ~name:"every reader answers from the words, sparse or not" ~count:200
    (QCheck.make
       ~print:(fun (ops, (w, n)) ->
         Printf.sprintf "[%s] probe %d x%d" (String.concat "; " (List.map show_s_op ops)) w n)
       QCheck.Gen.(
         pair
           (list_size (int_range 1 30) s_op_gen)
           (s_word_gen >>= fun w -> int_bound (s_words - w) >|= fun n -> (w, n))))
    (fun (ops, probe) -> s_run ops probe)

(* Host words a page costs beyond an untouched page's one, by
   [Obj.reachable_words] of a space of [pages] such pages against an
   untouched space of as many. *)
let s_page_cost ~pages store =
  let untouched = Aspace.create () and sp = Aspace.create () in
  let size = pages * Addr.page_size in
  let base = Aspace.map untouched (Aspace.Near Region.Heap) ~size Region.Heap in
  ignore (Aspace.map sp (Aspace.Fixed base) ~size Region.Heap);
  for k = 0 to pages - 1 do
    store sp (Addr.add base (k * Addr.page_size))
  done;
  float_of_int (Obj.reachable_words (Obj.repr sp) - Obj.reachable_words (Obj.repr untouched))
  /. float_of_int pages

(* A page holding 8 non-zero words costs tens of host words, as a process
   that has exited costs a few dozen (test_simos); a page holding a
   non-zero word in each of its 512 still costs its 4 KiB. *)
let test_sparse_page_cost () =
  let pages = 256 in
  let sparse =
    s_page_cost ~pages (fun sp page ->
        for j = 0 to 7 do
          Aspace.write_word sp (Addr.add_words page (j * 61)) (j + 1)
        done)
  in
  if sparse > 40. then Alcotest.failf "%.1f host words per 8-word page, want at most 40" sparse;
  let full =
    s_page_cost ~pages (fun sp page ->
        Aspace.write_words sp page (Aspace.words_of_fn Addr.words_per_page (fun j -> j + 1)))
  in
  if full < float_of_int Addr.words_per_page then
    Alcotest.failf "%.1f host words per full page, want at least %d" full Addr.words_per_page

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "mcr_vmem"
    [
      ( "addr",
        [
          Alcotest.test_case "alignment" `Quick test_addr_alignment;
          Alcotest.test_case "pages" `Quick test_addr_pages;
          Alcotest.test_case "arithmetic" `Quick test_addr_arith;
          qt prop_align_up_idempotent;
        ] );
      ( "region",
        [
          Alcotest.test_case "contains" `Quick test_region_contains;
          Alcotest.test_case "overlaps" `Quick test_region_overlaps;
        ] );
      ( "aspace-map",
        [
          Alcotest.test_case "map read write" `Quick test_map_read_write;
          Alcotest.test_case "fixed placement" `Quick test_map_fixed;
          Alcotest.test_case "fixed overlap rejected" `Quick test_map_fixed_overlap_rejected;
          Alcotest.test_case "near placement avoids overlap" `Quick test_map_near_no_overlap;
          Alcotest.test_case "unmap" `Quick test_unmap;
          Alcotest.test_case "fault on unmapped" `Quick test_fault_on_unmapped;
          Alcotest.test_case "fault on unaligned" `Quick test_fault_on_unaligned;
          Alcotest.test_case "null never mapped" `Quick test_null_never_mapped;
          Alcotest.test_case "find region" `Quick test_find_region;
          Alcotest.test_case "layout bias" `Quick test_layout_bias_shifts_placement;
          qt prop_write_read_roundtrip;
        ] );
      ( "soft-dirty",
        [
          Alcotest.test_case "basics" `Quick test_soft_dirty_basics;
          Alcotest.test_case "untracked writes" `Quick test_soft_dirty_untracked_write;
          Alcotest.test_case "epochs" `Quick test_soft_dirty_epoch;
          Alcotest.test_case "reads do not dirty" `Quick test_reads_do_not_dirty;
          qt prop_dirty_iff_written;
        ] );
      ( "epochs",
        [
          Alcotest.test_case "named epochs independent" `Quick test_named_epochs_independent;
          Alcotest.test_case "absent epoch semantics" `Quick
            test_epoch_never_created_sees_everything;
          Alcotest.test_case "legacy shims are the startup epoch" `Quick
            test_legacy_shims_are_startup_epoch;
        ] );
      ( "share-cow",
        [
          Alcotest.test_case "share_page counts and content" `Quick test_share_page_and_counts;
          Alcotest.test_case "COW isolates both sides" `Quick test_share_page_cow_isolates;
          Alcotest.test_case "unmap sharer leaves survivor private" `Quick
            test_unmap_sharer_leaves_survivor_private;
          Alcotest.test_case "misaligned share rejected" `Quick
            test_share_page_rejects_misaligned;
          Alcotest.test_case "unmap releases shared ref" `Quick test_unmap_shared_releases_ref;
          Alcotest.test_case "inherited taint" `Quick test_mark_inherited_survives_tracking;
        ] );
      ( "clone-copy",
        [
          Alcotest.test_case "clone is deep" `Quick test_clone_deep;
          Alcotest.test_case "copy words across spaces" `Quick test_copy_words_across_spaces;
          Alcotest.test_case "resident bytes" `Quick test_resident_bytes;
          qt prop_zero_page_model;
          qt prop_zero_fill_lockstep;
          qt prop_zero_untracked_lockstep;
          qt prop_iter_nonzero_lockstep;
          qt prop_pages_equal_lockstep;
          qt prop_write_bytes_lockstep;
          qt prop_read_bytes_lockstep;
          Alcotest.test_case "all-zero bytes keep the zero array" `Quick
            test_write_bytes_zero_run;
          Alcotest.test_case "byte ranges outside the buffer rejected" `Quick
            test_bytes_range_checks;
          Alcotest.test_case "recycled page arrays are isolated" `Quick
            test_recycled_arrays_are_isolated;
        ] );
      ("nonzero", [ qt prop_fold_nonzero_runs ]);
      ( "pristine",
        [
          qt prop_pristine_model;
          Alcotest.test_case "an untouched page costs one word" `Quick test_untouched_page_word;
          Alcotest.test_case "a restored fresh page costs one word" `Quick test_restored_page_word;
        ] );
      ("canonical", [ qt prop_canonical_pages ]);
      ( "sparse",
        [
          qt prop_sparse_model;
          Alcotest.test_case "an 8-word page costs tens of words" `Quick test_sparse_page_cost;
        ] );
      ( "template",
        [
          qt prop_write_words_lockstep;
          Alcotest.test_case "unaligned, shared and zero runs" `Quick test_write_words_edges;
        ] );
    ]
