(* Tests for Mcr_alloc: heap allocator with in-band tags, global
   reallocation, startup separability, pools, slabs, site registry. *)

open Mcr_alloc
module Aspace = Mcr_vmem.Aspace
module Addr = Mcr_vmem.Addr
module Region = Mcr_vmem.Region

let fresh_heap ?(instrumented = true) ?(size = 64 * 1024) () =
  let sp = Aspace.create () in
  (sp, Heap.create sp ~instrumented ~name:"heap" ~size ())

(* ------------------------------------------------------------------ *)
(* Heap basics *)

let test_malloc_returns_zeroed () =
  let sp, h = fresh_heap () in
  let a = Heap.malloc h 8 in
  for i = 0 to 7 do
    Alcotest.(check int) "zeroed" 0 (Aspace.read_word sp (Addr.add_words a i))
  done

let test_malloc_distinct_blocks () =
  let _, h = fresh_heap () in
  let a = Heap.malloc h 4 and b = Heap.malloc h 4 in
  Alcotest.(check bool) "disjoint" true (abs (a - b) >= 4 * Addr.word_size)

let test_malloc_tags_recorded () =
  let _, h = fresh_heap () in
  let a = Heap.malloc h ~ty_id:7 ~site:3 ~callstack:12345 5 in
  match Heap.block_of_payload h a with
  | Some b ->
      Alcotest.(check int) "ty" 7 b.Heap.ty_id;
      Alcotest.(check int) "site" 3 b.Heap.site;
      Alcotest.(check int) "callstack" 12345 b.Heap.callstack;
      Alcotest.(check int) "words" 5 b.Heap.words;
      Alcotest.(check bool) "instrumented" true b.Heap.instrumented;
      Alcotest.(check bool) "startup flag during startup" true b.Heap.startup
  | None -> Alcotest.fail "block not found"

let test_uninstrumented_blocks_untagged () =
  let _, h = fresh_heap ~instrumented:false () in
  let a = Heap.malloc h ~ty_id:7 ~site:3 5 in
  match Heap.block_of_payload h a with
  | Some b ->
      Alcotest.(check bool) "not instrumented" false b.Heap.instrumented;
      Alcotest.(check int) "no type" 0 b.Heap.ty_id
  | None -> Alcotest.fail "block not found"

let test_free_and_reuse () =
  let _, h = fresh_heap () in
  Heap.end_startup h;
  let a = Heap.malloc h 16 in
  Heap.free h a;
  let b = Heap.malloc h 16 in
  Alcotest.(check int) "address reused after startup" a b

let test_free_foreign_rejected () =
  let _, h = fresh_heap () in
  Alcotest.(check bool) "foreign free raises" true
    (try
       Heap.free h 0x10;
       false
     with Invalid_argument _ -> true)

let test_double_free_rejected () =
  let _, h = fresh_heap () in
  Heap.end_startup h;
  let a = Heap.malloc h 4 in
  Heap.free h a;
  Alcotest.(check bool) "double free raises" true
    (try
       Heap.free h a;
       false
     with Invalid_argument _ -> true)

let test_out_of_memory () =
  let _, h = fresh_heap ~size:4096 () in
  Alcotest.check_raises "oom" Heap.Out_of_memory (fun () ->
      ignore (Heap.malloc h 4096))

let test_coalescing_allows_large_realloc () =
  let _, h = fresh_heap ~size:4096 () in
  Heap.end_startup h;
  (* fill the heap with small blocks, free all, then allocate one large *)
  let blocks = ref [] in
  (try
     while true do
       blocks := Heap.malloc h 16 :: !blocks
     done
   with Heap.Out_of_memory -> ());
  Alcotest.(check bool) "filled" true (List.length !blocks > 10);
  List.iter (Heap.free h) !blocks;
  let big = Heap.malloc h 400 in
  Alcotest.(check bool) "large alloc after coalescing" true (big > 0)

(* ------------------------------------------------------------------ *)
(* Startup separability (deferred frees) *)

let test_startup_free_deferred () =
  let _, h = fresh_heap () in
  let a = Heap.malloc h 8 in
  Heap.free h a;
  (* quarantined, not live, but the address cannot be reused yet *)
  Alcotest.(check bool) "not live after free" true (Heap.block_of_payload h a = None);
  let b = Heap.malloc h 8 in
  Alcotest.(check bool) "no startup-time address reuse" true (a <> b)

let test_end_startup_releases_quarantine () =
  let _, h = fresh_heap ~size:4096 () in
  let a = Heap.malloc h 100 in
  Heap.free h a;
  Heap.end_startup h;
  (* after startup the quarantined block is genuinely free again *)
  let c = Heap.malloc h 100 in
  Alcotest.(check int) "address available again" a c

let test_startup_flag_cleared_after_startup () =
  let _, h = fresh_heap () in
  Heap.end_startup h;
  let a = Heap.malloc h 4 in
  match Heap.block_of_payload h a with
  | Some b -> Alcotest.(check bool) "no startup flag" false b.Heap.startup
  | None -> Alcotest.fail "block not found"

(* ------------------------------------------------------------------ *)
(* Global reallocation (malloc_at) *)

let test_malloc_at_exact_address () =
  let sp, h = fresh_heap () in
  (* allocate in one heap, record the address, re-create in a fresh heap *)
  let a = Heap.malloc h 10 in
  let h2 = Heap.create sp ~instrumented:true ~name:"heap2" ~size:(64 * 1024) () in
  let a2_equiv = Heap.base h2 + (a - Heap.base h) in
  Heap.malloc_at h2 ~at:a2_equiv 10;
  match Heap.block_of_payload h2 a2_equiv with
  | Some b -> Alcotest.(check int) "payload at requested address" a2_equiv b.Heap.payload
  | None -> Alcotest.fail "block not recreated"

let test_malloc_at_splits_free_space () =
  let _, h = fresh_heap () in
  let at = Addr.add_words (Heap.base h) 100 in
  Heap.malloc_at h ~at 5;
  (* the allocator must still be able to allocate before and after *)
  let before = Heap.malloc h 20 in
  Alcotest.(check bool) "prefix usable" true (before < at);
  let blocks = ref 0 in
  Heap.iter_live h (fun _ -> incr blocks);
  Alcotest.(check int) "two live blocks" 2 !blocks

let test_malloc_at_overlap_rejected () =
  let _, h = fresh_heap () in
  let a = Heap.malloc h 10 in
  Alcotest.(check bool) "overlap rejected" true
    (try
       Heap.malloc_at h ~at:(Addr.add_words a 2) 4;
       false
     with Invalid_argument _ -> true)

let test_malloc_at_multiple_disjoint () =
  let _, h = fresh_heap () in
  let base = Heap.base h in
  let addrs = List.map (fun i -> Addr.add_words base (50 + (i * 20))) [ 0; 1; 2; 3 ] in
  List.iter (fun at -> Heap.malloc_at h ~at 8) addrs;
  List.iter
    (fun at ->
      match Heap.block_of_payload h at with
      | Some b -> Alcotest.(check int) "exact" at b.Heap.payload
      | None -> Alcotest.fail "missing block")
    addrs

(* A placement that would leave a one-word gap fails before it writes a
   header, so the free block it was tried in stays intact. *)
let test_malloc_at_gap_leaves_heap_valid () =
  let _, h = fresh_heap ~size:4096 () in
  let words = 4 in
  let at = Addr.add_words (Heap.limit h) (-(words + 1)) in
  Alcotest.check_raises "one-word suffix gap"
    (Invalid_argument "Heap.malloc_at: leaves unusable one-word suffix gap") (fun () ->
      Heap.malloc_at h ~at words);
  Alcotest.(check bool) "heap still valid" true (Heap.validate h = Ok ());
  Alcotest.(check bool) "free block intact" true (Heap.malloc h 400 = Addr.add_words (Heap.base h) 3)

(* [validate] names a free index that no longer matches the headers, and
   [refresh] rebuilds it from them. *)
let test_validate_checks_free_index () =
  let sp, h = fresh_heap () in
  Heap.end_startup h;
  let a = Heap.malloc h 8 in
  ignore (Heap.malloc h 8);
  (* rewrite [a]'s header as a free 11-word block behind the heap's back *)
  let free_header = ((11 - 1) lsl 3) lor (0xA10C lsl 40) in
  Aspace.write_word sp (Addr.add_words a (-3)) free_header;
  Alcotest.(check bool) "stale index named" true
    (Heap.validate h = Error "free index differs from the free headers");
  Heap.refresh h;
  Alcotest.(check bool) "valid after refresh" true (Heap.validate h = Ok ())

(* ------------------------------------------------------------------ *)
(* Walking and containment *)

let test_iter_live_visits_all () =
  let _, h = fresh_heap () in
  let allocated = List.init 10 (fun i -> Heap.malloc h (i + 1)) in
  let seen = ref [] in
  Heap.iter_live h (fun b -> seen := b.Heap.payload :: !seen);
  Alcotest.(check (list int)) "all live blocks visited" (List.sort compare allocated)
    (List.sort compare !seen)

let test_block_containing_interior () =
  let _, h = fresh_heap () in
  let a = Heap.malloc h 10 in
  (match Heap.block_containing h (Addr.add_words a 5) with
  | Some b -> Alcotest.(check int) "interior resolves to payload" a b.Heap.payload
  | None -> Alcotest.fail "interior pointer unresolved");
  Alcotest.(check bool) "header addr is not payload" true
    (Heap.block_containing h (Addr.add_words a (-1)) = None)

let test_live_and_metadata_words () =
  let _, h = fresh_heap () in
  let _ = Heap.malloc h 10 in
  let _ = Heap.malloc h 20 in
  Alcotest.(check int) "live words" 30 (Heap.live_words h);
  Alcotest.(check int) "metadata words (2 x 3-word headers)" 6 (Heap.metadata_words h)

let test_stats_counters () =
  let _, h = fresh_heap () in
  Heap.end_startup h;
  let a = Heap.malloc h 4 in
  let _ = Heap.malloc h 4 in
  Heap.free h a;
  let s = Heap.stats h in
  Alcotest.(check int) "allocs" 2 s.Heap.allocs;
  Alcotest.(check int) "frees" 1 s.Heap.frees;
  Alcotest.(check int) "tag words" 4 s.Heap.tag_words

let prop_malloc_free_random =
  QCheck.Test.make ~name:"random malloc/free keeps heap consistent" ~count:60
    QCheck.(list_of_size Gen.(int_range 1 60) (int_range 1 40))
    (fun sizes ->
      let _, h = fresh_heap ~size:(256 * 1024) () in
      Heap.end_startup h;
      let live = ref [] in
      List.iteri
        (fun i w ->
          if i mod 3 = 2 && !live <> [] then begin
            (* free the oldest live block *)
            match List.rev !live with
            | oldest :: _ ->
                Heap.free h oldest;
                live := List.filter (( <> ) oldest) !live
            | [] -> ()
          end
          else live := Heap.malloc h w :: !live)
        sizes;
      (* every live payload must be found by iteration, counts match, and
         the in-band structure validates *)
      let seen = ref [] in
      Heap.iter_live h (fun b -> seen := b.Heap.payload :: !seen);
      List.sort compare !seen = List.sort compare !live && Heap.validate h = Ok ())

(* ------------------------------------------------------------------ *)
(* Pool allocator *)

let test_pool_bump_allocates_within_chunk () =
  let _, h = fresh_heap () in
  let p = Pool.create h ~name:"p" () in
  let a = Pool.palloc p 4 in
  let b = Pool.palloc p 4 in
  Alcotest.(check int) "bump allocation is contiguous" (Addr.add_words a 4) b

let test_pool_grabs_new_chunk () =
  let _, h = fresh_heap () in
  let p = Pool.create h ~chunk_words:16 ~name:"p" () in
  let _ = Pool.palloc p 10 in
  let _ = Pool.palloc p 10 in
  Alcotest.(check int) "two chunks" 2 (List.length (Pool.chunk_extents p))

let test_pool_uninstrumented_has_no_objects () =
  let _, h = fresh_heap () in
  let p = Pool.create h ~name:"p" () in
  let _ = Pool.palloc p 8 in
  let n = ref 0 in
  Pool.iter_objects p (fun _ -> incr n);
  Alcotest.(check int) "no tagged objects" 0 !n

let test_pool_instrumented_objects_tagged () =
  let _, h = fresh_heap () in
  let p = Pool.create h ~instrument:true ~name:"p" () in
  let a = Pool.palloc p ~ty_id:9 ~site:2 6 in
  let found = ref None in
  Pool.iter_objects p (fun b -> if b.Heap.payload = a then found := Some b);
  match !found with
  | Some b ->
      Alcotest.(check int) "ty" 9 b.Heap.ty_id;
      Alcotest.(check int) "words" 6 b.Heap.words
  | None -> Alcotest.fail "tagged pool object not found"

let test_pool_destroy_returns_chunks () =
  let _, h = fresh_heap () in
  Heap.end_startup h;
  let before = Heap.live_words h in
  let p = Pool.create h ~chunk_words:64 ~name:"p" () in
  let _ = Pool.palloc p 10 in
  Pool.destroy p;
  Alcotest.(check int) "heap back to baseline" before (Heap.live_words h);
  Alcotest.(check bool) "use after destroy raises" true
    (try
       ignore (Pool.palloc p 1);
       false
     with Invalid_argument _ -> true)

let test_pool_nested_destroyed_with_parent () =
  let _, h = fresh_heap () in
  Heap.end_startup h;
  let before = Heap.live_words h in
  let parent = Pool.create h ~chunk_words:64 ~name:"parent" () in
  let child = Pool.create h ~parent ~chunk_words:64 ~name:"child" () in
  let _ = Pool.palloc child 5 in
  Alcotest.(check int) "one child" 1 (List.length (Pool.children parent));
  Pool.destroy parent;
  Alcotest.(check int) "all chunks returned" before (Heap.live_words h)

let test_pool_reset_keeps_first_chunk () =
  let _, h = fresh_heap () in
  let p = Pool.create h ~chunk_words:16 ~name:"p" () in
  let _ = Pool.palloc p 10 in
  let _ = Pool.palloc p 10 in
  Pool.reset p;
  Alcotest.(check int) "one chunk after reset" 1 (List.length (Pool.chunk_extents p));
  let a = Pool.palloc p 4 in
  Alcotest.(check bool) "usable after reset" true (a > 0)

let test_pool_oversized_request () =
  let _, h = fresh_heap () in
  let p = Pool.create h ~chunk_words:16 ~name:"p" () in
  let a = Pool.palloc p 100 in
  Alcotest.(check bool) "oversized served from dedicated chunk" true (a > 0)

(* ------------------------------------------------------------------ *)
(* Slab allocator *)

let test_slab_alloc_free_cycle () =
  let _, h = fresh_heap () in
  let s = Slab.create h ~slot_words:4 ~slots_per_chunk:8 ~name:"s" in
  let a = Slab.alloc s in
  let b = Slab.alloc s in
  Alcotest.(check bool) "distinct slots" true (a <> b);
  Alcotest.(check int) "live" 2 (Slab.live_slots s);
  Slab.free s a;
  Alcotest.(check int) "live after free" 1 (Slab.live_slots s);
  let c = Slab.alloc s in
  Alcotest.(check int) "LIFO reuse" a c

let test_slab_grows () =
  let _, h = fresh_heap () in
  let s = Slab.create h ~slot_words:2 ~slots_per_chunk:4 ~name:"s" in
  let slots = List.init 10 (fun _ -> Slab.alloc s) in
  Alcotest.(check int) "all live" 10 (Slab.live_slots s);
  Alcotest.(check bool) "all distinct" true
    (List.length (List.sort_uniq compare slots) = 10);
  Alcotest.(check int) "grew to 3 chunks" 3 (List.length (Slab.chunk_extents s))

let test_slab_free_foreign_rejected () =
  let _, h = fresh_heap () in
  let s = Slab.create h ~slot_words:4 ~slots_per_chunk:4 ~name:"s" in
  Alcotest.(check bool) "foreign rejected" true
    (try
       Slab.free s 0x10;
       false
     with Invalid_argument _ -> true)

let test_slab_slot_base_interior () =
  let _, h = fresh_heap () in
  let s = Slab.create h ~slot_words:4 ~slots_per_chunk:4 ~name:"s" in
  let a = Slab.alloc s in
  Alcotest.(check (option int)) "interior resolves" (Some a)
    (Slab.slot_base s (Addr.add_words a 3))

let test_slab_freelist_leaves_stale_pointer () =
  (* The free-list link is written into the slot itself: after free, the
     slot's first word holds a heap address — the liveness-accuracy hazard. *)
  let sp, h = fresh_heap () in
  let s = Slab.create h ~slot_words:4 ~slots_per_chunk:4 ~name:"s" in
  let a = Slab.alloc s in
  let b = Slab.alloc s in
  Slab.free s a;
  Slab.free s b;
  Alcotest.(check int) "b links to a" a (Aspace.read_word sp b)

(* ------------------------------------------------------------------ *)
(* Reused blocks come back zeroed

   Each allocator gets back a block whose payload was dirtied and freed.
   The payload spans a page boundary so zeroing crosses page runs, and the
   write sequence must advance by one per zeroed word, as one tracked store
   per word would. *)

let scribble sp a words =
  for i = 0 to words - 1 do
    Aspace.write_word sp (Addr.add_words a i) (i + 1)
  done

let check_zeroed sp a words =
  Alcotest.(check bool) "payload all zero" true
    (List.for_all (fun i -> Aspace.read_word sp (Addr.add_words a i) = 0) (List.init words Fun.id))

let test_heap_reuse_zeroed () =
  let sp, h = fresh_heap ~instrumented:false () in
  Heap.end_startup h;
  let a = Heap.malloc h 700 in
  ignore (Heap.malloc h 1 : Addr.t);
  scribble sp a 700;
  Heap.free h a;
  let seq = Aspace.write_seq sp in
  let b = Heap.malloc h 700 in
  Alcotest.(check int) "block reused" a b;
  check_zeroed sp b 700;
  (* besides the payload: the free header re-stamped by coalescing and the
     allocated header *)
  Alcotest.(check int) "one write per payload word" (700 + 2) (Aspace.write_seq sp - seq)

let test_pool_reuse_zeroed () =
  let sp, h = fresh_heap () in
  let p = Pool.create h ~chunk_words:1024 ~name:"p" () in
  let a = Pool.palloc p 700 in
  scribble sp a 700;
  Pool.reset p;
  let seq = Aspace.write_seq sp in
  let b = Pool.palloc p 700 in
  Alcotest.(check int) "block reused" a b;
  check_zeroed sp b 700;
  Alcotest.(check int) "one write per payload word" 700 (Aspace.write_seq sp - seq)

let test_slab_reuse_zeroed () =
  let sp, h = fresh_heap () in
  let s = Slab.create h ~slot_words:600 ~slots_per_chunk:2 ~name:"s" in
  let a = Slab.alloc s in
  scribble sp a 600;
  Slab.free s a;
  let seq = Aspace.write_seq sp in
  let b = Slab.alloc s in
  Alcotest.(check int) "slot reused" a b;
  check_zeroed sp b 600;
  Alcotest.(check int) "one write per payload word" 600 (Aspace.write_seq sp - seq)

(* ------------------------------------------------------------------ *)
(* Sites *)

let test_sites_stable_ids () =
  let t = Sites.create () in
  let id1 = Sites.register t ~label:"server_init:conf" ~ty_id:4 in
  let id2 = Sites.register t ~label:"server_init:conf" ~ty_id:4 in
  Alcotest.(check int) "same label same id" id1 id2;
  let id3 = Sites.register t ~label:"handle_event:node" ~ty_id:5 in
  Alcotest.(check bool) "distinct labels distinct ids" true (id1 <> id3);
  Alcotest.(check int) "count" 2 (Sites.count t)

let test_sites_update_changes_type () =
  let t = Sites.create () in
  let id = Sites.register t ~label:"x" ~ty_id:1 in
  let id' = Sites.register t ~label:"x" ~ty_id:2 in
  Alcotest.(check int) "id stable across update" id id';
  Alcotest.(check int) "type updated" 2 (Sites.find t id).Sites.ty_id

(* Every [Api.malloc] registers its site, so a repeated registration must
   leave the registry as it was, the site record included, and allocate
   nothing. *)
let test_sites_repeat_is_a_no_op () =
  let t = Sites.create () in
  let id = Sites.register t ~label:"handle_event:node" ~ty_id:5 in
  let other = Sites.register t ~label:"server_init:conf" ~ty_id:4 in
  let site = Sites.find t id in
  let words = Gc.minor_words () in
  for _ = 1 to 1_000 do
    ignore (Sites.register t ~label:"handle_event:node" ~ty_id:5)
  done;
  let allocated = Gc.minor_words () -. words in
  Alcotest.(check int) "same id" id (Sites.register t ~label:"handle_event:node" ~ty_id:5);
  Alcotest.(check int) "count unchanged" 2 (Sites.count t);
  Alcotest.(check bool) "the same site record" true (Sites.find t id == site);
  Alcotest.(check int) "the other site untouched" 4 (Sites.find t other).Sites.ty_id;
  if allocated > 100. then Alcotest.failf "1000 repeated registrations allocated %.0f words" allocated

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "mcr_alloc"
    [
      ( "heap",
        [
          Alcotest.test_case "malloc zeroed" `Quick test_malloc_returns_zeroed;
          Alcotest.test_case "distinct blocks" `Quick test_malloc_distinct_blocks;
          Alcotest.test_case "tags recorded" `Quick test_malloc_tags_recorded;
          Alcotest.test_case "uninstrumented untagged" `Quick test_uninstrumented_blocks_untagged;
          Alcotest.test_case "free and reuse" `Quick test_free_and_reuse;
          Alcotest.test_case "foreign free rejected" `Quick test_free_foreign_rejected;
          Alcotest.test_case "double free rejected" `Quick test_double_free_rejected;
          Alcotest.test_case "out of memory" `Quick test_out_of_memory;
          Alcotest.test_case "coalescing" `Quick test_coalescing_allows_large_realloc;
          qt prop_malloc_free_random;
        ] );
      ( "separability",
        [
          Alcotest.test_case "startup frees deferred" `Quick test_startup_free_deferred;
          Alcotest.test_case "end_startup releases quarantine" `Quick
            test_end_startup_releases_quarantine;
          Alcotest.test_case "startup flag cleared" `Quick test_startup_flag_cleared_after_startup;
        ] );
      ( "global-reallocation",
        [
          Alcotest.test_case "exact address" `Quick test_malloc_at_exact_address;
          Alcotest.test_case "splits free space" `Quick test_malloc_at_splits_free_space;
          Alcotest.test_case "overlap rejected" `Quick test_malloc_at_overlap_rejected;
          Alcotest.test_case "multiple disjoint" `Quick test_malloc_at_multiple_disjoint;
          Alcotest.test_case "one-word gap leaves heap valid" `Quick
            test_malloc_at_gap_leaves_heap_valid;
        ] );
      ( "walking",
        [
          Alcotest.test_case "iter_live visits all" `Quick test_iter_live_visits_all;
          Alcotest.test_case "validate checks the free index" `Quick
            test_validate_checks_free_index;
          Alcotest.test_case "interior containment" `Quick test_block_containing_interior;
          Alcotest.test_case "live and metadata words" `Quick test_live_and_metadata_words;
          Alcotest.test_case "stats counters" `Quick test_stats_counters;
        ] );
      ( "pool",
        [
          Alcotest.test_case "bump within chunk" `Quick test_pool_bump_allocates_within_chunk;
          Alcotest.test_case "grabs new chunk" `Quick test_pool_grabs_new_chunk;
          Alcotest.test_case "uninstrumented no objects" `Quick
            test_pool_uninstrumented_has_no_objects;
          Alcotest.test_case "instrumented objects tagged" `Quick
            test_pool_instrumented_objects_tagged;
          Alcotest.test_case "destroy returns chunks" `Quick test_pool_destroy_returns_chunks;
          Alcotest.test_case "nested destroy" `Quick test_pool_nested_destroyed_with_parent;
          Alcotest.test_case "reset keeps first chunk" `Quick test_pool_reset_keeps_first_chunk;
          Alcotest.test_case "oversized request" `Quick test_pool_oversized_request;
        ] );
      ( "slab",
        [
          Alcotest.test_case "alloc/free cycle" `Quick test_slab_alloc_free_cycle;
          Alcotest.test_case "grows" `Quick test_slab_grows;
          Alcotest.test_case "foreign free rejected" `Quick test_slab_free_foreign_rejected;
          Alcotest.test_case "interior slot base" `Quick test_slab_slot_base_interior;
          Alcotest.test_case "freelist stale pointer" `Quick
            test_slab_freelist_leaves_stale_pointer;
        ] );
      ( "reuse-zeroed",
        [
          Alcotest.test_case "heap malloc" `Quick test_heap_reuse_zeroed;
          Alcotest.test_case "pool palloc" `Quick test_pool_reuse_zeroed;
          Alcotest.test_case "slab alloc" `Quick test_slab_reuse_zeroed;
        ] );
      ( "sites",
        [
          Alcotest.test_case "stable ids" `Quick test_sites_stable_ids;
          Alcotest.test_case "update changes type" `Quick test_sites_update_changes_type;
          Alcotest.test_case "a repeated registration is a no-op" `Quick
            test_sites_repeat_is_a_no_op;
        ] );
    ]
