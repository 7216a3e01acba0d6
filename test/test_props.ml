(* Property-based tests on MCR's core invariants (qcheck):
   - live updates preserve counters for arbitrary request interleavings;
   - mutable reinitialization replays arbitrary seeded startup sequences
     with zero conflicts and the program keeps serving afterwards;
   - transformation plans preserve same-named scalar fields under random
     struct evolutions, and are the identity on unchanged types;
   - page-aligned large allocations really are page-exclusive, and random
     malloc/free interleavings keep the heap walkable from in-band metadata;
   - first fit from the free index matches a walk over every header, store
     for store;
   - soft-dirty tracking reports exactly the pages written;
   - conservative scanning finds exactly the planted pointers. *)

module K = Mcr_simos.Kernel
module S = Mcr_simos.Sysdefs
module P = Mcr_program.Progdef
module Api = Mcr_program.Api
module Ty = Mcr_types.Ty
module Typlan = Mcr_types.Typlan
module Heap = Mcr_alloc.Heap
module Manager = Mcr_core.Manager
module Objgraph = Mcr_trace.Objgraph
module Listing1 = Mcr_servers.Listing1
module Aspace = Mcr_vmem.Aspace
module Addr = Mcr_vmem.Addr

(* ------------------------------------------------------------------ *)
(* End-to-end: counter continuity across an update *)

let serve kernel n =
  for _ = 1 to n do
    let p =
      K.spawn_process kernel ~image:(K.Fresh_image (Aspace.create ())) ~name:"c" ~entry:"main"
        ~main:(fun _ ->
          let rec connect k =
            match K.syscall (S.Connect { port = Listing1.port }) with
            | S.Ok_fd fd -> Some fd
            | S.Err S.ECONNREFUSED when k > 0 ->
                ignore (K.syscall (S.Nanosleep { ns = 1_000_000 }));
                connect (k - 1)
            | _ -> None
          in
          match connect 100 with
          | Some fd ->
              ignore (K.syscall (S.Write { fd; data = "GET /" }));
              ignore (K.syscall (S.Read { fd; max = 256; nonblock = false }))
          | None -> ())
        ()
    in
    ignore
      (K.run_until kernel ~max_ns:(K.clock_ns kernel + 60_000_000_000) (fun () -> not (K.alive p)))
  done

let count_of m =
  let image = Manager.root_image m in
  Aspace.read_word image.P.i_aspace
    (Mcr_types.Symtab.lookup image.P.i_symtab "count").Mcr_types.Symtab.addr

let prop_counter_continuity =
  QCheck.Test.make ~name:"request counter continuous across live update" ~count:8
    QCheck.(pair (int_range 0 6) (int_range 0 6))
    (fun (before, after) ->
      let kernel = K.create () in
      K.fs_write kernel ~path:Listing1.config_path "welcome=hi";
      let m = Manager.launch kernel (Listing1.v1 ()) in
      assert (Manager.wait_startup m ());
      serve kernel before;
      let m2, report = Manager.update m (Listing1.v2 ()) in
      serve kernel after;
      report.Manager.success && count_of m2 = before + after)

let prop_rollback_preserves_count =
  QCheck.Test.make ~name:"rollback leaves the counter exactly as it was" ~count:6
    QCheck.(int_range 0 5)
    (fun before ->
      let kernel = K.create () in
      K.fs_write kernel ~path:Listing1.config_path "welcome=hi";
      let m = Manager.launch kernel (Listing1.v1 ()) in
      assert (Manager.wait_startup m ());
      serve kernel before;
      let m', report = Manager.update m (Listing1.v2 ~variant:`Change_hidden ()) in
      (not report.Manager.success) && count_of m' = before)

(* ------------------------------------------------------------------ *)
(* Transformation plans under random struct evolution *)

let field_names = [| "a"; "b"; "c"; "d"; "e"; "f" |]

let gen_struct =
  QCheck.Gen.(
    let field = pair (oneofa field_names) (oneofl [ Ty.Int; Ty.Word ]) in
    list_size (int_range 1 6) field >|= fun fields ->
    (* unique names *)
    let seen = Hashtbl.create 8 in
    let fields =
      List.filter
        (fun (n, _) -> if Hashtbl.mem seen n then false else (Hashtbl.add seen n (); true))
        fields
    in
    Ty.Struct { sname = "s"; fields })

(* evolve: shuffle fields, drop some, add fresh ones *)
let gen_evolution =
  QCheck.Gen.(
    pair gen_struct (pair (int_range 0 100) (int_range 0 2)) >|= fun (s, (seed, extra)) ->
    match s with
    | Ty.Struct { fields; _ } ->
        let arr = Array.of_list fields in
        let rng = Mcr_util.Rng.create seed in
        Mcr_util.Rng.shuffle rng arr;
        let kept = Array.to_list arr in
        let added = List.init extra (fun i -> (Printf.sprintf "new%d" i, Ty.Int)) in
        (s, Ty.Struct { sname = "s"; fields = kept @ added })
    | _ -> assert false)

let prop_plan_preserves_named_fields =
  QCheck.Test.make ~name:"plans preserve same-named fields under evolution" ~count:300
    (QCheck.make gen_evolution) (fun (src, dst) ->
      let env = Ty.env_create () in
      match Typlan.plan ~src_env:env ~dst_env:env ~src ~dst with
      | Error _ -> false (* these evolutions are always plannable *)
      | Ok plan -> (
          match (src, dst) with
          | Ty.Struct { fields = sf; _ }, Ty.Struct { fields = df; _ } ->
              (* give every source field a distinctive value *)
              let src_vals =
                List.mapi (fun i (n, _) -> (n, 1000 + i)) sf
              in
              let src_words = Array.of_list (List.map snd src_vals) in
              let dst_words = Array.make plan.Typlan.dst_words (-1) in
              Typlan.apply plan ~read:(Array.get src_words)
                ~write:(Array.set dst_words);
              List.for_all2
                (fun (n, _) v ->
                  match List.assoc_opt n src_vals with
                  | Some expected -> v = expected (* survived field *)
                  | None -> v = 0 (* added field zeroed *))
                df
                (Array.to_list dst_words)
          | _ -> false))

(* ------------------------------------------------------------------ *)
(* Page-aligned large allocations *)

let prop_malloc_aligned =
  QCheck.Test.make ~name:"malloc_aligned yields page-exclusive payloads" ~count:100
    QCheck.(pair (int_range 256 2000) (int_range 0 20))
    (fun (big_words, small_allocs) ->
      let sp = Aspace.create () in
      let heap = Heap.create sp ~instrumented:true ~name:"h" ~size:(1 lsl 22) () in
      Heap.end_startup heap;
      (* interleave small allocations around the big one *)
      for _ = 1 to small_allocs do
        ignore (Heap.malloc heap 3)
      done;
      let big = Heap.malloc_aligned heap big_words in
      for _ = 1 to small_allocs do
        ignore (Heap.malloc heap 3)
      done;
      (* payload page-aligned, heap structurally valid, walk finds it *)
      Addr.page_offset big = 0
      && Heap.validate heap = Ok ()
      &&
      let found = ref false in
      Heap.iter_live heap (fun b -> if b.Heap.payload = big then found := true);
      !found)

let prop_aligned_block_never_shares_tail_page =
  QCheck.Test.make ~name:"subsequent allocations start after the aligned block's last page"
    ~count:100
    QCheck.(int_range 256 1500)
    (fun big_words ->
      let sp = Aspace.create () in
      let heap = Heap.create sp ~instrumented:true ~name:"h" ~size:(1 lsl 22) () in
      Heap.end_startup heap;
      let big = Heap.malloc_aligned heap big_words in
      let next = Heap.malloc heap 4 in
      let big_end = Addr.add_words big big_words in
      (* either the next allocation reused space before the block, or it
         starts past the block's extent — never inside it *)
      next >= big_end || next < big)

(* ------------------------------------------------------------------ *)
(* Conservative scanning: planted pointers are found, garbage is not *)

let prop_conservative_scan_exact =
  QCheck.Test.make ~name:"likely pointers = planted pointers" ~count:40
    QCheck.(pair (int_range 0 7) (int_range 0 100))
    (fun (planted, seed) ->
      (* a listing1 image whose opaque buffer b we fill manually *)
      let kernel = K.create () in
      K.fs_write kernel ~path:Listing1.config_path "welcome=hi";
      let m = Manager.launch kernel (Listing1.v1 ()) in
      assert (Manager.wait_startup m ());
      let image = Manager.root_image m in
      let aspace = image.P.i_aspace in
      let symtab = image.P.i_symtab in
      let b = (Mcr_types.Symtab.lookup symtab "b").Mcr_types.Symtab.addr in
      (* collect live heap objects to point at *)
      let a0 = Objgraph.analyze image in
      let heap_objs =
        List.filter (fun (o : Objgraph.obj) -> o.Objgraph.origin = Objgraph.O_heap)
          (Objgraph.reachable_objects a0)
      in
      let rng = Mcr_util.Rng.create seed in
      (* word 0: pointer or garbage depending on [planted] bit 0; word 1:
         likewise with bit 1 — garbage values are odd (unaligned) *)
      let fill slot bit =
        if planted land bit <> 0 && heap_objs <> [] then
          let target = Mcr_util.Rng.pick rng (Array.of_list heap_objs) in
          Aspace.write_word aspace (Addr.add_words b slot) target.Objgraph.addr
        else Aspace.write_word aspace (Addr.add_words b slot) ((Mcr_util.Rng.next rng * 2) + 1)
      in
      fill 0 1;
      fill 1 2;
      let a = Objgraph.analyze image in
      let expected = (if planted land 1 <> 0 then 1 else 0) + if planted land 2 <> 0 then 1 else 0 in
      (* at least the planted ones (the server's own state may add more) *)
      a.Objgraph.stats.Objgraph.likely.Objgraph.ptr
      >= expected
      && (expected > 0 || a.Objgraph.stats.Objgraph.likely.Objgraph.ptr = 0))

(* ------------------------------------------------------------------ *)
(* Transformation plans to the identical type are the identity *)

let prop_plan_identity =
  QCheck.Test.make ~name:"plan to the identical type is the identity" ~count:200
    (QCheck.make gen_struct) (fun src ->
      let env = Ty.env_create () in
      match Typlan.plan ~src_env:env ~dst_env:env ~src ~dst:src with
      | Error _ -> false
      | Ok plan -> (
          match src with
          | Ty.Struct { fields; _ } ->
              let n = List.length fields in
              let src_words = Array.init n (fun i -> 100 + i) in
              let dst_words = Array.make plan.Typlan.dst_words (-1) in
              Typlan.apply plan ~read:(Array.get src_words) ~write:(Array.set dst_words);
              plan.Typlan.dst_words = n
              && Array.to_list dst_words = Array.to_list src_words
          | _ -> false))

(* ------------------------------------------------------------------ *)
(* Soft-dirty tracking reports exactly the pages written *)

let prop_soft_dirty_exact =
  QCheck.Test.make ~name:"soft-dirty pages = exactly the pages written" ~count:200
    QCheck.(pair (int_range 1 24) (int_range 0 1_000_000))
    (fun (nwrites, seed) ->
      let sp = Aspace.create () in
      let pages = 64 in
      let base =
        Aspace.map sp ~name:"t" (Aspace.Near Mcr_vmem.Region.Heap)
          ~size:(pages * Addr.page_size) Mcr_vmem.Region.Heap
      in
      Aspace.epoch_reset sp ~name:"startup";
      let rng = Mcr_util.Rng.create seed in
      let tracked = Hashtbl.create 16 in
      (* tracked writes land in the low half of the region... *)
      for _ = 1 to nwrites do
        let p = Mcr_util.Rng.int rng (pages / 2) in
        let w = Mcr_util.Rng.int rng Addr.words_per_page in
        Aspace.write_word sp (Addr.add base ((p * Addr.page_size) + (w * Addr.word_size))) 7;
        Hashtbl.replace tracked (Addr.add base (p * Addr.page_size)) ()
      done;
      (* ...kernel-mediated writes in the high half must never show up *)
      for _ = 1 to nwrites do
        let p = (pages / 2) + Mcr_util.Rng.int rng (pages / 2) in
        Aspace.write_word_untracked sp (Addr.add base (p * Addr.page_size)) 9
      done;
      let expected =
        List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) tracked [])
      in
      Aspace.epoch_dirty_pages sp ~name:"startup" = expected
      && List.for_all (fun a -> Aspace.epoch_page_dirty sp ~name:"startup" a) expected
      &&
      (Aspace.epoch_reset sp ~name:"startup";
       Aspace.epoch_dirty_pages sp ~name:"startup" = []))

(* ------------------------------------------------------------------ *)
(* Random malloc/free interleavings keep the heap walkable and exact *)

let prop_heap_random_ops =
  QCheck.Test.make ~name:"random malloc/free keeps in-band metadata exact" ~count:150
    QCheck.(pair (int_range 1 120) (int_range 0 1_000_000))
    (fun (nops, seed) ->
      let sp = Aspace.create () in
      let heap = Heap.create sp ~instrumented:true ~name:"h" ~size:(1 lsl 20) () in
      Heap.end_startup heap;
      let rng = Mcr_util.Rng.create seed in
      let live = ref [] in
      let structurally_valid = ref true in
      for _ = 1 to nops do
        (if !live = [] || Mcr_util.Rng.int rng 3 > 0 then (
           let words = 1 + Mcr_util.Rng.int rng 40 in
           let p = Heap.malloc heap ~ty_id:1 ~site:2 ~callstack:3 words in
           live := (p, words) :: !live)
         else
           let p, _ = Mcr_util.Rng.pick rng (Array.of_list !live) in
           Heap.free heap p;
           live := List.filter (fun (q, _) -> q <> p) !live);
        if Heap.validate heap <> Ok () then structurally_valid := false
      done;
      (* walking the in-band headers rediscovers exactly the live payloads *)
      let found = ref [] in
      Heap.iter_live heap (fun b -> found := (b.Heap.payload, b.Heap.words) :: !found);
      !structurally_valid
      && List.sort compare (List.map fst !found) = List.sort compare (List.map fst !live)
      && List.for_all
           (fun (p, w) ->
             (* block sizes may round up (splinter absorption), never down,
                and interior pointers resolve to the right block *)
             match Heap.block_containing heap (Addr.add_words p (w - 1)) with
             | Some b -> b.Heap.payload = p && b.Heap.words >= w
             | None -> false)
           !live)

(* ------------------------------------------------------------------ *)
(* The free index chooses what the first-fit walk chose *)

(* Reference first fit: the walk from the heap base that reads every block
   header, allocated or free. [Heap] must choose the same blocks from its
   free index and issue the same tracked stores in the same order. The
   model writes the words only; callers resync the model heap's caches
   with [Heap.refresh] afterwards. *)
module Walk_model = struct
  let magic = 0xA10C

  let pack flags words = flags lor (words lsl 3) lor (magic lsl 40)

  let read h a =
    let w = Aspace.read_word (Heap.aspace h) a in
    if (w lsr 40) land 0xFFFF <> magic then invalid_arg "Heap: corrupted block header";
    (w land 7, (w lsr 3) land 0xFFFFFFFF)

  let hdr_words h = if Heap.instrumented h then 3 else 1
  let total flags words = (if flags land 3 = 3 then 3 else 1) + words
  let set_free h a total = Aspace.write_word (Heap.aspace h) a (pack 0 (total - 1))

  let coalesce h header =
    let flags, words = read h header in
    let rec absorb n =
      let next = Addr.add_words header n in
      if next >= Heap.limit h then n
      else
        let f, w = read h next in
        if f land 1 = 0 then absorb (n + total f w) else n
    in
    let n = absorb (total flags words) in
    set_free h header n;
    n

  let first_fit h ~fits ~take ~none =
    let rec walk header =
      if header >= Heap.limit h then none ()
      else
        let flags, words = read h header in
        if flags land 1 <> 0 then walk (Addr.add_words header (total flags words))
        else
          let n = coalesce h header in
          if fits header n then take header n else walk (Addr.add_words header n)
    in
    walk (Heap.base h)

  let allocate h header words =
    let sp = Heap.aspace h in
    let ins = Heap.instrumented h in
    let flags = 1 lor (if ins then 2 else 0) lor if Heap.in_startup h then 4 else 0 in
    Aspace.write_word sp header (pack flags words);
    if ins then begin
      Aspace.write_word sp (Addr.add_words header 1) (7 lor (9 lsl 24));
      Aspace.write_word sp (Addr.add_words header 2) 11
    end;
    let payload = Addr.add_words header (hdr_words h) in
    Aspace.zero_fill sp payload ~words;
    payload

  let malloc h words =
    let words = max 1 words and hdr = hdr_words h in
    first_fit h
      ~fits:(fun _ n -> n >= hdr + words)
      ~take:(fun header n ->
        if n - hdr - words >= 2 then begin
          set_free h (Addr.add_words header (hdr + words)) (n - hdr - words);
          allocate h header words
        end
        else allocate h header (n - hdr))
      ~none:(fun () -> raise Heap.Out_of_memory)

  (* [start, stop) is carved out of the free block [header, header + n) *)
  let carve h header n ~start ~stop ~gap =
    let prefix = (start - header) / Addr.word_size in
    let suffix = (Addr.add_words header n - stop) / Addr.word_size in
    if prefix = 1 then gap "prefix";
    if suffix = 1 then gap "suffix";
    if prefix >= 2 then set_free h header prefix;
    if suffix >= 2 then set_free h stop suffix;
    allocate h start ((stop - start) / Addr.word_size - hdr_words h)

  let malloc_aligned h words =
    let words = max 1 words and hdr = hdr_words h in
    let payload_in header =
      (Addr.add_words header (hdr + 2) + Addr.page_size - 1) land lnot (Addr.page_size - 1)
    in
    first_fit h
      ~fits:(fun header n -> Addr.add_words (payload_in header) words <= Addr.add_words header n)
      ~take:(fun header n ->
        let p = payload_in header in
        carve h header n ~start:(Addr.add_words p (-hdr)) ~stop:(Addr.add_words p words)
          ~gap:(fun _ -> raise Heap.Out_of_memory))
      ~none:(fun () -> raise Heap.Out_of_memory)

  let malloc_at h ~at words =
    let words = max 1 words in
    let start = Addr.add_words at (-hdr_words h) and stop = Addr.add_words at words in
    if start < Heap.base h || stop > Heap.limit h then
      invalid_arg "Heap.malloc_at: address outside heap";
    let fail what = invalid_arg (Format.asprintf "Heap.malloc_at: %a %s" Addr.pp at what) in
    first_fit h
      ~fits:(fun header n -> header >= stop || (start >= header && stop <= Addr.add_words header n))
      ~take:(fun header n ->
        if header >= stop then fail "overlaps a live block"
        else
          ignore
            (carve h header n ~start ~stop ~gap:(fun side ->
                 invalid_arg ("Heap.malloc_at: leaves unusable one-word " ^ side ^ " gap"))))
      ~none:(fun () -> fail "not inside a free block")
end

type heap_op =
  | Op_malloc of int
  | Op_aligned of int
  | Op_at of Addr.t * int
  | Op_free of Addr.t
  | Op_end_startup
  | Op_restart_startup
  | Op_refresh
  | Op_rebind

(* The stamp of the page holding [a]: the least mark it was not written
   after. *)
let page_stamp sp a =
  let rec search lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if Aspace.page_written_since sp a ~seq:mid then search (mid + 1) hi else search lo mid
  in
  search 0 (Aspace.write_seq sp)

let prop_heap_free_index_lockstep =
  QCheck.Test.make ~name:"free-index first fit matches the header walk" ~count:200
    QCheck.(triple (int_range 1 150) (int_range 0 1_000_000) bool)
    (fun (nops, seed, instrumented) ->
      let rng = Mcr_util.Rng.create seed in
      let pages = 8 in
      let make () =
        let sp = Aspace.create () in
        Heap.create sp ~instrumented ~name:"h" ~size:(pages * Addr.page_size) ()
      in
      let h = ref (make ()) and m = ref (make ()) in
      let live = ref [] and dead = ref [] in
      let size () =
        match Mcr_util.Rng.int rng 4 with
        | 0 -> 1 + Mcr_util.Rng.int rng 3
        | 1 -> 4 + Mcr_util.Rng.int rng 30
        | 2 -> 34 + Mcr_util.Rng.int rng 200
        | _ -> 234 + Mcr_util.Rng.int rng 600
      in
      let near () =
        Addr.add_words (Heap.base !h) (Mcr_util.Rng.int rng (pages * Addr.words_per_page))
      in
      let pick l = Mcr_util.Rng.pick rng (Array.of_list l) in
      let gen () =
        match Mcr_util.Rng.int rng 20 with
        | 0 | 1 | 2 | 3 | 4 | 5 -> Op_malloc (size ())
        | 6 -> Op_aligned (size ())
        | 7 | 8 | 9 ->
            (* a live payload overlaps; a freed or arbitrary word may fit *)
            let at =
              match Mcr_util.Rng.int rng 3 with
              | 0 when !live <> [] -> pick !live
              | 1 when !dead <> [] -> pick !dead
              | _ -> near ()
            in
            Op_at (at, 1 + Mcr_util.Rng.int rng 12)
        | 10 | 11 | 12 | 13 | 14 | 15 when !live <> [] -> Op_free (pick !live)
        | 16 -> Op_end_startup
        | 17 -> if Mcr_util.Rng.int rng 4 = 0 then Op_restart_startup else Op_refresh
        | 18 -> Op_rebind
        | _ -> Op_malloc (size ())
      in
      let run op =
        (* [first_fit] is the allocator under test: [Heap] or the model *)
        let apply (first_fit : Heap.t -> heap_op -> Addr.t) heap =
          match op with
          | Op_malloc _ | Op_aligned _ | Op_at _ -> first_fit heap op
          | Op_free p -> Heap.free heap p; p
          | Op_end_startup -> Heap.end_startup heap; 0
          | Op_restart_startup -> Heap.restart_startup heap; 0
          | Op_refresh -> Heap.refresh heap; 0
          | Op_rebind -> 0
        in
        let heap_fit heap = function
          | Op_malloc w -> Heap.malloc heap ~ty_id:7 ~site:9 ~callstack:11 w
          | Op_aligned w -> Heap.malloc_aligned heap ~ty_id:7 ~site:9 ~callstack:11 w
          | Op_at (at, w) -> Heap.malloc_at heap ~at ~ty_id:7 ~site:9 ~callstack:11 w; at
          | _ -> assert false
        in
        let model_fit heap op =
          Fun.protect ~finally:(fun () -> Heap.refresh heap) (fun () ->
              match op with
              | Op_malloc w -> Walk_model.malloc heap w
              | Op_aligned w -> Walk_model.malloc_aligned heap w
              | Op_at (at, w) -> Walk_model.malloc_at heap ~at w; at
              | _ -> assert false)
        in
        let outcome first_fit heap =
          match apply first_fit heap with
          | p -> Ok p
          | exception Heap.Out_of_memory -> Error "Out_of_memory"
          | exception Invalid_argument msg -> Error msg
        in
        let r = outcome heap_fit !h in
        let r' = outcome model_fit !m in
        (match op with
        | Op_rebind ->
            h := Heap.rebind !h (Aspace.clone (Heap.aspace !h));
            m := Heap.rebind !m (Aspace.clone (Heap.aspace !m))
        | _ -> ());
        (match (op, r) with
        | (Op_malloc _ | Op_aligned _ | Op_at _), Ok p ->
            live := p :: !live;
            dead := List.filter (( <> ) p) !dead
        | Op_free p, Ok _ ->
            live := List.filter (( <> ) p) !live;
            dead := p :: !dead
        | _ -> ());
        (r, r')
      in
      let snapshot heap =
        let sp = Heap.aspace heap in
        let words = pages * Addr.words_per_page in
        let buf = Bytes.create (words * Addr.word_size) in
        Aspace.read_bytes sp (Heap.base heap) ~words buf ~pos:0;
        let stamps =
          List.init pages (fun i -> page_stamp sp (Addr.add (Heap.base heap) (i * Addr.page_size)))
        in
        (Bytes.to_string buf, Aspace.write_seq sp, stamps)
      in
      let rec steps i =
        i > nops
        ||
        let op = gen () in
        let r, r' = run op in
        r = r' && snapshot !h = snapshot !m && Heap.validate !h = Ok () && steps (i + 1)
      in
      steps 1)

(* ------------------------------------------------------------------ *)
(* Mutable reinitialization replays arbitrary seeded startup sequences *)

let fuzz_port = 9100

(* A server whose startup performs a seeded-random sequence of recordable
   operations — transient config reads, persistent log files, extra bound
   sockets, dups, getpids — before settling into an accept loop. The same
   seed produces the same sequence in both versions, so replay must match
   every call and inherit every kept descriptor. *)
let fuzz_main ~seed ~tag t =
  Api.fn t "main" @@ fun () ->
  Api.fn t "fuzz_init" (fun () ->
      let rng = Mcr_util.Rng.create seed in
      let nops = 3 + Mcr_util.Rng.int rng 8 in
      let nport = ref 0 and nfile = ref 0 and kept = ref [] in
      for _ = 1 to nops do
        match Mcr_util.Rng.int rng 5 with
        | 0 ->
            (* transient config read: open / read / close *)
            let path = Printf.sprintf "/fuzz/cfg%d" !nfile in
            incr nfile;
            let fd = Api.sys_fd_exn t (S.Open { path; create = true }) in
            ignore (Api.sys t (S.Read { fd; max = 64; nonblock = false }));
            Api.sys_unit_exn t (S.Close { fd })
        | 1 ->
            (* log file held open across the update (immutable object) *)
            let path = Printf.sprintf "/fuzz/log%d" !nfile in
            incr nfile;
            let fd = Api.sys_fd_exn t (S.Open { path; create = true }) in
            ignore (Api.sys t (S.Write { fd; data = "boot" }));
            kept := fd :: !kept
        | 2 ->
            (* extra bound socket held open across the update *)
            let fd = Api.sys_fd_exn t S.Socket in
            Api.sys_unit_exn t (S.Bind { fd; port = 9200 + !nport });
            Api.sys_unit_exn t (S.Listen { fd; backlog = 4 });
            incr nport;
            kept := fd :: !kept
        | 3 -> ignore (Api.sys t S.Getpid)
        | _ ->
            (* data file held open across the update, never written *)
            let path = Printf.sprintf "/fuzz/data%d" !nfile in
            incr nfile;
            kept := Api.sys_fd_exn t (S.Open { path; create = true }) :: !kept
      done;
      (* stash the kept fds where state transfer can see them *)
      let fds = Api.global t "fds" in
      List.iteri (fun i fd -> Api.store t (Addr.add_words fds i) fd) (List.rev !kept);
      Api.store t (Api.global t "nfds") (List.length !kept);
      let sock = Api.sys_fd_exn t S.Socket in
      Api.sys_unit_exn t (S.Bind { fd = sock; port = fuzz_port });
      Api.sys_unit_exn t (S.Listen { fd = sock; backlog = 16 });
      Api.store t (Api.global t "sock") sock);
  let sock = Api.load t (Api.global t "sock") in
  Api.loop t "fuzz_loop" (fun () ->
      (match
         Api.fn t "fuzz_get_event" (fun () ->
             Api.blocking t ~qpoint:"fuzz_get_event" (S.Accept { fd = sock; nonblock = false }))
       with
      | S.Ok_fd conn ->
          (match Api.sys t (S.Read { fd = conn; max = 64; nonblock = false }) with
          | S.Ok_data _ ->
              let count = Api.load t (Api.global t "count") + 1 in
              Api.store t (Api.global t "count") count;
              ignore (Api.sys t (S.Write { fd = conn; data = Printf.sprintf "%s:%d" tag count }))
          | _ -> ());
          ignore (Api.sys t (S.Close { fd = conn }))
      | _ -> ());
      true)

let fuzz_version ~seed ~v2 () =
  P.make_version ~prog:"fuzzsrv"
    ~version_tag:(if v2 then "2.0" else "1.0")
    ~layout_bias:(if v2 then 512 else 0)
    ~tyenv:(Ty.env_create ())
    ~globals:
      [ ("fds", Ty.Array (Ty.Int, 16)); ("nfds", Ty.Int); ("sock", Ty.Int); ("count", Ty.Int) ]
    ~funcs:[ "main"; "fuzz_init"; "fuzz_get_event" ]
    ~strings:[]
    ~entries:[ ("main", fuzz_main ~seed ~tag:(if v2 then "v2" else "v1")) ]
    ~qpoints:[ ("fuzz_get_event", "accept") ]
    ()

let fuzz_request kernel =
  let reply = ref "NONE" in
  let p =
    K.spawn_process kernel ~image:(K.Fresh_image (Aspace.create ())) ~name:"c" ~entry:"main"
      ~main:(fun _ ->
        let rec connect k =
          match K.syscall (S.Connect { port = fuzz_port }) with
          | S.Ok_fd fd -> Some fd
          | S.Err S.ECONNREFUSED when k > 0 ->
              ignore (K.syscall (S.Nanosleep { ns = 1_000_000 }));
              connect (k - 1)
          | _ -> None
        in
        match connect 100 with
        | Some fd -> (
            ignore (K.syscall (S.Write { fd; data = "GET /" }));
            match K.syscall (S.Read { fd; max = 64; nonblock = false }) with
            | S.Ok_data d -> reply := d
            | _ -> ())
        | None -> ())
      ()
  in
  ignore
    (K.run_until kernel ~max_ns:(K.clock_ns kernel + 60_000_000_000) (fun () -> not (K.alive p)));
  !reply

let prop_replay_arbitrary_startup =
  QCheck.Test.make ~name:"replay matches arbitrary seeded startup sequences" ~count:25
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let kernel = K.create () in
      let m = Manager.launch kernel (fuzz_version ~seed ~v2:false ()) in
      assert (Manager.wait_startup m ());
      let r1 = fuzz_request kernel in
      let m2, report = Manager.update m (fuzz_version ~seed ~v2:true ()) in
      let r2 = fuzz_request kernel in
      ignore m2;
      (* zero conflicts, counter carried over, new version serving *)
      report.Manager.success && r1 = "v1:1" && r2 = "v2:2")

(* ------------------------------------------------------------------ *)
(* Kernel totality: random syscall sequences never crash the kernel *)

let gen_call =
  QCheck.Gen.(
    let fd = int_range 0 12 in
    oneof
      [
        return S.Socket;
        map2 (fun fd port -> S.Bind { fd; port }) fd (int_range 0 100);
        map (fun fd -> S.Listen { fd; backlog = 4 }) fd;
        map (fun fd -> S.Accept { fd; nonblock = true }) fd;
        map (fun port -> S.Connect { port }) (int_range 0 100);
        map (fun fd -> S.Read { fd; max = 16; nonblock = true }) fd;
        map2 (fun fd data -> S.Write { fd; data }) fd (string_size (int_range 0 8));
        map (fun fd -> S.Close { fd }) fd;
        map (fun path -> S.Open { path = "/" ^ path; create = true }) (string_size (int_range 0 4));
        map (fun fds -> S.Poll { fds; timeout_ns = Some 100; nonblock = false })
          (list_size (int_range 0 3) fd);
        return S.Getpid;
        map (fun pid -> S.Waitpid { pid }) (int_range 0 5);
        map (fun name -> S.Sem_wait { name; timeout_ns = Some 100 }) (oneofl [ "a"; "b" ]);
        map (fun key -> S.Shmget { key }) (int_range 0 3);
      ])

let prop_kernel_totality =
  QCheck.Test.make ~name:"random syscall sequences never crash the kernel" ~count:150
    (QCheck.make QCheck.Gen.(list_size (int_range 1 25) gen_call))
    (fun calls ->
      let kernel = K.create () in
      let crashed = ref false in
      let p =
        K.spawn_process kernel ~image:(K.Fresh_image (Aspace.create ())) ~name:"fuzz"
          ~entry:"main"
          ~main:(fun _ -> List.iter (fun c -> ignore (K.syscall c)) calls)
          ()
      in
      ignore (K.run_until kernel ~max_ns:(K.clock_ns kernel + 60_000_000_000)
                (fun () -> not (K.alive p)));
      (match K.exit_status p with Some 139 -> crashed := true | _ -> ());
      (* the process may be blocked forever (fine) but must never crash *)
      not !crashed)

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "mcr_props"
    [
      ( "end-to-end",
        [
          qt prop_counter_continuity;
          qt prop_rollback_preserves_count;
          qt prop_replay_arbitrary_startup;
        ] );
      ("typlan", [ qt prop_plan_preserves_named_fields; qt prop_plan_identity ]);
      ( "heap",
        [
          qt prop_malloc_aligned;
          qt prop_aligned_block_never_shares_tail_page;
          qt prop_heap_random_ops;
          qt prop_heap_free_index_lockstep;
        ] );
      ("vmem", [ qt prop_soft_dirty_exact ]);
      ("conservative", [ qt prop_conservative_scan_exact ]);
      ("kernel", [ qt prop_kernel_totality ]);
    ]
