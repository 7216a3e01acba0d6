module Addr = Mcr_vmem.Addr
module Aspace = Mcr_vmem.Aspace
module Region = Mcr_vmem.Region

(* Header word layout:
     bits 0..2   flags: 1 = allocated, 2 = instrumented, 4 = startup-time
     bits 3..34  payload size in words
     bits 40..55 magic (0xA10C), a walking sanity check
   Instrumented allocated blocks have two extra header words:
     word1 = ty_id lor (site lsl 24)
     word2 = call-stack id *)

let magic = 0xA10C
let flag_allocated = 1
let flag_instrumented = 2
let flag_startup = 4

let pack ~flags ~payload_words = flags lor (payload_words lsl 3) lor (magic lsl 40)

let unpack w =
  let m = (w lsr 40) land 0xFFFF in
  if m <> magic then invalid_arg "Heap: corrupted block header";
  (w land 7, (w lsr 3) land 0xFFFFFFFF)

type t = {
  aspace : Aspace.t;
  base : Addr.t;
  limit : Addr.t;
  instrumented : bool;
  by_payload : (Addr.t, Addr.t) Hashtbl.t; (* payload -> header, a cache *)
  mutable defer : bool;
  mutable startup_phase : bool;
  mutable quarantine : Addr.t list;
  stats : stats;
}

and stats = {
  mutable allocs : int;
  mutable frees : int;
  mutable tag_words : int;
}

type block = {
  header : Addr.t;
  payload : Addr.t;
  words : int;
  instrumented : bool;
  startup : bool;
  ty_id : int;
  site : int;
  callstack : int;
}

exception Out_of_memory

let write = Aspace.write_word

let init_free_header (t : t) addr total_words =
  write t.aspace addr (pack ~flags:0 ~payload_words:(total_words - 1))

let make aspace ~base ~size ~instrumented =
  let t =
    {
      aspace;
      base;
      limit = Addr.add base size;
      instrumented;
      by_payload = Hashtbl.create 256;
      defer = true;
      startup_phase = true;
      quarantine = [];
      stats = { allocs = 0; frees = 0; tag_words = 0 };
    }
  in
  init_free_header t base (size / Addr.word_size);
  t

let create aspace ?(kind = Region.Heap) ?(instrumented = true) ~name ~size () =
  let base = Aspace.map aspace ~name (Aspace.Near kind) ~size kind in
  (* map rounds the size up to whole pages; use the real extent *)
  let size = (size + Addr.page_size - 1) land lnot (Addr.page_size - 1) in
  make aspace ~base ~size ~instrumented

let of_region aspace ~base ~size ~instrumented = make aspace ~base ~size ~instrumented

let aspace (t : t) = t.aspace
let base (t : t) = t.base
let limit (t : t) = t.limit
let instrumented (t : t) = t.instrumented
let stats (t : t) = t.stats

let header_words_of_flags flags =
  if flags land flag_allocated <> 0 && flags land flag_instrumented <> 0 then 3 else 1

let read_block (t : t) header =
  let flags, payload_words = unpack (Aspace.read_word t.aspace header) in
  let hdr = header_words_of_flags flags in
  let payload = Addr.add_words header hdr in
  let instrumented = flags land flag_instrumented <> 0 in
  let ty_id, site, callstack =
    if instrumented then begin
      let w1 = Aspace.read_word t.aspace (Addr.add_words header 1) in
      let w2 = Aspace.read_word t.aspace (Addr.add_words header 2) in
      (w1 land 0xFFFFFF, w1 lsr 24, w2)
    end
    else (0, 0, 0)
  in
  ( flags,
    {
      header;
      payload;
      words = payload_words;
      instrumented;
      startup = flags land flag_startup <> 0;
      ty_id;
      site;
      callstack;
    } )

let total_words flags payload_words = header_words_of_flags flags + payload_words

let next_header (t : t) header =
  let flags, payload_words = unpack (Aspace.read_word t.aspace header) in
  Addr.add_words header (total_words flags payload_words)

(* Merge the run of free blocks starting at [header]; returns merged total. *)
let coalesce_at (t : t) header =
  let flags, payload_words = unpack (Aspace.read_word t.aspace header) in
  if flags land flag_allocated <> 0 then total_words flags payload_words
  else begin
    let total = ref (total_words flags payload_words) in
    let rec absorb () =
      let next = Addr.add_words header !total in
      if next < t.limit then begin
        let nflags, npayload = unpack (Aspace.read_word t.aspace next) in
        if nflags land flag_allocated = 0 then begin
          total := !total + total_words nflags npayload;
          absorb ()
        end
      end
    in
    absorb ();
    init_free_header t header !total;
    !total
  end

let write_allocated_header (t : t) header ~payload_words ~ty_id ~site ~callstack =
  let flags =
    flag_allocated
    lor (if t.instrumented then flag_instrumented else 0)
    lor if t.startup_phase then flag_startup else 0
  in
  write t.aspace header (pack ~flags ~payload_words);
  if t.instrumented then begin
    write t.aspace (Addr.add_words header 1) ((ty_id land 0xFFFFFF) lor (site lsl 24));
    write t.aspace (Addr.add_words header 2) callstack;
    t.stats.tag_words <- t.stats.tag_words + 2
  end;
  let payload = Addr.add_words header (header_words_of_flags flags) in
  Hashtbl.replace t.by_payload payload header;
  t.stats.allocs <- t.stats.allocs + 1;
  Aspace.zero_fill t.aspace payload ~words:payload_words;
  payload

let malloc (t : t) ?(ty_id = 0) ?(site = 0) ?(callstack = 0) words =
  let words = max 1 words in
  let hdr = if t.instrumented then 3 else 1 in
  let needed = hdr + words in
  let rec walk header =
    if header >= t.limit then raise Out_of_memory
    else begin
      let flags, payload_words = unpack (Aspace.read_word t.aspace header) in
      if flags land flag_allocated <> 0 then walk (Addr.add_words header (total_words flags payload_words))
      else begin
        let total = coalesce_at t header in
        if total >= needed then begin
          (* split off the remainder when it can hold a free header + 1 word *)
          let payload_words =
            if total - needed >= 2 then begin
              init_free_header t (Addr.add_words header needed) (total - needed);
              words
            end
            else total - hdr
          in
          write_allocated_header t header ~payload_words ~ty_id ~site ~callstack
        end
        else walk (Addr.add_words header total)
      end
    end
  in
  walk t.base

let malloc_aligned (t : t) ?(ty_id = 0) ?(site = 0) ?(callstack = 0) words =
  let words = max 1 words in
  let hdr = if t.instrumented then 3 else 1 in
  (* find a free block able to host a page-aligned payload *)
  let rec walk header =
    if header >= t.limit then raise Out_of_memory
    else begin
      let flags, payload_words = unpack (Aspace.read_word t.aspace header) in
      if flags land flag_allocated <> 0 then
        walk (Addr.add_words header (total_words flags payload_words))
      else begin
        let total = coalesce_at t header in
        let block_end = Addr.add_words header total in
        (* candidate payload: first page boundary leaving room for the
           header and a possible free prefix *)
        let min_payload = Addr.add_words header (hdr + 2) in
        let candidate =
          let aligned = (min_payload + Addr.page_size - 1) land lnot (Addr.page_size - 1) in
          if Addr.add_words header hdr >= aligned - (2 * Addr.word_size) then
            (* header area would leave an unusable gap; take the next page *)
            aligned
          else aligned
        in
        if Addr.add_words candidate words <= block_end then begin
          let start = Addr.add_words candidate (-hdr) in
          let prefix_words = (start - header) / Addr.word_size in
          if prefix_words = 0 then ()
          else if prefix_words >= 2 then init_free_header t header prefix_words
          else raise Out_of_memory (* cannot represent the gap; give up *);
          let suffix_words = (block_end - Addr.add_words candidate words) / Addr.word_size in
          if suffix_words > 0 then begin
            if suffix_words >= 2 then init_free_header t (Addr.add_words candidate words) suffix_words
            else raise Out_of_memory
          end;
          write_allocated_header t start ~payload_words:words ~ty_id ~site ~callstack
        end
        else walk block_end
      end
    end
  in
  walk t.base

let malloc_at (t : t) ~at ?(ty_id = 0) ?(site = 0) ?(callstack = 0) words =
  let words = max 1 words in
  let hdr = if t.instrumented then 3 else 1 in
  let start = Addr.add_words at (-hdr) in
  let stop = Addr.add_words at words in
  if start < t.base || stop > t.limit then
    invalid_arg "Heap.malloc_at: address outside heap";
  let rec walk header =
    if header >= t.limit then
      invalid_arg
        (Format.asprintf "Heap.malloc_at: %a not inside a free block" Addr.pp at)
    else begin
      let flags, payload_words = unpack (Aspace.read_word t.aspace header) in
      if flags land flag_allocated <> 0 then
        walk (Addr.add_words header (total_words flags payload_words))
      else begin
        let total = coalesce_at t header in
        let block_end = Addr.add_words header total in
        if start >= header && stop <= block_end then begin
          let prefix_words = (start - header) / Addr.word_size in
          if prefix_words = 0 then ()
          else if prefix_words >= 2 then init_free_header t header prefix_words
          else
            invalid_arg "Heap.malloc_at: leaves unusable one-word prefix gap";
          let suffix_words = (block_end - stop) / Addr.word_size in
          if suffix_words > 0 then begin
            if suffix_words >= 2 then init_free_header t stop suffix_words
            else invalid_arg "Heap.malloc_at: leaves unusable one-word suffix gap"
          end;
          ignore (write_allocated_header t start ~payload_words:words ~ty_id ~site ~callstack)
        end
        else if header >= stop then
          invalid_arg
            (Format.asprintf "Heap.malloc_at: %a overlaps a live block" Addr.pp at)
        else walk block_end
      end
    end
  in
  walk t.base

let header_of_payload (t : t) payload =
  match Hashtbl.find_opt t.by_payload payload with
  | Some h -> Some h
  | None -> None

let do_free (t : t) payload =
  match header_of_payload t payload with
  | None -> invalid_arg (Format.asprintf "Heap.free: %a is not a live block" Addr.pp payload)
  | Some header ->
      let flags, payload_words = unpack (Aspace.read_word t.aspace header) in
      if flags land flag_allocated = 0 then
        invalid_arg (Format.asprintf "Heap.free: double free of %a" Addr.pp payload);
      init_free_header t header (total_words flags payload_words);
      Hashtbl.remove t.by_payload payload;
      t.stats.frees <- t.stats.frees + 1

let free (t : t) payload =
  if payload < t.base || payload >= t.limit then
    invalid_arg (Format.asprintf "Heap.free: foreign address %a" Addr.pp payload);
  if t.defer then begin
    (* Separability: no startup-time address reuse. Validate liveness now,
       release at end_startup. *)
    if header_of_payload t payload = None then
      invalid_arg (Format.asprintf "Heap.free: %a is not a live block" Addr.pp payload);
    t.quarantine <- payload :: t.quarantine
  end
  else do_free t payload

let set_defer_frees (t : t) b = t.defer <- b

let end_startup (t : t) =
  List.iter (do_free t) (List.rev t.quarantine);
  t.quarantine <- [];
  t.defer <- false;
  t.startup_phase <- false

let restart_startup (t : t) =
  t.startup_phase <- true;
  t.defer <- true

let in_startup (t : t) = t.startup_phase

let block_of_payload (t : t) payload =
  match header_of_payload t payload with
  | None -> None
  | Some header ->
      let flags, b = read_block t header in
      if flags land flag_allocated <> 0 && not (List.mem payload t.quarantine) then Some b
      else None

let iter_live (t : t) f =
  let rec walk header =
    if header < t.limit then begin
      let flags, b = read_block t header in
      if flags land flag_allocated <> 0 && not (List.mem b.payload t.quarantine) then f b;
      walk (next_header t header)
    end
  in
  walk t.base

let block_containing (t : t) addr =
  if addr < t.base || addr >= t.limit then None
  else begin
    let found = ref None in
    (try
       iter_live t (fun b ->
           if addr >= b.payload && addr < Addr.add_words b.payload b.words then begin
             found := Some b;
             raise Exit
           end)
     with Exit -> ());
    !found
  end

let live_words (t : t) =
  let n = ref 0 in
  iter_live t (fun b -> n := !n + b.words);
  !n

let metadata_words (t : t) =
  let n = ref 0 in
  iter_live t (fun b -> n := !n + if b.instrumented then 3 else 1);
  !n

let rebind (t : t) aspace =
  let fresh =
    {
      t with
      aspace;
      by_payload = Hashtbl.create (Hashtbl.length t.by_payload);
      stats = { allocs = t.stats.allocs; frees = t.stats.frees; tag_words = t.stats.tag_words };
    }
  in
  (* rebuild the payload cache from the copied in-band headers *)
  let rec walk header =
    if header < fresh.limit then begin
      let flags, payload_words = unpack (Aspace.read_word aspace header) in
      if flags land flag_allocated <> 0 then begin
        let hdr = header_words_of_flags flags in
        Hashtbl.replace fresh.by_payload (Addr.add_words header hdr) header
      end;
      walk (Addr.add_words header (header_words_of_flags flags + payload_words))
    end
  in
  walk fresh.base;
  fresh


let refresh (t : t) =
  Hashtbl.reset t.by_payload;
  let rec walk header =
    if header < t.limit then begin
      let flags, payload_words = unpack (Aspace.read_word t.aspace header) in
      if flags land flag_allocated <> 0 then begin
        let hdr = header_words_of_flags flags in
        Hashtbl.replace t.by_payload (Addr.add_words header hdr) header
      end;
      walk (Addr.add_words header (header_words_of_flags flags + payload_words))
    end
  in
  walk t.base

(* Like [of_region] but over memory that already holds a valid block
   tiling — attaching writes no headers, it only rebuilds the cache.
   Attached heaps come up past startup (checkpoint images are only taken
   after the first quiescent point). *)
let attach aspace ~base ~size ~instrumented =
  let t =
    {
      aspace;
      base;
      limit = Addr.add base size;
      instrumented;
      by_payload = Hashtbl.create 256;
      defer = false;
      startup_phase = false;
      quarantine = [];
      stats = { allocs = 0; frees = 0; tag_words = 0 };
    }
  in
  refresh t;
  t

let restore_stats (t : t) ~allocs ~frees ~tag_words =
  t.stats.allocs <- allocs;
  t.stats.frees <- frees;
  t.stats.tag_words <- tag_words

let validate (t : t) =
  let rec walk header live_payloads =
    if header = t.limit then Ok live_payloads
    else if header > t.limit then Error "block overruns the heap limit"
    else
      match unpack (Aspace.read_word t.aspace header) with
      | exception Invalid_argument m -> Error m
      | flags, payload_words ->
          let total = total_words flags payload_words in
          if total <= 0 then Error "non-positive block size"
          else
            let live_payloads =
              if flags land flag_allocated <> 0 then
                Addr.add_words header (header_words_of_flags flags) :: live_payloads
              else live_payloads
            in
            walk (Addr.add_words header total) live_payloads
  in
  match walk t.base [] with
  | Error e -> Error e
  | Ok live ->
      let cache_ok =
        Hashtbl.fold (fun payload _ ok -> ok && List.mem payload live) t.by_payload true
      in
      if cache_ok then Ok () else Error "payload cache references a dead block"
