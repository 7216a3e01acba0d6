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
  mutable free : Addr.t array; (* free headers ascending in [0, n_free), a cache *)
  mutable n_free : int;
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

(* Index of the first free header at or above [addr]. *)
let free_lower_bound (t : t) addr =
  let lo = ref 0 and hi = ref t.n_free in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if t.free.(mid) < addr then lo := mid + 1 else hi := mid
  done;
  !lo

let add_free (t : t) header =
  let i = free_lower_bound t header in
  if i = t.n_free || t.free.(i) <> header then begin
    if t.n_free = Array.length t.free then begin
      let grown = Array.make (max 1 (2 * t.n_free)) 0 in
      Array.blit t.free 0 grown 0 t.n_free;
      t.free <- grown
    end;
    Array.blit t.free i t.free (i + 1) (t.n_free - i);
    t.free.(i) <- header;
    t.n_free <- t.n_free + 1
  end

let remove_free (t : t) header =
  let i = free_lower_bound t header in
  if i < t.n_free && t.free.(i) = header then begin
    Array.blit t.free (i + 1) t.free i (t.n_free - i - 1);
    t.n_free <- t.n_free - 1
  end

let init_free_header (t : t) addr total_words =
  write t.aspace addr (pack ~flags:0 ~payload_words:(total_words - 1));
  add_free t addr

let make aspace ~base ~size ~instrumented =
  let t =
    {
      aspace;
      base;
      limit = Addr.add base size;
      instrumented;
      by_payload = Hashtbl.create 256;
      free = [||];
      n_free = 0;
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

(* Merge the free block at [header] with the run of free blocks after it and
   rewrite its header, even when nothing merged; returns the merged total.
   The header after the run is read, so a corrupted neighbour still raises. *)
let coalesce_at (t : t) header =
  let flags, payload_words = unpack (Aspace.read_word t.aspace header) in
  let rec absorb total =
    let next = Addr.add_words header total in
    if next >= t.limit then total
    else begin
      let nflags, npayload = unpack (Aspace.read_word t.aspace next) in
      if nflags land flag_allocated <> 0 then total
      else begin
        remove_free t next;
        absorb (total + total_words nflags npayload)
      end
    end
  in
  let total = absorb (total_words flags payload_words) in
  init_free_header t header total;
  total

let write_allocated_header (t : t) header ~payload_words ~ty_id ~site ~callstack =
  let flags =
    flag_allocated
    lor (if t.instrumented then flag_instrumented else 0)
    lor if t.startup_phase then flag_startup else 0
  in
  write t.aspace header (pack ~flags ~payload_words);
  remove_free t header;
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

(* First fit: visit the free blocks in address order, coalescing each with
   the free blocks after it, and [take] the first one that [fits]. Allocated
   headers are never read. *)
let first_fit (t : t) ~fits ~take ~none =
  let rec visit i =
    if i >= t.n_free then none ()
    else begin
      let header = t.free.(i) in
      let total = coalesce_at t header in
      if fits header total then take header total else visit (i + 1)
    end
  in
  visit 0

let malloc (t : t) ?(ty_id = 0) ?(site = 0) ?(callstack = 0) words =
  let words = max 1 words in
  let hdr = if t.instrumented then 3 else 1 in
  let needed = hdr + words in
  first_fit t
    ~fits:(fun _ total -> total >= needed)
    ~take:(fun header total ->
      (* split off the remainder when it can hold a free header + 1 word *)
      let payload_words =
        if total - needed >= 2 then begin
          init_free_header t (Addr.add_words header needed) (total - needed);
          words
        end
        else total - hdr
      in
      write_allocated_header t header ~payload_words ~ty_id ~site ~callstack)
    ~none:(fun () -> raise Out_of_memory)

let malloc_aligned (t : t) ?(ty_id = 0) ?(site = 0) ?(callstack = 0) words =
  let words = max 1 words in
  let hdr = if t.instrumented then 3 else 1 in
  (* the first page boundary leaving room for the header and a free prefix
     of at least two words, so the prefix is always representable *)
  let payload_in header =
    let min_payload = Addr.add_words header (hdr + 2) in
    (min_payload + Addr.page_size - 1) land lnot (Addr.page_size - 1)
  in
  first_fit t
    ~fits:(fun header total ->
      Addr.add_words (payload_in header) words <= Addr.add_words header total)
    ~take:(fun header total ->
      let payload = payload_in header in
      let start = Addr.add_words payload (-hdr) in
      let stop = Addr.add_words payload words in
      let suffix_words = (Addr.add_words header total - stop) / Addr.word_size in
      if suffix_words = 1 then raise Out_of_memory (* cannot represent the gap; give up *);
      init_free_header t header ((start - header) / Addr.word_size);
      if suffix_words >= 2 then init_free_header t stop suffix_words;
      write_allocated_header t start ~payload_words:words ~ty_id ~site ~callstack)
    ~none:(fun () -> raise Out_of_memory)

let malloc_at (t : t) ~at ?(ty_id = 0) ?(site = 0) ?(callstack = 0) words =
  let words = max 1 words in
  let hdr = if t.instrumented then 3 else 1 in
  let start = Addr.add_words at (-hdr) in
  let stop = Addr.add_words at words in
  if start < t.base || stop > t.limit then
    invalid_arg "Heap.malloc_at: address outside heap";
  first_fit t
    ~fits:(fun header total ->
      header >= stop || (start >= header && stop <= Addr.add_words header total))
    ~take:(fun header total ->
      if header >= stop then
        invalid_arg (Format.asprintf "Heap.malloc_at: %a overlaps a live block" Addr.pp at);
      (* both gaps are checked before anything is written *)
      let prefix_words = (start - header) / Addr.word_size in
      let suffix_words = (Addr.add_words header total - stop) / Addr.word_size in
      if prefix_words = 1 then invalid_arg "Heap.malloc_at: leaves unusable one-word prefix gap";
      if suffix_words = 1 then invalid_arg "Heap.malloc_at: leaves unusable one-word suffix gap";
      if prefix_words >= 2 then init_free_header t header prefix_words;
      if suffix_words >= 2 then init_free_header t stop suffix_words;
      ignore (write_allocated_header t start ~payload_words:words ~ty_id ~site ~callstack))
    ~none:(fun () ->
      invalid_arg (Format.asprintf "Heap.malloc_at: %a not inside a free block" Addr.pp at))

let do_free (t : t) payload =
  match Hashtbl.find_opt t.by_payload payload with
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
    if not (Hashtbl.mem t.by_payload payload) then
      invalid_arg (Format.asprintf "Heap.free: %a is not a live block" Addr.pp payload);
    t.quarantine <- payload :: t.quarantine
  end
  else do_free t payload

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
  match Hashtbl.find_opt t.by_payload payload with
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

(* Rebuild both caches, the payload table and the free index, by walking
   the in-band headers; the header the walk stops at, [t.limit] when the
   blocks tile the extent. *)
let rebuild (t : t) =
  Hashtbl.reset t.by_payload;
  let rec walk header free =
    if header >= t.limit then (header, free)
    else begin
      let flags, payload_words = unpack (Aspace.read_word t.aspace header) in
      let free =
        if flags land flag_allocated <> 0 then begin
          Hashtbl.replace t.by_payload (Addr.add_words header (header_words_of_flags flags)) header;
          free
        end
        else header :: free
      in
      walk (Addr.add_words header (total_words flags payload_words)) free
    end
  in
  let stop, free = walk t.base [] in
  t.free <- Array.of_list (List.rev free);
  t.n_free <- Array.length t.free;
  stop

let refresh t = ignore (rebuild t)

(* The walk reads only inside [base, limit): an unmapped or misaligned
   header faults, a header without the magic is [Invalid_argument]. *)
let reload (t : t) =
  match rebuild t with
  | stop when stop = t.limit -> Ok ()
  | stop ->
      Error
        (Format.asprintf "heap %a: the last block overruns the limit %a by %d bytes" Addr.pp
           t.base Addr.pp t.limit (stop - t.limit))
  | exception Invalid_argument reason -> Error (Format.asprintf "heap %a: %s" Addr.pp t.base reason)
  | exception Aspace.Fault a ->
      Error (Format.asprintf "heap %a: header %a is not a mapped word" Addr.pp t.base Addr.pp a)

let rebind (t : t) aspace =
  let fresh =
    {
      t with
      aspace;
      by_payload = Hashtbl.create (Hashtbl.length t.by_payload);
      stats = { allocs = t.stats.allocs; frees = t.stats.frees; tag_words = t.stats.tag_words };
    }
  in
  (* the fork copied the in-band headers verbatim *)
  refresh fresh;
  fresh

(* Like [of_region] but over memory that already holds a valid block
   tiling — attaching writes no headers, it only rebuilds the caches.
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
      free = [||];
      n_free = 0;
      defer = false;
      startup_phase = false;
      quarantine = [];
      stats = { allocs = 0; frees = 0; tag_words = 0 };
    }
  in
  Result.map (fun () -> t) (reload t)

let restore_stats (t : t) ~allocs ~frees ~tag_words =
  t.stats.allocs <- allocs;
  t.stats.frees <- frees;
  t.stats.tag_words <- tag_words

let validate (t : t) =
  let live = Hashtbl.create (Hashtbl.length t.by_payload) in
  let index_differs = Error "free index differs from the free headers" in
  (* [nfree] counts the free headers met so far, each checked against the index *)
  let rec walk header nfree =
    if header = t.limit then if nfree = t.n_free then Ok () else index_differs
    else if header > t.limit then Error "block overruns the heap limit"
    else
      match unpack (Aspace.read_word t.aspace header) with
      | exception Invalid_argument m -> Error m
      | flags, payload_words ->
          let total = total_words flags payload_words in
          let next = Addr.add_words header total in
          if total <= 0 then Error "non-positive block size"
          else if flags land flag_allocated <> 0 then begin
            Hashtbl.replace live (Addr.add_words header (header_words_of_flags flags)) ();
            walk next nfree
          end
          else if nfree < t.n_free && t.free.(nfree) = header then walk next (nfree + 1)
          else index_differs
  in
  match walk t.base 0 with
  | Error e -> Error e
  | Ok () ->
      if Hashtbl.fold (fun payload _ ok -> ok && Hashtbl.mem live payload) t.by_payload true
      then Ok ()
      else Error "payload cache references a dead block"
