module K = Mcr_simos.Kernel
module S = Mcr_simos.Sysdefs
module Aspace = Mcr_vmem.Aspace
module Addr = Mcr_vmem.Addr
module Region = Mcr_vmem.Region
module Heap = Mcr_alloc.Heap
module Pool = Mcr_alloc.Pool
module Slab = Mcr_alloc.Slab
module Fnv = Mcr_util.Fnv
module P = Mcr_program.Progdef

let format_version = 3
let magic = "MCRIMAGE"

type error =
  | Bad_magic
  | Version_skew of { found : int; expected : int }
  | Truncated of { section : string }
  | Hash_mismatch of { section : string }
  | Missing_section of string
  | Malformed of { section : string; reason : string }
  | Program_mismatch of { image : string; target : string }
  | Version_mismatch of { image : string; target : string }
  | Fingerprint_mismatch of { image : int; restored : int }
  | Io of string

let error_to_string = function
  | Bad_magic -> "bad magic: not an MCR checkpoint image"
  | Version_skew { found; expected } ->
      Printf.sprintf "format version skew: image is v%d, this build speaks v%d" found expected
  | Truncated { section } -> Printf.sprintf "truncated image: section %s is cut short" section
  | Hash_mismatch { section } ->
      Printf.sprintf "integrity failure: section %s does not match its content hash" section
  | Missing_section s -> Printf.sprintf "required section %s is missing" s
  | Malformed { section; reason } -> Printf.sprintf "malformed section %s: %s" section reason
  | Program_mismatch { image; target } ->
      Printf.sprintf "image holds program %s but the restore target runs %s" image target
  | Version_mismatch { image; target } ->
      Printf.sprintf "image holds version %s but the restore target runs %s" image target
  | Fingerprint_mismatch { image; restored } ->
      Printf.sprintf "restored fingerprint %#x does not reproduce the image's %#x" restored image
  | Io msg -> Printf.sprintf "i/o failure: %s" msg

let pp_error ppf e = Format.pp_print_string ppf (error_to_string e)

(* ------------------------------------------------------------------ *)
(* In-memory representation *)

(* A region keeps only its pages that hold a non-zero word, as runs of
   whole pages; every page no run covers is zero. A run's words are a view
   of [u_words] words from byte [u_pos] of [r_data], in the on-disk
   encoding (bits 0-62 of each word, little-endian): capture fills one
   fresh buffer per region, and decode points into the file's bytes, so
   neither copies the words again. *)
type run = { u_page : int; (* page index within the region *) u_pos : int; u_words : int }

type region_image = {
  r_name : string;
  r_kind : Region.kind;
  r_base : Addr.t;
  r_size : int;  (* bytes *)
  r_data : string;
  r_runs : run list;  (* ascending *)
}

type page_state_image = { g_page : Addr.t; g_seq : int; g_touched : bool; g_inherited : bool }

type heap_image = {
  h_base : Addr.t;
  h_size : int;
  h_instrumented : bool;
  h_allocs : int;
  h_frees : int;
  h_tag_words : int;
}

type thread_image = {
  t_tid : int;
  t_name : string;
  t_callstack : string list;
  t_blocked : string option;
}

type proc_image = {
  pi_pid : int;
  pi_name : string;
  pi_creation_callstack : int;
  pi_startup_complete : bool;
  pi_layout_bias : int;
  pi_write_seq : int;
  pi_fds : int list;
  pi_regions : region_image list;
  pi_pages : page_state_image list;
  pi_epochs : (string * int) list;
  pi_threads : thread_image list;
  pi_heap : heap_image option;
  pi_lib_heap : heap_image option;
  pi_pools : Pool.state list;
  pi_slabs : (string * Slab.state) list;
}

type t = {
  im_prog : string;
  im_version_tag : string;
  im_clock_ns : int;
  im_fingerprint : int;
  im_policy_text : string option;
  im_target_tag : string option;
  im_flight_json : string option;
  im_procs : proc_image list;
}

let prog t = t.im_prog
let version_tag t = t.im_version_tag
let clock_ns t = t.im_clock_ns
let fingerprint t = t.im_fingerprint
let policy_text t = t.im_policy_text
let target_tag t = t.im_target_tag
let flight_json t = t.im_flight_json
let proc_count t = List.length t.im_procs
let region_count t = List.fold_left (fun a p -> a + List.length p.pi_regions) 0 t.im_procs

let total_words t =
  List.fold_left
    (fun a p -> List.fold_left (fun a r -> a + (r.r_size / Addr.word_size)) a p.pi_regions)
    0 t.im_procs

let with_flight_json t json = { t with im_flight_json = Some json }

(* ------------------------------------------------------------------ *)
(* Fingerprint — the byte-identity witness shared with Fleet *)

(* A region's base is page-aligned, so each run is a whole page at its own
   address; an all-zero page folds nothing. *)
let aspace_fingerprint ~prog asp =
  List.fold_left
    (fun acc (r : Region.t) ->
      let acc = Fnv.combine acc (Fnv.string r.Region.name) in
      let acc = Fnv.combine acc (Fnv.int r.Region.base) in
      let acc = Fnv.combine acc (Fnv.int r.Region.size) in
      Aspace.fold_nonzero_runs asp r.Region.base ~words:(r.Region.size / Addr.word_size)
        ~init:acc ~f:(fun acc page w i n ->
          Fnv.combine_ints (Fnv.combine acc (Fnv.int page)) w i n))
    (Fnv.string prog) (Aspace.regions asp)

(* ------------------------------------------------------------------ *)
(* Binary writer / reader *)

(* A byte range [(data, pos, len)] of the encoded image. *)
type slice = string * int * int

(* A payload is written as slices: fixed fields go to a small buffer, and
   bulk bytes (region words, text sections) are spliced in by reference. *)
type writer = { small : Buffer.t; mutable rev_slices : slice list }

let flush w =
  let n = Buffer.length w.small in
  if n > 0 then begin
    w.rev_slices <- (Buffer.contents w.small, 0, n) :: w.rev_slices;
    Buffer.clear w.small
  end

let w_slice w s pos len =
  flush w;
  w.rev_slices <- (s, pos, len) :: w.rev_slices

(* The slices [write] produces, in order. *)
let slices_of write =
  let w = { small = Buffer.create 256; rev_slices = [] } in
  write w;
  flush w;
  List.rev w.rev_slices

let slices_length = List.fold_left (fun n (_, _, len) -> n + len) 0

(* Bits 0-62 of [n]: the top bit of the last byte is always 0, so a
   negative word is not sign-extended into it. *)
let w_u64 w n = Buffer.add_int64_le w.small (Int64.logand (Int64.of_int n) Int64.max_int)

let w_bool w v = w_u64 w (if v then 1 else 0)
let w_bytes w s = Buffer.add_string w.small s

let w_str w s =
  w_u64 w (String.length s);
  w_bytes w s

let w_opt_str w = function
  | None -> w_u64 w 0
  | Some s ->
      w_u64 w 1;
      w_str w s

let w_list w f xs =
  w_u64 w (List.length xs);
  List.iter (f w) xs

exception Short

(* A payload whose bytes decode but break the schema: the reason. *)
exception Bad of string

(* A cursor over [data], bounded by [limit]: a section is read where it
   lies, without copying it out. *)
type reader = { data : string; mutable pos : int; limit : int }

let r_u64 r =
  if r.pos > r.limit - 8 then raise Short;
  let v = Int64.to_int (String.get_int64_le r.data r.pos) in
  r.pos <- r.pos + 8;
  v

let r_bool r = r_u64 r <> 0

(* A length-prefixed byte string, as its [(pos, len)] in [data]. *)
let r_span r =
  let n = r_u64 r in
  if n < 0 || n > r.limit - r.pos then raise Short;
  let pos = r.pos in
  r.pos <- pos + n;
  (pos, n)

let r_str r =
  let pos, n = r_span r in
  String.sub r.data pos n

let r_opt_str r = if r_u64 r = 0 then None else Some (r_str r)

let r_list r f =
  let n = r_u64 r in
  if n < 0 then raise Short;
  List.init n (fun _ -> f r)

(* [n] words where they lie in [data], as [(pos, n)]. *)
let r_words r =
  let n = r_u64 r in
  if n < 0 || n > (r.limit - r.pos) / 8 then raise Short;
  let pos = r.pos in
  r.pos <- pos + (8 * n);
  (pos, n)

(* ------------------------------------------------------------------ *)
(* Section payload codecs *)

let w_region b r =
  w_str b r.r_name;
  w_str b (Region.kind_to_string r.r_kind);
  w_u64 b r.r_base;
  w_u64 b r.r_size;
  w_list b
    (fun b u ->
      w_u64 b u.u_page;
      w_u64 b u.u_words;
      w_slice b r.r_data u.u_pos (8 * u.u_words))
    r.r_runs

let kinds = Region.[ Static; Heap; Stack; Lib; Mmap ]

let r_region r =
  let r_name = r_str r in
  let r_kind =
    let k = r_str r in
    match List.find_opt (fun kind -> Region.kind_to_string kind = k) kinds with
    | Some kind -> kind
    | None -> raise (Bad (Printf.sprintf "region %s has unknown kind %S" r_name k))
  in
  let r_base = r_u64 r in
  let r_size = r_u64 r in
  let r_runs =
    r_list r (fun r ->
        let u_page = r_u64 r in
        let u_pos, u_words = r_words r in
        { u_page; u_pos; u_words })
  in
  { r_name; r_kind; r_base; r_size; r_data = r.data; r_runs }

let w_page b g =
  w_u64 b g.g_page;
  w_u64 b g.g_seq;
  w_bool b g.g_touched;
  w_bool b g.g_inherited

let r_page r =
  let g_page = r_u64 r in
  let g_seq = r_u64 r in
  let g_touched = r_bool r in
  let g_inherited = r_bool r in
  { g_page; g_seq; g_touched; g_inherited }

let w_heap b h =
  w_u64 b h.h_base;
  w_u64 b h.h_size;
  w_bool b h.h_instrumented;
  w_u64 b h.h_allocs;
  w_u64 b h.h_frees;
  w_u64 b h.h_tag_words

let r_heap r =
  let h_base = r_u64 r in
  let h_size = r_u64 r in
  let h_instrumented = r_bool r in
  let h_allocs = r_u64 r in
  let h_frees = r_u64 r in
  let h_tag_words = r_u64 r in
  { h_base; h_size; h_instrumented; h_allocs; h_frees; h_tag_words }

let w_heap_opt b = function
  | None -> w_u64 b 0
  | Some h ->
      w_u64 b 1;
      w_heap b h

let r_heap_opt r = if r_u64 r = 0 then None else Some (r_heap r)

let rec w_pool b (st : Pool.state) =
  w_str b st.Pool.st_name;
  w_bool b st.st_instrument;
  w_u64 b st.st_chunk_words;
  w_u64 b st.st_pallocs;
  w_u64 b st.st_tag_words;
  w_u64 b st.st_chunks_grabbed;
  w_list b
    (fun b (c : Pool.chunk_state) ->
      w_u64 b c.Pool.cs_base;
      w_u64 b c.cs_words;
      w_u64 b c.cs_bump;
      w_bool b c.cs_micro)
    st.st_chunks;
  w_list b w_pool st.st_kids

let rec r_pool r : Pool.state =
  let st_name = r_str r in
  let st_instrument = r_bool r in
  let st_chunk_words = r_u64 r in
  let st_pallocs = r_u64 r in
  let st_tag_words = r_u64 r in
  let st_chunks_grabbed = r_u64 r in
  let st_chunks =
    r_list r (fun r ->
        let cs_base = r_u64 r in
        let cs_words = r_u64 r in
        let cs_bump = r_u64 r in
        let cs_micro = r_bool r in
        { Pool.cs_base; cs_words; cs_bump; cs_micro })
  in
  let st_kids = r_list r r_pool in
  { Pool.st_name; st_instrument; st_chunk_words; st_pallocs; st_tag_words; st_chunks_grabbed;
    st_chunks; st_kids }

let w_slab b (name, (st : Slab.state)) =
  w_str b name;
  w_u64 b st.Slab.ss_slot_words;
  w_list b w_u64 st.ss_chunks;
  w_u64 b st.ss_free_head;
  w_u64 b st.ss_live

let r_slab r =
  let name = r_str r in
  let ss_slot_words = r_u64 r in
  let ss_chunks = r_list r r_u64 in
  let ss_free_head = r_u64 r in
  let ss_live = r_u64 r in
  (name, { Slab.ss_slot_words; ss_chunks; ss_free_head; ss_live })

let w_thread b th =
  w_u64 b th.t_tid;
  w_str b th.t_name;
  w_list b w_str th.t_callstack;
  w_opt_str b th.t_blocked

let r_thread r =
  let t_tid = r_u64 r in
  let t_name = r_str r in
  let t_callstack = r_list r r_str in
  let t_blocked = r_opt_str r in
  { t_tid; t_name; t_callstack; t_blocked }

let encode_proc b p =
  w_u64 b p.pi_pid;
  w_str b p.pi_name;
  w_u64 b p.pi_creation_callstack;
  w_bool b p.pi_startup_complete;
  w_u64 b p.pi_layout_bias;
  w_u64 b p.pi_write_seq;
  w_list b w_u64 p.pi_fds;
  w_list b w_region p.pi_regions;
  w_list b w_page p.pi_pages;
  w_list b
    (fun b (name, mark) ->
      w_str b name;
      w_u64 b mark)
    p.pi_epochs;
  w_list b w_thread p.pi_threads;
  w_heap_opt b p.pi_heap;
  w_heap_opt b p.pi_lib_heap;
  w_list b w_pool p.pi_pools;
  w_list b w_slab p.pi_slabs

let bad fmt = Printf.ksprintf (fun reason -> raise (Bad reason)) fmt

(* A region's runs: non-empty, whole pages, ascending and disjoint, and
   inside the region. *)
let check_runs r =
  let pages = r.r_size / Addr.page_size in
  ignore
    (List.fold_left
       (fun next u ->
         if u.u_words <= 0 || u.u_words mod Addr.words_per_page <> 0 then
           bad "region %s run at page %d holds %d words, not a positive number of pages"
             r.r_name u.u_page u.u_words;
         let n = u.u_words / Addr.words_per_page in
         if u.u_page < next then
           bad "region %s run at page %d is not above the run before it" r.r_name u.u_page;
         if u.u_page > pages - n then
           bad "region %s run of %d pages at page %d ends past its %d pages" r.r_name n u.u_page
             pages;
         u.u_page + n)
       0 r.r_runs)

(* What install relies on of a process's region table: regions page-aligned
   above the null page, ascending and disjoint, each run inside its region,
   every page state inside a saved region, and every pool chunk a
   word-aligned extent of a saved region with its bump cursor inside it. *)
let check_regions p =
  let aligned a = a land (Addr.page_size - 1) = 0 in
  ignore
    (List.fold_left
       (fun prev_limit r ->
         if r.r_base <= 0 || not (aligned r.r_base) then
           bad "region %s base %#x is not a page-aligned address" r.r_name r.r_base;
         if r.r_size <= 0 || not (aligned r.r_size) then
           bad "region %s size %d is not a positive page multiple" r.r_name r.r_size;
         if r.r_size > Aspace.ceiling - r.r_base then
           bad "region %s at %#x of %d bytes ends past the address-space ceiling %#x" r.r_name
             r.r_base r.r_size Aspace.ceiling;
         if r.r_base < prev_limit then
           bad "region %s at %#x is not above the region before it" r.r_name r.r_base;
         check_runs r;
         r.r_base + r.r_size)
       0 p.pi_regions);
  let regions = Array.of_list p.pi_regions in
  (* the bytes of the saved region holding [a] from [a] on, as [Aspace]
     finds the region: the last one based at or below [a] *)
  let room a =
    let lo = ref 0 and hi = ref (Array.length regions - 1) in
    while !lo <= !hi do
      let mid = (!lo + !hi) / 2 in
      if regions.(mid).r_base <= a then lo := mid + 1 else hi := mid - 1
    done;
    if !hi < 0 then 0 else max 0 (regions.(!hi).r_base + regions.(!hi).r_size - a)
  in
  List.iter
    (fun g ->
      if (not (aligned g.g_page)) || room g.g_page = 0 then
        bad "page state %#x is not a page of a saved region" g.g_page)
    p.pi_pages;
  let rec check_pool (st : Pool.state) =
    List.iter
      (fun (c : Pool.chunk_state) ->
        if
          c.Pool.cs_words <= 0
          || (not (Addr.is_aligned c.cs_base))
          || c.cs_words > room c.cs_base / Addr.word_size
          || c.cs_bump < 0 || c.cs_bump > c.cs_words
        then
          bad "pool %s chunk %#x of %d words (bump %d) is not inside a saved region" st.Pool.st_name
            c.cs_base c.cs_words c.cs_bump)
      st.Pool.st_chunks;
    List.iter check_pool st.st_kids
  in
  List.iter check_pool p.pi_pools

let decode_proc r =
  let pi_pid = r_u64 r in
  let pi_name = r_str r in
  let pi_creation_callstack = r_u64 r in
  let pi_startup_complete = r_bool r in
  let pi_layout_bias = r_u64 r in
  let pi_write_seq = r_u64 r in
  let pi_fds = r_list r r_u64 in
  let pi_regions = r_list r r_region in
  let pi_pages = r_list r r_page in
  let pi_epochs =
    r_list r (fun r ->
        let name = r_str r in
        let mark = r_u64 r in
        (name, mark))
  in
  let pi_threads = r_list r r_thread in
  let pi_heap = r_heap_opt r in
  let pi_lib_heap = r_heap_opt r in
  let pi_pools = r_list r r_pool in
  let pi_slabs = r_list r r_slab in
  let p =
    { pi_pid; pi_name; pi_creation_callstack; pi_startup_complete; pi_layout_bias;
      pi_write_seq; pi_fds; pi_regions; pi_pages; pi_epochs; pi_threads; pi_heap;
      pi_lib_heap; pi_pools; pi_slabs }
  in
  check_regions p;
  p

let encode_meta b t =
  w_str b t.im_prog;
  w_str b t.im_version_tag;
  w_u64 b t.im_clock_ns;
  w_u64 b t.im_fingerprint;
  w_u64 b (List.length t.im_procs)

(* ------------------------------------------------------------------ *)
(* Section table *)

(* [(tag, name, payload writer)] for every section, in file order. *)
let sections_of t =
  let meta = ("META", "meta", fun w -> encode_meta w t) in
  let procs =
    List.mapi
      (fun i p -> ("PROC", Printf.sprintf "proc.%d" i, fun w -> encode_proc w p))
      t.im_procs
  in
  let opt tag name = function
    | Some s -> [ (tag, name, fun w -> w_slice w s 0 (String.length s)) ]
    | None -> []
  in
  (meta :: procs)
  @ opt "POLI" "policy" t.im_policy_text
  @ opt "ATMP" "attempt" t.im_target_tag
  @ opt "FLIT" "flight" t.im_flight_json

(* The encoded image as slices in file order, and the section layout. Each
   payload byte is hashed once: one pass folds it into its section's hash
   and the running trailer hash together. Framing bytes go into the
   trailer only. *)
let encode_slices t =
  let sections = sections_of t in
  let out = ref [] and trailer = ref Fnv.basis in
  let frame write =
    List.iter
      (fun ((s, pos, len) as slice) ->
        trailer := Fnv.fold !trailer s ~pos ~len;
        out := slice :: !out)
      (slices_of write)
  in
  frame (fun w ->
      w_bytes w magic;
      w_u64 w format_version;
      w_u64 w (List.length sections));
  let rev_layout =
    List.fold_left
      (fun layout (tag, name, write) ->
        assert (String.length tag = 4);
        let payload = slices_of write in
        let len = slices_length payload in
        frame (fun w ->
            w_bytes w tag;
            w_str w name;
            w_u64 w len);
        let hash =
          List.fold_left
            (fun h (s, pos, len) ->
              let h, tr = Fnv.fold2 h !trailer s ~pos ~len in
              trailer := tr;
              h)
            Fnv.basis payload
        in
        out := List.rev_append payload !out;
        frame (fun w -> w_u64 w hash);
        (tag, name, len) :: layout)
      [] sections
  in
  let tail = slices_of (fun w -> w_u64 w !trailer) in
  (List.rev_append !out tail, List.rev rev_layout)

let layout t = snd (encode_slices t)

let encode t =
  let slices, _ = encode_slices t in
  let buf = Bytes.create (slices_length slices) in
  ignore
    (List.fold_left
       (fun at (s, pos, len) ->
         Bytes.blit_string s pos buf at len;
         at + len)
       0 slices);
  Bytes.unsafe_to_string buf

exception Failed of error

(* The section table is read and every hash checked in one pass, each
   payload byte folded once into its section hash and the trailer hash;
   then the sections are decoded where they lie. *)
let decode data =
  let len = String.length data in
  let fail e = raise (Failed e) in
  let within section f = try f () with Short -> fail (Truncated { section }) in
  try
    if len < 8 then fail (Truncated { section = "header" });
    if String.sub data 0 8 <> magic then fail Bad_magic;
    let r = { data; pos = 8; limit = len } in
    let version = within "header" (fun () -> r_u64 r) in
    if version <> format_version then
      fail (Version_skew { found = version; expected = format_version });
    let count = within "header" (fun () -> r_u64 r) in
    (* [trailer] is the hash of [data.[0 .. hashed - 1]] *)
    let trailer = ref Fnv.basis and hashed = ref 0 in
    let sections = ref [] in
    for i = 0 to count - 1 do
      let label = ref (Printf.sprintf "#%d" i) in
      try
          if r.pos > len - 4 then raise Short;
          let tag = String.sub data r.pos 4 in
          r.pos <- r.pos + 4;
          label := tag;
          let name = r_str r in
          label := name;
          let pos, plen = r_span r in
          let hash = r_u64 r in
          trailer := Fnv.fold !trailer data ~pos:!hashed ~len:(pos - !hashed);
          let h, tr = Fnv.fold2 Fnv.basis !trailer data ~pos ~len:plen in
          trailer := tr;
          hashed := pos + plen;
          if h <> hash then fail (Hash_mismatch { section = name });
          sections := (tag, name, pos, plen) :: !sections
      with Short -> fail (Truncated { section = !label })
    done;
    let body_end = r.pos in
    let expected = within "trailer" (fun () -> r_u64 r) in
    if Fnv.fold !trailer data ~pos:!hashed ~len:(body_end - !hashed) <> expected then
      fail (Hash_mismatch { section = "image" });
    let sections = List.rev !sections in
    let find tag = List.find_opt (fun (t, _, _, _) -> t = tag) sections in
    let reader pos plen = { data; pos; limit = pos + plen } in
    let meta_name, mr =
      match find "META" with
      | None -> fail (Missing_section "meta")
      | Some (_, name, pos, plen) -> (name, reader pos plen)
    in
    let im_prog, im_version_tag, im_clock_ns, im_fingerprint, nprocs =
      within meta_name (fun () ->
          let prog = r_str mr in
          let version_tag = r_str mr in
          let clock_ns = r_u64 mr in
          let fingerprint = r_u64 mr in
          let nprocs = r_u64 mr in
          (prog, version_tag, clock_ns, fingerprint, nprocs))
    in
    let procs =
      List.filter_map
        (fun (tag, name, pos, plen) ->
          if tag <> "PROC" then None
          else
            let malformed reason = fail (Malformed { section = name; reason }) in
            match decode_proc (reader pos plen) with
            | p -> Some p
            | exception Short -> malformed "a field runs past the end of the section"
            | exception Bad reason -> malformed reason)
        sections
    in
    if List.length procs <> nprocs then
      fail
        (Malformed
           {
             section = meta_name;
             reason =
               Printf.sprintf "meta promises %d processes, found %d" nprocs (List.length procs);
           });
    let opt_payload tag = Option.map (fun (_, _, pos, plen) -> String.sub data pos plen) (find tag) in
    Ok
      {
        im_prog;
        im_version_tag;
        im_clock_ns;
        im_fingerprint;
        im_policy_text = opt_payload "POLI";
        im_target_tag = opt_payload "ATMP";
        im_flight_json = opt_payload "FLIT";
        im_procs = procs;
      }
  with Failed e -> Error e

(* ------------------------------------------------------------------ *)
(* Capture *)

(* The region's non-zero pages, read into one buffer as maximal runs. *)
let capture_region asp (r : Region.t) =
  let pages = r.Region.size / Addr.page_size in
  let page_addr i = Addr.add r.Region.base (i * Addr.page_size) in
  let nonzero = Array.init pages (fun i -> not (Aspace.page_is_zero asp (page_addr i))) in
  let buf =
    Bytes.create (Addr.page_size * Array.fold_left (fun n z -> if z then n + 1 else n) 0 nonzero)
  in
  let rec runs i pos =
    if i >= pages then []
    else if not nonzero.(i) then runs (i + 1) pos
    else begin
      let j = ref i in
      while !j < pages && nonzero.(!j) do
        incr j
      done;
      let u_words = (!j - i) * Addr.words_per_page in
      Aspace.read_bytes asp (page_addr i) ~words:u_words buf ~pos;
      { u_page = i; u_pos = pos; u_words } :: runs !j (pos + (8 * u_words))
    end
  in
  let r_runs = runs 0 0 in
  {
    r_name = r.Region.name;
    r_kind = r.Region.kind;
    r_base = r.Region.base;
    r_size = r.Region.size;
    r_data = Bytes.unsafe_to_string buf;
    r_runs;
  }

let heap_image_of h =
  {
    h_base = Heap.base h;
    h_size = Heap.limit h - Heap.base h;
    h_instrumented = Heap.instrumented h;
    h_allocs = (Heap.stats h).Heap.allocs;
    h_frees = (Heap.stats h).Heap.frees;
    h_tag_words = (Heap.stats h).Heap.tag_words;
  }

let capture_thread th =
  {
    t_tid = K.tid th;
    t_name = K.thread_name th;
    t_callstack = K.callstack th;
    t_blocked = Option.map (fun c -> Format.asprintf "%a" S.pp_call c) (K.blocked_in th);
  }

let capture_proc (img : P.image) =
  let proc = img.P.i_proc in
  let asp = img.P.i_aspace in
  {
    pi_pid = K.pid proc;
    pi_name = K.proc_name proc;
    pi_creation_callstack = K.creation_callstack proc;
    pi_startup_complete = img.P.i_startup_complete;
    pi_layout_bias = Aspace.layout_bias asp;
    pi_write_seq = Aspace.write_seq asp;
    pi_fds = K.fds proc;
    pi_regions = List.map (capture_region asp) (Aspace.regions asp);
    pi_pages =
      List.map
        (fun (ps : Aspace.page_state) ->
          {
            g_page = ps.Aspace.ps_page;
            g_seq = ps.ps_last_write_seq;
            g_touched = ps.ps_touched;
            g_inherited = ps.ps_inherited;
          })
        (Aspace.page_states asp);
    pi_epochs = Aspace.epochs asp;
    pi_threads = List.map capture_thread (K.proc_threads proc);
    pi_heap = Some (heap_image_of img.P.i_heap);
    pi_lib_heap = Some (heap_image_of img.P.i_lib_heap);
    pi_pools = List.map (fun (_, p) -> Pool.export_state p) img.P.i_pools;
    pi_slabs = List.map (fun (name, s) -> (name, Slab.export_state s)) img.P.i_slabs;
  }

let capture kernel ~members ?policy_text ?target_tag ?flight_json () =
  match members with
  | [] -> invalid_arg "Image.capture: empty member list"
  | root :: _ ->
      {
        im_prog = root.P.i_version.P.prog;
        im_version_tag = root.P.i_version.P.version_tag;
        im_clock_ns = K.clock_ns kernel;
        im_fingerprint =
          aspace_fingerprint ~prog:root.P.i_version.P.prog (K.aspace root.P.i_proc);
        im_policy_text = policy_text;
        im_target_tag = target_tag;
        im_flight_json = flight_json;
        im_procs = List.map capture_proc members;
      }

(* ------------------------------------------------------------------ *)
(* Host-filesystem persistence *)

(* Written beside [path] and renamed over it, so a crash mid-write leaves
   the previous image, not a torn one. The temporary file is created and
   opened in one exclusive open, without [O_TRUNC]: on ext4, truncating a
   file arms the replace-via-truncate heuristic ([auto_da_alloc]), and
   [close] then starts writeback of the whole image. *)
let write t ~path =
  let slices, _ = encode_slices t in
  match
    Filename.open_temp_file ~mode:[ Open_binary ] ~temp_dir:(Filename.dirname path)
      ("." ^ Filename.basename path) ".tmp"
  with
  | exception Sys_error msg -> Error (Io msg)
  | tmp, oc -> (
      match
        Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () ->
            List.iter (fun (s, pos, len) -> output_substring oc s pos len) slices;
            close_out oc);
        Sys.rename tmp path
      with
      | () -> Ok ()
      | exception Sys_error msg ->
          (try Sys.remove tmp with Sys_error _ -> ());
          Error (Io msg))

let read ~path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | data -> decode data
  | exception Sys_error msg -> Error (Io msg)
  | exception End_of_file -> Error (Truncated { section = "header" })

let save kernel ~path ~members ?policy_text ?target_tag ?flight_json () =
  let t = capture kernel ~members ?policy_text ?target_tag ?flight_json () in
  match write t ~path with Ok () -> Ok t | Error e -> Error e

(* ------------------------------------------------------------------ *)
(* Install *)

type install_report = {
  paired_procs : int;
  skipped_saved_procs : int;
  unmatched_live_procs : int;
}

(* Every word of the region, in ascending order: each run from the image's
   bytes, the pages between runs as zeros, all through untracked stores,
   so every page is unshared and touched and a page the target holds
   non-zero words in is cleared. *)
let install_region asp s =
  let page_addr i = Addr.add s.r_base (i * Addr.page_size) in
  let zero_pages from until =
    Aspace.zero_untracked asp (page_addr from) ~words:((until - from) * Addr.words_per_page)
  in
  let next =
    List.fold_left
      (fun next u ->
        zero_pages next u.u_page;
        Aspace.write_bytes_untracked asp (page_addr u.u_page) ~words:u.u_words s.r_data
          ~pos:u.u_pos;
        u.u_page + (u.u_words / Addr.words_per_page))
      0 s.r_runs
  in
  zero_pages next (s.r_size / Addr.page_size)

(* Reconcile the live address space's region set with the saved one, then
   write back contents and dirty-tracking state. All stores are untracked
   and the write sequence / page stamps / epoch marks are re-installed
   afterwards, so the restored space is indistinguishable from the saved
   one to every dirty-tracking consumer. *)
let install_aspace saved asp =
  let saved_by_base = Hashtbl.create 16 in
  List.iter (fun r -> Hashtbl.replace saved_by_base r.r_base r) saved.pi_regions;
  (* drop live regions the image does not know, or whose shape changed *)
  List.iter
    (fun (r : Region.t) ->
      match Hashtbl.find_opt saved_by_base r.Region.base with
      | Some s
        when s.r_size = r.Region.size && s.r_kind = r.Region.kind ->
          ()
      | _ -> Aspace.unmap asp r.Region.base)
    (Aspace.regions asp);
  (* map regions the live space is missing *)
  let live_bases =
    List.fold_left
      (fun acc (r : Region.t) ->
        Hashtbl.replace acc r.Region.base ();
        acc)
      (Hashtbl.create 16) (Aspace.regions asp)
  in
  List.iter
    (fun s ->
      if not (Hashtbl.mem live_bases s.r_base) then
        ignore
          (Aspace.map asp ~name:s.r_name (Aspace.Fixed s.r_base) ~size:s.r_size s.r_kind))
    saved.pi_regions;
  (* contents *)
  List.iter (install_region asp) saved.pi_regions;
  (* dirty-tracking state *)
  Aspace.set_write_seq asp saved.pi_write_seq;
  List.iter
    (fun g ->
      Aspace.restore_page_state asp
        {
          Aspace.ps_page = g.g_page;
          ps_last_write_seq = g.g_seq;
          ps_touched = g.g_touched;
          ps_inherited = g.g_inherited;
        })
    saved.pi_pages;
  Aspace.restore_epochs asp saved.pi_epochs

let ( let* ) = Result.bind

let rec iter_ok f = function
  | [] -> Ok ()
  | x :: xs ->
      let* () = f x in
      iter_ok f xs

let install_heap saved_opt heap =
  let* () = Heap.reload heap in
  Option.iter
    (fun h -> Heap.restore_stats heap ~allocs:h.h_allocs ~frees:h.h_frees ~tag_words:h.h_tag_words)
    saved_opt;
  Ok ()

(* [Error] is the reason the allocator state does not fit the installed
   memory or the live configuration. *)
let install_proc saved (img : P.image) =
  install_aspace saved img.P.i_aspace;
  let* () = install_heap saved.pi_heap img.P.i_heap in
  let* () = install_heap saved.pi_lib_heap img.P.i_lib_heap in
  (* Pools/slabs: pair by name — a deterministic same-version startup
     creates the same named set, so a mismatch means the restore target is
     not actually running the image's program configuration. *)
  let find_pool name =
    List.find_opt (fun (st : Pool.state) -> st.Pool.st_name = name) saved.pi_pools
  in
  let* () =
    iter_ok
      (fun (name, pool) ->
        match find_pool name with Some st -> Pool.restore_state pool st | None -> Ok ())
      img.P.i_pools
  in
  let* () =
    iter_ok
      (fun (name, slab) ->
        match List.assoc_opt name saved.pi_slabs with
        | Some st -> Slab.restore_state slab st
        | None -> Ok ())
      img.P.i_slabs
  in
  img.P.i_startup_complete <- saved.pi_startup_complete;
  Ok ()

(* Pair saved processes with live ones: roots first, then by creation call
   stack in creation order — the same key Manager uses to pair processes
   across versions during an update. *)
let pair_procs saved_procs members =
  match (saved_procs, members) with
  | [], _ | _, [] -> ([], saved_procs, members)
  | sroot :: srest, lroot :: lrest ->
      let remaining = ref lrest in
      let pairs = ref [ (sroot, lroot) ] in
      let skipped = ref [] in
      List.iter
        (fun s ->
          let rec take acc = function
            | [] ->
                skipped := s :: !skipped;
                List.rev acc
            | (l : P.image) :: tl when K.creation_callstack l.P.i_proc = s.pi_creation_callstack ->
                pairs := (s, l) :: !pairs;
                List.rev_append acc tl
            | l :: tl -> take (l :: acc) tl
          in
          remaining := take [] !remaining)
        srest;
      (List.rev !pairs, List.rev !skipped, !remaining)

let install t ~members =
  match members with
  | [] -> Error (Malformed { section = "proc"; reason = "restore target has no processes" })
  | root :: _ ->
      let live_prog = root.P.i_version.P.prog in
      let live_tag = root.P.i_version.P.version_tag in
      if live_prog <> t.im_prog then
        Error (Program_mismatch { image = t.im_prog; target = live_prog })
      else if live_tag <> t.im_version_tag then
        Error (Version_mismatch { image = t.im_version_tag; target = live_tag })
      else begin
        let pairs, skipped, unmatched = pair_procs t.im_procs members in
        let section s =
          Printf.sprintf "proc.%d" (Option.get (List.find_index (( == ) s) t.im_procs))
        in
        let* () =
          iter_ok
            (fun (s, l) ->
              Result.map_error
                (fun reason -> Malformed { section = section s; reason })
                (install_proc s l))
            pairs
        in
        let restored = aspace_fingerprint ~prog:t.im_prog (K.aspace root.P.i_proc) in
        if restored <> t.im_fingerprint then
          Error (Fingerprint_mismatch { image = t.im_fingerprint; restored })
        else
          Ok
            {
              paired_procs = List.length pairs;
              skipped_saved_procs = List.length skipped;
              unmatched_live_procs = List.length unmatched;
            }
      end

let restore t ~launch =
  let members = launch () in
  match install t ~members with Ok report -> Ok (members, report) | Error e -> Error e
