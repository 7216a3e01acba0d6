(* Persistent checkpoint images: codec round-trips, golden corruption
   rejection, restart-from-file under load, ctl SAVE/RESTORE, fleet
   migration/failover and offline replay of recorded updates. *)

module K = Mcr_simos.Kernel
module P = Mcr_program.Progdef
module Manager = Mcr_core.Manager
module Policy = Mcr_core.Policy
module Ctl = Mcr_core.Ctl
module Ctl_server = Mcr_core.Ctl_server
module Fault = Mcr_fault.Fault
module Image = Mcr_image.Image
module Fnv = Mcr_util.Fnv
module Metrics = Mcr_obs.Metrics
module Testbed = Mcr_workloads.Testbed
module Bench_result = Mcr_workloads.Bench_result
module Timetravel = Mcr_workloads.Timetravel
module Fleet = Mcr_fleet.Fleet
module Aspace = Mcr_vmem.Aspace
module Region = Mcr_vmem.Region

let drive kernel pred =
  ignore (K.run_until kernel ~max_ns:(K.clock_ns kernel + 30_000_000_000) pred)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let error = Alcotest.testable Image.pp_error ( = )

let tmp_image name =
  let path = Filename.temp_file ("mcr_" ^ name) ".mcrimg" in
  at_exit (fun () -> try Sys.remove path with Sys_error _ -> ());
  path

let tmp_dir name =
  let path = Filename.temp_file ("mcr_" ^ name) ".d" in
  Sys.remove path;
  Sys.mkdir path 0o755;
  path

(* A small loaded instance: launch, run the paper benchmark so heaps,
   pools and page-dirty state are non-trivial, then save. *)
let loaded_save server name =
  let kernel = K.create () in
  let m = Testbed.launch kernel server in
  ignore (Testbed.benchmark kernel server ~scale:3_000 ());
  let path = tmp_image name in
  match Manager.save_image m ~path with
  | Error e -> Alcotest.fail e
  | Ok img -> (kernel, m, path, img)

(* {1 Codec} *)

let test_roundtrip () =
  let _kernel, _m, path, img = loaded_save Testbed.Httpd "roundtrip" in
  match Image.read ~path with
  | Error e -> Alcotest.failf "read back: %s" (Image.error_to_string e)
  | Ok img' ->
      Alcotest.(check string) "prog survives" (Image.prog img) (Image.prog img');
      Alcotest.(check string) "version survives" (Image.version_tag img)
        (Image.version_tag img');
      Alcotest.(check int) "fingerprint survives" (Image.fingerprint img)
        (Image.fingerprint img');
      Alcotest.(check int) "proc count survives" (Image.proc_count img)
        (Image.proc_count img');
      Alcotest.(check int) "clock survives" (Image.clock_ns img) (Image.clock_ns img');
      Alcotest.(check string) "re-encode is byte-identical" (Image.encode img)
        (Image.encode img')

let read_lines path =
  let ic = open_in path in
  let rec go acc =
    match input_line ic with
    | line -> go (line :: acc)
    | exception End_of_file ->
        close_in ic;
        List.rev acc
  in
  go []

(* Byte identity of the codec, pinned per server: the image length, the MD5
   of its encoding and the root fingerprint. The root's first region holds
   negative and top-bit words, so a writer that lets the sign bit reach
   byte 7 changes the MD5. *)
let codec_line server =
  let kernel = K.create () in
  let m = Testbed.launch kernel server in
  ignore (Testbed.benchmark kernel server ~scale:3_000 ());
  let asp = (Manager.root_image m).P.i_aspace in
  let base = (List.hd (Aspace.regions asp)).Region.base in
  Array.iteri
    (fun i v -> Aspace.write_word asp (Mcr_vmem.Addr.add_words base i) v)
    [| -1; max_int; min_int; -42; 1 lsl 61 |];
  let img = Image.capture kernel ~members:(Manager.images m) () in
  let enc = Image.encode img in
  Printf.sprintf "%s len=%d md5=%s fingerprint=%d" (Testbed.name server) (String.length enc)
    (Digest.to_hex (Digest.string enc)) (Image.fingerprint img)

let test_codec_golden () =
  let actual =
    List.map codec_line [ Testbed.Httpd; Testbed.Nginx; Testbed.Vsftpd; Testbed.Sshd ]
  in
  let expected = read_lines "golden/image_codec.golden" in
  if actual <> expected then begin
    let oc = open_out "image_codec.actual" in
    List.iter (fun l -> output_string oc (l ^ "\n")) actual;
    close_out oc
  end;
  Alcotest.(check (list string)) "encoding matches the golden" expected actual

(* The fingerprint's definition, one [read_word] at a time: each region's
   name, base and size, then each page holding a non-zero word, its address
   followed by its words. *)
let read_word_fingerprint ~prog asp =
  let module Addr = Mcr_vmem.Addr in
  List.fold_left
    (fun acc (r : Region.t) ->
      let acc = Fnv.combine acc (Fnv.string r.Region.name) in
      let acc = Fnv.combine acc (Fnv.int r.Region.base) in
      let acc = ref (Fnv.combine acc (Fnv.int r.Region.size)) in
      for k = 0 to (r.Region.size / Addr.page_size) - 1 do
        let page = Addr.add r.Region.base (k * Addr.page_size) in
        let words =
          List.init Addr.words_per_page (fun i -> Aspace.read_word asp (Addr.add_words page i))
        in
        if List.exists (( <> ) 0) words then
          acc :=
            List.fold_left
              (fun acc w -> Fnv.combine acc (Fnv.int w))
              (Fnv.combine !acc (Fnv.int page))
              words
      done;
      !acc)
    (Fnv.string prog) (Aspace.regions asp)

(* A sparse space: zero pages, a negative word, [max_int], [min_int], and a
   run of non-zero words across a page boundary. *)
let test_fingerprint_is_read_word_fold () =
  let module Addr = Mcr_vmem.Addr in
  let asp = Aspace.create () in
  let wpp = Addr.words_per_page in
  let map name kind pages =
    Aspace.map asp ~name (Aspace.Near kind) ~size:(pages * Addr.page_size) kind
  in
  let heap = map "heap" Region.Heap 8 and mmap = map "mmap" Region.Mmap 2 in
  let put base i v = Aspace.write_word asp (Addr.add_words base i) v in
  put heap 3 (-42);
  put heap (wpp + 7) max_int;
  put heap ((5 * wpp) + 1) min_int;
  for i = (2 * wpp) - 3 to (2 * wpp) + 2 do
    put heap i (i * 0x9e3779b1)
  done;
  put mmap ((2 * wpp) - 1) (1 lsl 61);
  let expected = read_word_fingerprint ~prog:"sparse" asp in
  Alcotest.(check int) "non-zero page fold = read_word fold" expected
    (Image.aspace_fingerprint ~prog:"sparse" asp);
  put heap ((4 * wpp) + 9) 5;
  put heap ((4 * wpp) + 9) 0;
  Alcotest.(check int) "5 then 0 into a zero page leaves it" expected
    (Image.aspace_fingerprint ~prog:"sparse" asp);
  put heap (wpp + 7) 0;
  Alcotest.(check bool) "a changed word changes it" false
    (Image.aspace_fingerprint ~prog:"sparse" asp = expected)

(* One region of [pages] pages at a fixed base, word [i] of it set to [v]
   for each [(i, v)] of [writes]. *)
let one_region ?(name = "r") ~pages writes =
  let module Addr = Mcr_vmem.Addr in
  let asp = Aspace.create () in
  let base =
    Aspace.map asp ~name (Aspace.Fixed 0x100000) ~size:(pages * Addr.page_size) Region.Heap
  in
  List.iter (fun (i, v) -> Aspace.write_word asp (Addr.add_words base i) v) writes;
  Image.aspace_fingerprint ~prog:"p" asp

(* Zero pages fold nothing, so the region's size and each page's address
   are what keep layout and position in the witness. *)
let test_fingerprint_keeps_layout () =
  let wpp = Mcr_vmem.Addr.words_per_page in
  let fp = one_region ~pages:2 [ (3, 7) ] in
  Alcotest.(check bool) "the same page at another address changes it" false
    (one_region ~pages:2 [ (wpp + 3, 7) ] = fp);
  Alcotest.(check bool) "one more zero page changes it" false
    (one_region ~pages:3 [ (3, 7) ] = fp);
  Alcotest.(check bool) "renaming the region changes it" false
    (one_region ~name:"s" ~pages:2 [ (3, 7) ] = fp)

let test_layout_names_sections () =
  let _kernel, _m, _path, img = loaded_save Testbed.Vsftpd "layout" in
  let tags = List.map (fun (tag, _, _) -> tag) (Image.layout img) in
  Alcotest.(check bool) "meta section present" true (List.mem "META" tags);
  Alcotest.(check bool) "proc sections present" true (List.mem "PROC" tags);
  Alcotest.(check int) "one PROC per process" (Image.proc_count img)
    (List.length (List.filter (( = ) "PROC") tags))

(* {1 Golden corruption: every broken image is rejected with a typed error
   naming the failing section.}

   Layout under test (all integers 64-bit LE): magic at 0, format version
   at 8, section count at 16, first section (META) tag at 24, its name
   string ["meta"] at 28 (length) / 36 (bytes), its payload length at 40,
   payload at 48 — which itself starts with the program-name string, so
   byte 56 is the first program-name byte. *)

let flip s i =
  let b = Bytes.of_string s in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x01));
  Bytes.to_string b

let set_byte s i v =
  let b = Bytes.of_string s in
  Bytes.set b i (Char.chr v);
  Bytes.to_string b

let check_rejected name expected data =
  match Image.decode data with
  | Ok _ -> Alcotest.failf "%s: corrupted image decoded successfully" name
  | Error e -> Alcotest.check error name expected e

let test_corruption_goldens () =
  let _kernel, _m, _path, img = loaded_save Testbed.Httpd "goldens" in
  let enc = Image.encode img in
  let len = String.length enc in
  check_rejected "flipped magic" Image.Bad_magic (flip enc 0);
  check_rejected "empty file" (Image.Truncated { section = "header" }) "";
  check_rejected "bumped format version"
    (Image.Version_skew { found = 4; expected = 3 })
    (set_byte enc 8 4);
  (* an image of the format that stored every word of every region *)
  check_rejected "format-1 image"
    (Image.Version_skew { found = 1; expected = 3 })
    (set_byte enc 8 1);
  (* an image whose fingerprint folded every word, zero pages included:
     refused as such rather than failing install on the fingerprint *)
  check_rejected "format-2 image"
    (Image.Version_skew { found = 2; expected = 3 })
    (set_byte enc 8 2);
  (* version skew outranks every hash: a future-format image is reported
     as such even though its trailer no longer matches *)
  check_rejected "version skew beats hash check"
    (Image.Version_skew { found = 5; expected = 3 })
    (set_byte (flip enc 56) 8 5);
  check_rejected "chopped trailer"
    (Image.Truncated { section = "trailer" })
    (String.sub enc 0 (len - 1));
  check_rejected "cut mid-section"
    (Image.Truncated { section = "meta" })
    (String.sub enc 0 40);
  check_rejected "bit flip inside meta payload"
    (Image.Hash_mismatch { section = "meta" })
    (flip enc 56);
  check_rejected "bit flip in trailer"
    (Image.Hash_mismatch { section = "image" })
    (flip enc (len - 1))

let u64_le n =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 (Int64.of_int n);
  Bytes.to_string b

let w_str s = u64_le (String.length s) ^ s

(* A length field of max_int once overflowed the bounds check, so decode
   raised Invalid_argument from String.sub instead of returning a typed
   error. *)
let test_huge_length_fields () =
  let header = "MCRIMAGE" ^ u64_le Image.format_version ^ u64_le 1 ^ "META" in
  check_rejected "section name length max_int"
    (Image.Truncated { section = "META" })
    (header ^ u64_le max_int ^ "xx");
  check_rejected "section payload length max_int"
    (Image.Truncated { section = "meta" })
    (header ^ w_str "meta" ^ u64_le max_int ^ "xx");
  check_rejected "negative length"
    (Image.Truncated { section = "META" })
    (header ^ u64_le (-1) ^ "xx")

let test_unknown_section_skipped () =
  (* forward compatibility: a same-format image carrying a section tag we
     do not know decodes fine — the unknown section is skipped *)
  let _kernel, _m, _path, img = loaded_save Testbed.Httpd "forward" in
  let enc = Image.encode img in
  let body = String.sub enc 0 (String.length enc - 8) in
  let count = Int64.to_int (Bytes.get_int64_le (Bytes.of_string enc) 16) in
  let body = Bytes.of_string body in
  Bytes.blit_string (u64_le (count + 1)) 0 body 16 8;
  let payload = "opaque bytes from the future" in
  let extra = "ZZZZ" ^ w_str "future" ^ w_str payload ^ u64_le (Fnv.string payload) in
  let body = Bytes.to_string body ^ extra in
  match Image.decode (body ^ u64_le (Fnv.string body)) with
  | Error e ->
      Alcotest.failf "unknown section rejected: %s" (Image.error_to_string e)
  | Ok img' ->
      Alcotest.(check int) "payload intact" (Image.fingerprint img)
        (Image.fingerprint img');
      Alcotest.(check int) "known procs intact" (Image.proc_count img)
        (Image.proc_count img')

(* {1 Decoder totality: structured mutations of a small image}

   Decode must answer [Ok] or a typed [Error] for any bytes, never raise.
   The image is Listing1 at startup with every optional section present. *)

let listing1 () =
  let kernel = K.create () in
  K.fs_write kernel ~path:Mcr_servers.Listing1.config_path "welcome=hi";
  let m = Manager.launch kernel (Mcr_servers.Listing1.v1 ()) in
  ignore (Manager.wait_startup m ());
  (kernel, m)

let small_image =
  lazy
    (let kernel, m = listing1 () in
     let img =
       Image.capture kernel ~members:(Manager.images m) ~policy_text:"precopy=false"
         ~target_tag:"v2" ~flight_json:"{}" ()
     in
     Image.encode img)

let get_u64 s at = Int64.to_int (String.get_int64_le s at)
let put_u64 b at n = Bytes.set_int64_le b at (Int64.of_int n)

(* [(section offset, name, payload offset, payload length)] of every
   section, read from the framing. *)
let sections enc =
  let rec go off k acc =
    if k = 0 then List.rev acc
    else
      let name_len = get_u64 enc (off + 4) in
      let payload = off + 12 + name_len + 8 in
      let plen = get_u64 enc (payload - 8) in
      go (payload + plen + 8) (k - 1)
        ((off, String.sub enc (off + 12) name_len, payload, plen) :: acc)
  in
  go 24 (get_u64 enc 16) []

(* Offsets of the name and payload length fields of every section. *)
let length_fields enc =
  List.concat_map
    (fun (off, _, payload, _) -> [ off + 4; payload - 8 ])
    (sections enc)

(* Where every field of the framing starts: version, count, then per
   section its tag, both lengths and its hash, then the trailer. *)
let field_starts enc =
  [ 8; 16 ]
  @ List.concat_map
      (fun (off, _, payload, plen) -> [ off; off + 4; payload - 8; payload + plen ])
      (sections enc)
  @ [ String.length enc - 8 ]

let decode_total data =
  match Image.decode data with
  | Ok _ | Error _ -> true
  | exception e -> QCheck.Test.fail_reportf "decode raised %s" (Printexc.to_string e)

let test_truncated_at_every_boundary () =
  let enc = Lazy.force small_image in
  List.iter
    (fun at ->
      List.iter
        (fun cut ->
          match Image.decode (String.sub enc 0 cut) with
          | Error (Image.Truncated _) -> ()
          | Ok _ -> Alcotest.failf "cut at %d decoded" cut
          | Error e -> Alcotest.failf "cut at %d: %s" cut (Image.error_to_string e)
          | exception e -> Alcotest.failf "cut at %d raised %s" cut (Printexc.to_string e))
        [ at; at + 1; at + 7 ])
    (field_starts enc)

type mutation =
  | Cut of int
  | Flip of int
  | Set_length of int * int  (** section-table length field, value *)
  | Resealed of int * int
      (** a payload count or length set to a value, every hash made to match *)

let show_mutation = function
  | Cut n -> Printf.sprintf "cut at %d" n
  | Flip b -> Printf.sprintf "flip bit %d" b
  | Set_length (i, v) -> Printf.sprintf "length field %d := %d" i v
  | Resealed (i, v) -> Printf.sprintf "resealed payload candidate %d := %d" i v

(* Payload offsets whose 8 bytes read as a small positive number: nearly
   every count and string length qualifies, few page words do. *)
let small_field_offsets =
  lazy
    (let enc = Lazy.force small_image in
     List.concat_map
       (fun (_, _, payload, plen) ->
         List.filter
           (fun at ->
             let v = get_u64 enc at in
             v > 0 && v < 4096)
           (List.init (max 0 (plen - 7)) (fun k -> payload + k)))
       (sections enc)
     |> Array.of_list)

(* Recompute every section hash and the trailer over the mutated bytes. *)
let reseal b =
  let enc = Bytes.to_string b in
  List.iter
    (fun (_, _, payload, plen) -> put_u64 b (payload + plen) (Fnv.string (String.sub enc payload plen)))
    (sections enc);
  let body = Bytes.length b - 8 in
  put_u64 b body (Fnv.string (Bytes.sub_string b 0 body))

let apply enc = function
  | Cut n -> String.sub enc 0 n
  | Flip bit ->
      let b = Bytes.of_string enc in
      let i = bit / 8 in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl (bit mod 8))));
      Bytes.to_string b
  | Set_length (i, v) ->
      let lengths = length_fields enc in
      let b = Bytes.of_string enc in
      put_u64 b (List.nth lengths (i mod List.length lengths)) v;
      Bytes.to_string b
  | Resealed (i, v) ->
      let offsets = Lazy.force small_field_offsets in
      let b = Bytes.of_string enc in
      put_u64 b offsets.(i mod Array.length offsets) v;
      reseal b;
      Bytes.to_string b

let prop_decode_total =
  let gen =
    let open QCheck.Gen in
    let n = String.length (Lazy.force small_image) in
    let value = oneofl [ max_int; -1; 0; min_int; 1 lsl 40; 7 ] in
    frequency
      [
        (2, map (fun k -> Cut k) (int_range 0 (n - 1)));
        (2, map (fun k -> Flip k) (int_range 0 ((8 * n) - 1)));
        (2, map2 (fun i v -> Set_length (i, v)) (int_range 0 1000) value);
        (4, map2 (fun i v -> Resealed (i, v)) (int_range 0 100_000) value);
      ]
  in
  QCheck.Test.make ~count:400 ~name:"image.decode_total"
    (QCheck.make ~print:show_mutation gen)
    (fun m -> decode_total (apply (Lazy.force small_image) m))

(* {1 The region table is checked at decode}

   Install maps, fills and stamps what the region table says, so decode
   must refuse a table install cannot honour instead of letting install
   raise. The fields: each region's base and size, its run count and each
   run's first page and word count, and each page state's page address.
   The allocator state install rebuilds over the memory is checked too:
   each pool chunk's base, word count and bump cursor, and each slab's
   slot size. *)

type table_field =
  | Base
  | Size
  | Runs
  | Run_page
  | Run_words
  | Page
  | Chunk_base
  | Chunk_words
  | Chunk_bump
  | Slot_words

let show_table_field = function
  | Base -> "base"
  | Size -> "size"
  | Runs -> "run count"
  | Run_page -> "run page"
  | Run_words -> "run words"
  | Page -> "page"
  | Chunk_base -> "pool chunk base"
  | Chunk_words -> "pool chunk words"
  | Chunk_bump -> "pool chunk bump"
  | Slot_words -> "slab slot words"

(* [(section, field, offset)] for every region-table and allocator field
   of every PROC section, walking the payload layout of
   [Image.encode_proc]. *)
let table_fields enc =
  List.concat_map
    (fun (_, name, payload, plen) ->
      if not (String.starts_with ~prefix:"proc." name) then []
      else begin
        let at = ref payload in
        let u64 () =
          let v = get_u64 enc !at in
          at := !at + 8;
          v
        in
        let skip n = at := !at + n in
        let skip_str () = skip (u64 ()) in
        let list f =
          for _ = 1 to u64 () do
            f ()
          done
        in
        let fields = ref [] in
        let field f = fields := (name, f, !at) :: !fields in
        (* pid, name, call stack, startup flag, layout bias, write seq, fds *)
        skip 8;
        skip_str ();
        skip 32;
        list (fun () -> skip 8);
        list (fun () ->
            skip_str ();
            skip_str ();
            field Base;
            skip 8;
            field Size;
            skip 8;
            field Runs;
            list (fun () ->
                field Run_page;
                skip 8;
                field Run_words;
                skip (8 * u64 ())));
        list (fun () ->
            field Page;
            skip 32);
        (* epochs, threads, heap and lib heap *)
        list (fun () ->
            skip_str ();
            skip 8);
        list (fun () ->
            skip 8;
            skip_str ();
            list skip_str;
            if u64 () <> 0 then skip_str ());
        for _ = 1 to 2 do
          if u64 () <> 0 then skip 48
        done;
        let rec pool () =
          (* name, instrument flag, chunk words, three counters *)
          skip_str ();
          skip 40;
          list (fun () ->
              field Chunk_base;
              skip 8;
              field Chunk_words;
              skip 8;
              field Chunk_bump;
              skip 16);
          list pool
        in
        list pool;
        list (fun () ->
            skip_str ();
            field Slot_words;
            skip 8;
            list (fun () -> skip 8);
            skip 16);
        assert (!at = payload + plen);
        List.rev !fields
      end)
    (sections enc)

let reseal_field enc at v =
  let b = Bytes.of_string enc in
  put_u64 b at v;
  reseal b;
  Bytes.to_string b

let field_at enc section f k =
  match List.filter (fun (s, g, _) -> s = section && g = f) (table_fields enc) with
  | [] -> Alcotest.failf "no %s field in %s" (show_table_field f) section
  | l ->
      let _, _, at = List.nth l k in
      at

(* [enc] with proc.0's payload replaced by [edit rel payload], its length
   and every hash fixed; [rel f k] is the payload offset of the [k]th
   field [f]. *)
let edit_proc0 enc edit =
  let _, _, payload, plen = List.find (fun (_, n, _, _) -> n = "proc.0") (sections enc) in
  let rel f k = field_at enc "proc.0" f k - payload in
  let p = edit rel (String.sub enc payload plen) in
  let b =
    Bytes.of_string
      (String.sub enc 0 (payload - 8)
      ^ u64_le (String.length p)
      ^ p
      ^ String.sub enc (payload + plen) (String.length enc - payload - plen))
  in
  reseal b;
  Bytes.to_string b

let set_u64 p at v =
  let b = Bytes.of_string p in
  put_u64 b at v;
  Bytes.to_string b

let splice p at ~drop ins =
  String.sub p 0 at ^ ins ^ String.sub p (at + drop) (String.length p - at - drop)

(* nginx at startup with region allocators instrumented: a heap region of
   two runs, a pool whose chunk is a micro heap and a slab, in each of its
   two processes. *)
let nginx_regions kernel =
  Testbed.launch ~instr:(Mcr_program.Instr.with_regions Mcr_program.Instr.full) kernel
    Testbed.Nginx

let nginx_image =
  lazy
    (let kernel = K.create () in
     let m = nginx_regions kernel in
     Image.encode (Image.capture kernel ~members:(Manager.images m) ()))

(* Each region of proc.0 as its index among the [Base] fields and the
   indexes of its runs among the [Run_page] fields. *)
let region_runs enc =
  let rev_regions = ref [] and run = ref 0 in
  List.iter
    (fun (s, f, _) ->
      if s = "proc.0" then
        match (f, !rev_regions) with
        | Base, rs -> rev_regions := (List.length rs, []) :: rs
        | Run_page, (r, ks) :: rs ->
            rev_regions := (r, ks @ [ !run ]) :: rs;
            incr run
        | _ -> ())
    (table_fields enc);
  List.rev !rev_regions

let expect_malformed what ?reason data =
  match Image.decode data with
  | Error (Image.Malformed { section = "proc.0"; reason = r }) -> (
      match reason with
      | Some needle when not (contains r needle) ->
          Alcotest.failf "%s: reason %S does not say %S" what r needle
      | _ -> ())
  | Ok _ -> Alcotest.failf "%s: decoded" what
  | Error e -> Alcotest.failf "%s: %s" what (Image.error_to_string e)

let test_region_table_malformed () =
  let enc = Lazy.force nginx_image in
  let page = Mcr_vmem.Addr.page_size and page_words = Mcr_vmem.Addr.words_per_page in
  let get f k rel p = get_u64 p (rel f k) in
  let field f k change rel p = set_u64 p (rel f k) (change (get f k rel p)) in
  let last =
    List.length (List.filter (fun (s, f, _) -> s = "proc.0" && f = Base) (table_fields enc)) - 1
  in
  let region, a, b, z =
    match List.find_opt (fun (_, ks) -> List.length ks >= 2) (region_runs enc) with
    | Some (r, (a :: b :: _ as ks)) -> (r, a, b, List.nth ks (List.length ks - 1))
    | _ -> Alcotest.fail "no region of two runs"
  in
  let pages k rel p = get Run_words k rel p / page_words in
  (* run [k] with [words] words, its word bytes cut or padded to match *)
  let resize_run k words rel p =
    let at = rel Run_words k and n = get Run_words k rel p in
    let p = set_u64 p at words in
    if words < n then splice p (at + 8 + (8 * words)) ~drop:(8 * (n - words)) ""
    else splice p (at + 8 + (8 * n)) ~drop:0 (String.make (8 * (words - n)) '\001')
  in
  let cases =
    [
      ("zero size", None, field Size 0 (fun _ -> 0));
      (* the last region, so that no region above it overlaps *)
      ("size not a page multiple", None, field Size last (fun v -> v + 8));
      (* install would map every page of it *)
      ("size 1 lsl 40", Some "ceiling", field Size last (fun _ -> 1 lsl 40));
      ("base not page-aligned", None, field Base 0 (fun v -> v + 8));
      ("base at the null page", None, field Base 0 (fun _ -> 0));
      ("base near the top of the address space", None, field Base 0 (fun _ -> max_int - page + 1));
      ( "second region over the first",
        None,
        fun rel p -> field Base 1 (fun _ -> get Base 0 rel p) rel p );
      ("page state not page-aligned", None, field Page 0 (fun v -> v + 8));
      ("page state outside every region", None, field Page 0 (fun _ -> 1 lsl 40));
      ( "runs out of order",
        Some "not above the run before it",
        fun rel p ->
          let pa = get Run_page a rel p and pb = get Run_page b rel p in
          field Run_page b (fun _ -> pa) rel (field Run_page a (fun _ -> pb) rel p) );
      ( "runs overlapping",
        Some "not above the run before it",
        fun rel p -> field Run_page b (fun _ -> get Run_page a rel p + pages a rel p - 1) rel p );
      ( "run past the region end",
        Some "ends past",
        fun rel p ->
          field Run_page z (fun _ -> (get Size region rel p / page) - pages z rel p + 1) rel p );
      ( "run one word short of a page multiple",
        Some "not a positive number of pages",
        fun rel p -> resize_run a (get Run_words a rel p - 1) rel p );
      ( "run one word past a page multiple",
        Some "not a positive number of pages",
        fun rel p -> resize_run a (get Run_words a rel p + 1) rel p );
      ("empty run", Some "not a positive number of pages", resize_run a 0);
      ("run count max_int", Some "runs past the end", field Runs region (fun _ -> max_int));
      ("run count negative", Some "runs past the end", field Runs region (fun _ -> -1));
      ("run words max_int", Some "runs past the end", field Run_words a (fun _ -> max_int));
      ("run words negative", Some "runs past the end", field Run_words a (fun _ -> -1));
    ]
  in
  (* The same image without page states, so that no check on the page
     states can stand in for a check on the regions. *)
  let bare =
    edit_proc0 enc (fun rel p ->
        let count_at = rel Page 0 - 8 in
        splice (set_u64 p count_at 0) (count_at + 8) ~drop:(32 * get_u64 p count_at) "")
  in
  (match Image.decode bare with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "no page states: %s" (Image.error_to_string e));
  List.iter
    (fun (variant, img) ->
      List.iter
        (fun (name, reason, edit) ->
          if not (variant = "bare" && String.starts_with ~prefix:"page state" name) then
            expect_malformed (variant ^ ", " ^ name) ?reason (edit_proc0 img edit))
        cases)
    [ ("full", enc); ("bare", bare) ]

(* A fresh instance of the image's server, to install over. *)
let install_target = function
  | `Listing1 -> snd (listing1 ())
  | `Nginx -> nginx_regions (K.create ())

(* The allocator state install rebuilds is checked before it is trusted:
   a pool chunk outside every region at decode, a chunk whose micro heap
   finds no block tiling and a slab slot size the live slab does not have
   at install. Each answers [Malformed] naming the process. *)
let test_allocator_state_checked () =
  let enc = Lazy.force nginx_image in
  let at f = field_at enc "proc.0" f 0 in
  expect_malformed "pool chunk outside every region" ~reason:"pool"
    (reseal_field enc (at Chunk_base) (1 lsl 40));
  expect_malformed "pool chunk bump past its words" ~reason:"pool"
    (reseal_field enc (at Chunk_bump) (get_u64 enc (at Chunk_words) + 1));
  let installs what ~reason data =
    match Image.decode data with
    | Error e -> Alcotest.failf "%s: decode: %s" what (Image.error_to_string e)
    | Ok img -> (
        match Image.install img ~members:(Manager.images (install_target `Nginx)) with
        | Error (Image.Malformed { section = "proc.0"; reason = r }) when contains r reason -> ()
        | Ok _ -> Alcotest.failf "%s: installed" what
        | Error e -> Alcotest.failf "%s: %s" what (Image.error_to_string e)
        | exception e -> Alcotest.failf "%s: install raised %s" what (Printexc.to_string e))
  in
  installs "pool chunk a word off its block" ~reason:"pool"
    (reseal_field enc (at Chunk_base) (get_u64 enc (at Chunk_base) + 8));
  installs "slab slot size the live slab lacks" ~reason:"slab"
    (reseal_field enc (at Slot_words) (get_u64 enc (at Slot_words) + 1))

(* Decode then install every [Ok] into a fresh instance of the image's
   server: install answers [Ok] or a typed [Error] and never raises. *)
let prop_region_table_install_total =
  let image = function `Listing1 -> Lazy.force small_image | `Nginx -> Lazy.force nginx_image in
  let gen =
    let open QCheck.Gen in
    let delta =
      oneofl
        [ `Add 4096; `Add (-4096); `Add 8; `Add (-8); `Add 1; `Set max_int; `Set (-1); `Set 0;
          `Set min_int; `Set (1 lsl 40); `Set 7 ]
    in
    triple (oneofl [ `Listing1; `Nginx ]) (int_range 0 100_000) delta
  in
  let pick server i =
    let fields = Array.of_list (table_fields (image server)) in
    fields.(i mod Array.length fields)
  in
  let show (server, i, d) =
    let section, f, _ = pick server i in
    Printf.sprintf "%s %s %s field #%d %s"
      (match server with `Listing1 -> "listing1" | `Nginx -> "nginx")
      section (show_table_field f) i
      (match d with `Add n -> Printf.sprintf "+= %d" n | `Set v -> Printf.sprintf ":= %d" v)
  in
  QCheck.Test.make ~count:200 ~name:"image.region_table_install_total" (QCheck.make ~print:show gen)
    (fun (server, i, d) ->
      let enc = image server in
      let _, _, at = pick server i in
      let v = match d with `Add n -> get_u64 enc at + n | `Set v -> v in
      match Image.decode (reseal_field enc at v) with
      | Error _ -> true
      | exception e -> QCheck.Test.fail_reportf "decode raised %s" (Printexc.to_string e)
      | Ok img -> (
          match Image.install img ~members:(Manager.images (install_target server)) with
          | Ok _ | Error _ -> true
          | exception e -> QCheck.Test.fail_reportf "install raised %s" (Printexc.to_string e)))

(* {1 The sparse install writes what the every-word install wrote}

   An image stores only the pages holding a non-zero word; install writes
   the pages between its runs as zeros. [every_word_install] is the
   install of the format that stored every word, kept as a model: the same
   region reconciliation and dirty-tracking restore, with every word of
   every region stored from the saved space. Both run over the same page
   mixes, into twin targets, and must leave the same root address space. *)

let every_word_install ~src dst =
  let same (r : Region.t) (s : Region.t) =
    r.Region.base = s.Region.base && r.size = s.size && r.kind = s.kind
  in
  List.iter
    (fun (r : Region.t) ->
      if not (List.exists (same r) (Aspace.regions src)) then Aspace.unmap dst r.Region.base)
    (Aspace.regions dst);
  List.iter
    (fun (s : Region.t) ->
      if not (List.exists (same s) (Aspace.regions dst)) then
        ignore (Aspace.map dst ~name:s.Region.name (Aspace.Fixed s.base) ~size:s.size s.kind);
      let words = s.size / Mcr_vmem.Addr.word_size in
      let buf = Bytes.create s.size in
      Aspace.read_bytes src s.base ~words buf ~pos:0;
      Aspace.write_bytes_untracked dst s.base ~words (Bytes.unsafe_to_string buf) ~pos:0)
    (Aspace.regions src);
  Aspace.set_write_seq dst (Aspace.write_seq src);
  List.iter (Aspace.restore_page_state dst) (Aspace.page_states src);
  Aspace.restore_epochs dst (Aspace.epochs src)

(* What a saved page holds, and what the target's startup left in it. *)
type saved_page = Untouched | Nonzero | Zeroed | Shared_zero | Shared_nonzero
type target_page = Fresh | Junk | Shared_fresh | Shared_junk

let show_saved = function
  | Untouched -> "untouched"
  | Nonzero -> "nonzero"
  | Zeroed -> "zeroed"
  | Shared_zero -> "shared-zero"
  | Shared_nonzero -> "shared-nonzero"

let show_target = function
  | Fresh -> "fresh"
  | Junk -> "junk"
  | Shared_fresh -> "shared-fresh"
  | Shared_junk -> "shared-junk"

let mix_pages = 12

let page_at base i = Mcr_vmem.Addr.add base (i * Mcr_vmem.Addr.page_size)

(* Store [v] at two words of page [i] of the region at [base]. *)
let write_page asp base i v =
  List.iter
    (fun j -> Aspace.write_word asp (Mcr_vmem.Addr.add_words (page_at base i) j) v)
    [ 1; Mcr_vmem.Addr.words_per_page - 1 ]

(* Page [i] given the same words in [asp] and [donor], then [donor]'s frame
   shared into [asp]. *)
let share_into asp donor base i v =
  write_page donor base i v;
  write_page asp base i v;
  Aspace.share_page ~src:donor (page_at base i) ~dst:asp (page_at base i)

(* A donor space holding the mix region at the same base, for sharing. *)
let donor_for base =
  let donor = Aspace.create () in
  ignore
    (Aspace.map donor (Aspace.Fixed base) ~size:(mix_pages * Mcr_vmem.Addr.page_size) Region.Mmap);
  donor

let prop_sparse_install_lockstep =
  let gen =
    QCheck.Gen.(
      triple
        (list_repeat mix_pages
           (oneofl [ Untouched; Nonzero; Zeroed; Shared_zero; Shared_nonzero ]))
        (list_repeat mix_pages (oneofl [ Fresh; Junk; Shared_fresh; Shared_junk ]))
        bool)
  in
  let show (saved, target, premapped) =
    Printf.sprintf "saved [%s] target [%s]%s"
      (String.concat " " (List.map show_saved saved))
      (String.concat " " (List.map show_target target))
      (if premapped then " premapped" else "")
  in
  QCheck.Test.make ~count:200 ~name:"image.sparse_install_lockstep" (QCheck.make ~print:show gen)
    (fun (saved, target, premapped) ->
      let kernel, m = listing1 () in
      let src = (Manager.root_image m).P.i_aspace in
      let size = mix_pages * Mcr_vmem.Addr.page_size in
      let base = Aspace.map src ~name:"mix" (Aspace.Near Region.Mmap) ~size Region.Mmap in
      let donor = donor_for base in
      List.iteri
        (fun i kind ->
          match kind with
          | Untouched -> ()
          | Nonzero -> write_page src base i (i + 1)
          | Zeroed ->
              write_page src base i (-1);
              write_page src base i 0
          | Shared_zero -> Aspace.share_page ~src:donor (page_at base i) ~dst:src (page_at base i)
          | Shared_nonzero -> share_into src donor base i min_int)
        saved;
      let img =
        match Image.decode (Image.encode (Image.capture kernel ~members:(Manager.images m) ())) with
        | Ok img -> img
        | Error e -> QCheck.Test.fail_reportf "decode: %s" (Image.error_to_string e)
      in
      (* twin targets: the mix region mapped or not, with the same junk *)
      let twin () =
        let _, m = listing1 () in
        let asp = (Manager.root_image m).P.i_aspace in
        if premapped then begin
          ignore (Aspace.map asp ~name:"mix" (Aspace.Fixed base) ~size Region.Mmap);
          let donor = donor_for base in
          List.iteri
            (fun i kind ->
              match kind with
              | Fresh -> ()
              | Junk -> write_page asp base i 7
              | Shared_fresh ->
                  Aspace.share_page ~src:donor (page_at base i) ~dst:asp (page_at base i)
              | Shared_junk -> share_into asp donor base i 9)
            target
        end;
        (m, asp)
      in
      let m_sparse, sparse = twin () and _, model = twin () in
      (match Image.install img ~members:(Manager.images m_sparse) with
      | Ok _ -> ()
      | Error e -> QCheck.Test.fail_reportf "install: %s" (Image.error_to_string e));
      every_word_install ~src model;
      let check what eq f =
        if not (eq (f sparse) (f model)) then QCheck.Test.fail_reportf "%s differs" what
      in
      check "fingerprint" ( = ) (Image.aspace_fingerprint ~prog:"listing1");
      check "page_states" ( = ) Aspace.page_states;
      check "write_seq" ( = ) Aspace.write_seq;
      check "epochs" ( = ) Aspace.epochs;
      check "resident_bytes" ( = ) Aspace.resident_bytes;
      check "touched_bytes" ( = ) Aspace.touched_bytes;
      check "shared_frame_count" ( = ) Aspace.shared_frame_count;
      Image.aspace_fingerprint ~prog:(Image.prog img) sparse = Image.fingerprint img)

(* {1 Atomic write} *)

let file_contents path = In_channel.with_open_bin path In_channel.input_all

let test_write_replaces_atomically () =
  let _k, _m, _path, first = loaded_save Testbed.Httpd "atomic_a" in
  let _k, _m, _path, second = loaded_save Testbed.Vsftpd "atomic_b" in
  let dir = tmp_dir "atomic" in
  let path = Filename.concat dir "img.mcrimg" in
  let write img =
    match Image.write img ~path with
    | Ok () -> ()
    | Error e -> Alcotest.failf "write: %s" (Image.error_to_string e)
  in
  write first;
  write second;
  (match Image.read ~path with
  | Ok back ->
      Alcotest.(check string) "the newer image is the one on disk" (Image.encode second)
        (Image.encode back)
  | Error e -> Alcotest.failf "overwritten image unreadable: %s" (Image.error_to_string e));
  Alcotest.(check (array string)) "no temporary file left behind" [| "img.mcrimg" |]
    (Sys.readdir dir)

let test_write_failure_keeps_target () =
  let _k, _m, path, img = loaded_save Testbed.Httpd "atomic_keep" in
  let before = file_contents path in
  let rejected target =
    match Image.write img ~path:target with
    | Error (Image.Io _) -> ()
    | Ok () -> Alcotest.failf "write to %s succeeded" target
    | Error e -> Alcotest.failf "write to %s: %s" target (Image.error_to_string e)
  in
  rejected "/nonexistent-dir/x.mcrimg";
  (* the existing image as a directory component: the write fails before
     anything is created, and the image is untouched *)
  rejected (Filename.concat path "x.mcrimg");
  Alcotest.(check bool) "existing image unchanged" true (file_contents path = before);
  (* a target the rename cannot replace: the image is fully written to the
     temporary file first, which is removed when the rename fails *)
  let dir = tmp_dir "atomic_rename" in
  let target = Filename.concat dir "img.mcrimg" in
  Sys.mkdir target 0o755;
  Out_channel.with_open_bin (Filename.concat target "keep") (fun oc ->
      output_string oc "kept");
  rejected target;
  Alcotest.(check (array string)) "temporary file removed" [| "img.mcrimg" |] (Sys.readdir dir);
  Alcotest.(check string) "target left as it was" "kept"
    (file_contents (Filename.concat target "keep"))

(* {1 Restart-from-file} *)

let test_restore_under_load () =
  (* the acceptance scenario: nginx saved under load (benchmark traffic
     plus held-open connections) restores into a brand-new kernel with a
     byte-identical root fingerprint, resumes serving, and a subsequent
     live update still commits *)
  let kernel = K.create () in
  let m = Testbed.launch kernel Testbed.Nginx in
  let _holders = Testbed.open_holders kernel Testbed.Nginx ~n:4 in
  ignore (Testbed.benchmark kernel Testbed.Nginx ~scale:3_000 ());
  let path = tmp_image "nginx_load" in
  let img =
    match Manager.save_image m ~path with
    | Error e -> Alcotest.fail e
    | Ok img -> img
  in
  match Timetravel.restore img with
  | Error e -> Alcotest.fail e
  | Ok (k2, m2, report) ->
      Alcotest.(check bool) "root paired" true (report.Image.paired_procs >= 1);
      Alcotest.(check int) "restored fingerprint is byte-identical"
        (Image.fingerprint img)
        (Image.aspace_fingerprint ~prog:(Image.prog img)
           (K.aspace (Manager.root_proc m2)));
      let r = Testbed.benchmark k2 Testbed.Nginx ~scale:3_000 () in
      Alcotest.(check int) "restored instance serves without errors" 0
        r.Bench_result.errors;
      Alcotest.(check bool) "restored instance completes requests" true
        (r.Bench_result.requests > 0);
      let _m3, rep = Manager.update m2 (Testbed.final_version Testbed.Nginx) in
      Alcotest.(check bool) "update after restore commits" true rep.Manager.success

let test_install_refuses_wrong_program () =
  let _k, _m, _path, img = loaded_save Testbed.Httpd "mismatch" in
  let kernel = K.create () in
  let m = Testbed.launch kernel Testbed.Nginx in
  match Manager.restore_image m img with
  | Ok _ -> Alcotest.fail "httpd image restored over nginx"
  | Error e ->
      Alcotest.(check bool) "error names both programs" true
        (contains e (Testbed.base_version Testbed.Httpd).P.prog
        && contains e (Testbed.base_version Testbed.Nginx).P.prog)

(* {1 Control socket} *)

let test_ctl_save_restore () =
  let kernel = K.create () in
  let m = Testbed.launch kernel Testbed.Httpd in
  let ctl = Manager.ctl_path m in
  let path = tmp_image "ctl" in
  let reply = ref None in
  Ctl.exec kernel ~path:ctl (Ctl.Frame.Save path) ~on_result:(fun r -> reply := Some r) ();
  drive kernel (fun () -> !reply <> None);
  let fp =
    match !reply with
    | Some (Ok s) -> int_of_string s
    | Some (Error e) -> Alcotest.failf "SAVE refused: %a" Ctl.pp_error e
    | None -> Alcotest.fail "no SAVE reply"
  in
  (* serve more traffic so live state drifts away from the image... *)
  ignore (Testbed.benchmark kernel Testbed.Httpd ~scale:3_000 ());
  (* ...then restore in place over the control socket *)
  let reply = ref None in
  Ctl.exec kernel ~path:ctl (Ctl.Frame.Restore path) ~on_result:(fun r -> reply := Some r) ();
  drive kernel (fun () -> !reply <> None);
  (match !reply with
  | Some (Ok s) ->
      Alcotest.(check bool) "RESTORE reply carries the fingerprint" true
        (contains s (Printf.sprintf "fingerprint=%d" fp))
  | Some (Error e) -> Alcotest.failf "RESTORE refused: %a" Ctl.pp_error e
  | None -> Alcotest.fail "no RESTORE reply");
  Alcotest.(check int) "live state wound back to the saved fingerprint" fp
    (Image.aspace_fingerprint
       ~prog:(Testbed.base_version Testbed.Httpd).P.prog
       (K.aspace (Manager.root_proc m)))

let test_ctl_save_bad_path () =
  let kernel = K.create () in
  let m = Testbed.launch kernel Testbed.Httpd in
  let reply = ref None in
  Ctl.exec kernel ~path:(Manager.ctl_path m)
    (Ctl.Frame.Save "/nonexistent-dir/x.mcrimg")
    ~on_result:(fun r -> reply := Some r)
    ();
  drive kernel (fun () -> !reply <> None);
  match !reply with
  | Some (Error _) -> ()
  | Some (Ok s) -> Alcotest.failf "SAVE to unwritable path answered OK %s" s
  | None -> Alcotest.fail "no reply"

let test_ctl_save_long_path () =
  (* a frame over the request limit is refused whole: cut at the limit, its
     path would still name a writable file in [dir] *)
  let kernel = K.create () in
  let m = Testbed.launch kernel Testbed.Httpd in
  let dir = tmp_dir "ctl_long" in
  let path = Filename.concat dir (String.make Ctl_server.max_request 'a') in
  let reply = ref None in
  Ctl.exec kernel ~path:(Manager.ctl_path m) (Ctl.Frame.Save path)
    ~on_result:(fun r -> reply := Some r)
    ();
  drive kernel (fun () -> !reply <> None);
  let written = Sys.readdir dir in
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) written;
  Sys.rmdir dir;
  (match !reply with
  | Some (Error (Ctl.Refused _)) -> ()
  | Some (Ok s) -> Alcotest.failf "over-long SAVE answered OK %s" s
  | Some (Error e) -> Alcotest.failf "over-long SAVE: %a" Ctl.pp_error e
  | None -> Alcotest.fail "no reply");
  Alcotest.(check (array string)) "no file written" [||] written

(* {1 Property: save -> restore preserves state and behaviour} *)

let prop_save_restore_identity =
  QCheck.Test.make ~count:4 ~name:"image.save_restore_identity"
    (QCheck.oneofl Testbed.all)
    (fun server ->
      let kernel = K.create () in
      let m = Testbed.launch kernel server in
      ignore (Testbed.benchmark kernel server ~scale:2_000 ());
      let path = tmp_image "prop" in
      let img =
        match Manager.save_image m ~path with
        | Error e -> QCheck.Test.fail_reportf "save: %s" e
        | Ok img -> img
      in
      match Timetravel.restore img with
      | Error e -> QCheck.Test.fail_reportf "restore: %s" e
      | Ok (k2, m2, _) ->
          let fp =
            Image.aspace_fingerprint ~prog:(Image.prog img)
              (K.aspace (Manager.root_proc m2))
          in
          if fp <> Image.fingerprint img then
            QCheck.Test.fail_reportf "fingerprint drift: %d <> %d" fp
              (Image.fingerprint img);
          (* the original (released after the save quiesce) and the restored
             copy hold identical state, so the same workload must get
             identical answers from both *)
          let a = Testbed.benchmark kernel server ~scale:2_000 () in
          let b = Testbed.benchmark k2 server ~scale:2_000 () in
          a.Bench_result.requests = b.Bench_result.requests
          && a.Bench_result.errors = b.Bench_result.errors
          && a.Bench_result.bytes = b.Bench_result.bytes)

(* {1 Fleet: migration and standby failover} *)

let test_fleet_migrate () =
  let fleet = Fleet.of_testbed Testbed.Nginx ~n:2 in
  let path = tmp_image "migrate" in
  (match Fleet.migrate_instance fleet 0 ~path with
  | Error e -> Alcotest.fail e
  | Ok fp ->
      Alcotest.(check int) "replacement carries the shipped state" fp
        (Fleet.image_fingerprint fleet 0));
  Alcotest.(check bool) "migrated instance serves" true (Fleet.healthy fleet 0);
  Fleet.refresh_serving fleet;
  Alcotest.(check int) "both instances back in rotation" 2 (Fleet.serving fleet);
  Alcotest.(check (option int)) "migration counted"
    (Some 1)
    (Metrics.find_counter (Fleet.metrics_snapshot fleet) "mcr_fleet_migrations_total")

(* The shipped file is damaged after the save, before it is read back (the
   relaunch hook runs in between): the migration fails with the read
   error, and the original instance is back in rotation with its state. *)
let test_fleet_migrate_corrupt_file () =
  let server = Testbed.Nginx in
  let path = tmp_image "migrate_corrupt" in
  let spawn _ =
    let kernel = K.create () in
    (kernel, Testbed.launch kernel server)
  in
  let relaunch i ~version_tag:_ =
    let data = file_contents path in
    Out_channel.with_open_bin path (fun oc -> output_string oc (flip data 56));
    Ok (spawn i)
  in
  let fleet =
    Fleet.create ~relaunch ~prog:(Testbed.name server) ~n:2 ~spawn
      ~health:(fun _ _ -> true)
      ~target:(fun _ -> Testbed.final_version server)
      ~revert:(fun _ -> Testbed.base_version server)
      ()
  in
  let before = Fleet.image_fingerprint fleet 0 in
  (match Fleet.migrate_instance fleet 0 ~path with
  | Ok _ -> Alcotest.fail "a corrupted image was installed"
  | Error e ->
      Alcotest.(check bool) "the read error is reported" true (contains e "integrity failure"));
  Alcotest.(check int) "the original keeps its state" before (Fleet.image_fingerprint fleet 0);
  Fleet.refresh_serving fleet;
  Alcotest.(check int) "both instances in rotation" 2 (Fleet.serving fleet);
  Alcotest.(check (option int)) "no migration counted" (Some 0)
    (Metrics.find_counter (Fleet.metrics_snapshot fleet) "mcr_fleet_migrations_total")

let test_fleet_standby_failover () =
  let fleet = Fleet.of_testbed Testbed.Httpd ~n:2 in
  let sb =
    match Fleet.arm_standby fleet 1 with
    | Error e -> Alcotest.fail e
    | Ok sb -> sb
  in
  (* arming is non-disruptive: the primary keeps serving afterwards *)
  Alcotest.(check bool) "primary serves after arming" true (Fleet.healthy fleet 1);
  (match Fleet.failover_instance fleet 0 sb with
  | Ok _ -> Alcotest.fail "standby for instance 1 accepted by instance 0"
  | Error _ -> ());
  (match Fleet.failover_instance fleet 1 sb with
  | Error e -> Alcotest.fail e
  | Ok fp ->
      Alcotest.(check int) "failover reports the armed fingerprint"
        (Fleet.standby_fingerprint sb) fp;
      Alcotest.(check int) "standby carries the armed state" fp
        (Fleet.image_fingerprint fleet 1));
  Alcotest.(check bool) "standby serves" true (Fleet.healthy fleet 1);
  Alcotest.(check (option int)) "failover counted"
    (Some 1)
    (Metrics.find_counter (Fleet.metrics_snapshot fleet) "mcr_fleet_failovers_total")

(* {1 Replay: the image written at quiesce re-runs the recorded update} *)

(* A seed whose injected fault fires after the quiescent point (so the
   checkpoint image is still captured) yet forces a rollback. The seed
   rides inside the image's policy text, so the replay re-arms it. *)
let rollback_seed =
  let rec find s =
    if s > 10_000 then Alcotest.fail "no replay-conflict seed below 10000"
    else
      let f = Fault.of_seed s in
      if Fault.fires f Fault.Replay_conflict || Fault.fires f Fault.Transfer_conflict
      then s
      else find (s + 1)
  in
  lazy (find 1)

let written_image dir =
  match Sys.readdir dir with
  | [| file |] -> Filename.concat dir file
  | files -> Alcotest.failf "expected one image in %s, found %d" dir (Array.length files)

let test_replay_reproduces_rollback () =
  let dir = tmp_dir "replay_rb" in
  let kernel = K.create () in
  let m = Testbed.launch kernel Testbed.Httpd in
  ignore (Testbed.benchmark kernel Testbed.Httpd ~scale:2_000 ());
  let policy =
    Policy.default
    |> Policy.with_image_dir (Some dir)
    |> Policy.with_fault_seed (Some (Lazy.force rollback_seed))
  in
  let _m2, report = Manager.update m ~policy (Testbed.final_version Testbed.Httpd) in
  Alcotest.(check bool) "injected fault rolled the update back" false
    report.Manager.success;
  let path = written_image dir in
  match Timetravel.replay_path ~path with
  | Error e -> Alcotest.fail e
  | Ok v ->
      Alcotest.(check bool) "recorded verdict is a rollback" false
        v.Timetravel.v_expected_success;
      Alcotest.(check bool) "offline re-run reproduces reason and stage" true
        v.Timetravel.v_reproduced

let test_replay_reproduces_commit () =
  let dir = tmp_dir "replay_ok" in
  let kernel = K.create () in
  let m = Testbed.launch kernel Testbed.Vsftpd in
  ignore (Testbed.benchmark kernel Testbed.Vsftpd ~scale:2_000 ());
  let policy = Policy.default |> Policy.with_image_dir (Some dir) in
  let _m2, report = Manager.update m ~policy (Testbed.final_version Testbed.Vsftpd) in
  Alcotest.(check bool) "update committed" true report.Manager.success;
  let path = written_image dir in
  match Timetravel.replay_path ~path with
  | Error e -> Alcotest.fail e
  | Ok v ->
      Alcotest.(check bool) "recorded verdict is a commit" true
        v.Timetravel.v_expected_success;
      Alcotest.(check bool) "offline re-run commits too" true
        v.Timetravel.v_reproduced

let test_replay_requires_flight () =
  (* a manually saved image (no update attempt) has nothing to replay *)
  let _k, _m, _path, img = loaded_save Testbed.Httpd "noflight" in
  match Timetravel.replay img with
  | Ok _ -> Alcotest.fail "replay of a flightless image succeeded"
  | Error e -> Alcotest.(check bool) "error says why" true (contains e "flight")

let () =
  Alcotest.run "image"
    [
      ( "codec",
        [
          Alcotest.test_case "save -> read round-trip" `Quick test_roundtrip;
          Alcotest.test_case "layout names sections" `Quick test_layout_names_sections;
          Alcotest.test_case "codec golden" `Quick test_codec_golden;
          Alcotest.test_case "fingerprint is a read_word fold" `Quick
            test_fingerprint_is_read_word_fold;
          Alcotest.test_case "fingerprint keeps layout and position" `Quick
            test_fingerprint_keeps_layout;
          Alcotest.test_case "corruption goldens" `Quick test_corruption_goldens;
          Alcotest.test_case "unknown section skipped" `Quick test_unknown_section_skipped;
          Alcotest.test_case "huge length fields" `Quick test_huge_length_fields;
          Alcotest.test_case "truncated at every field boundary" `Quick
            test_truncated_at_every_boundary;
          QCheck_alcotest.to_alcotest prop_decode_total;
          Alcotest.test_case "region table checked at decode" `Quick
            test_region_table_malformed;
          Alcotest.test_case "allocator state checked before install" `Quick
            test_allocator_state_checked;
          QCheck_alcotest.to_alcotest prop_region_table_install_total;
          QCheck_alcotest.to_alcotest prop_sparse_install_lockstep;
          Alcotest.test_case "write replaces atomically" `Quick
            test_write_replaces_atomically;
          Alcotest.test_case "failed write keeps the target" `Quick
            test_write_failure_keeps_target;
        ] );
      ( "restore",
        [
          Alcotest.test_case "nginx under load restores and updates" `Quick
            test_restore_under_load;
          Alcotest.test_case "wrong program refused" `Quick
            test_install_refuses_wrong_program;
          QCheck_alcotest.to_alcotest prop_save_restore_identity;
        ] );
      ( "ctl",
        [
          Alcotest.test_case "SAVE/RESTORE over the socket" `Quick test_ctl_save_restore;
          Alcotest.test_case "SAVE to unwritable path errs" `Quick test_ctl_save_bad_path;
          Alcotest.test_case "over-long SAVE refused whole" `Quick test_ctl_save_long_path;
        ] );
      ( "fleet",
        [
          Alcotest.test_case "migrate carries state across kernels" `Quick
            test_fleet_migrate;
          Alcotest.test_case "corrupted shipped file fails the migration" `Quick
            test_fleet_migrate_corrupt_file;
          Alcotest.test_case "standby failover" `Quick test_fleet_standby_failover;
        ] );
      ( "replay",
        [
          Alcotest.test_case "rollback reproduced offline" `Quick
            test_replay_reproduces_rollback;
          Alcotest.test_case "commit reproduced offline" `Quick
            test_replay_reproduces_commit;
          Alcotest.test_case "flightless image refused" `Quick test_replay_requires_flight;
        ] );
    ]
