(* Bechamel microbenchmarks: one Test.make per reproduced table/figure,
   measuring the real (wall-clock) cost of that experiment's core MCR
   operation in this OCaml implementation. *)

open Bechamel
open Toolkit
module Fnv = Mcr_util.Fnv
module Ty = Mcr_types.Ty
module Typlan = Mcr_types.Typlan
module Heap = Mcr_alloc.Heap
module Addr = Mcr_vmem.Addr
module Aspace = Mcr_vmem.Aspace
module Region = Mcr_vmem.Region
module Objgraph = Mcr_trace.Objgraph
module Manager = Mcr_core.Manager
module K = Mcr_simos.Kernel
module Image = Mcr_image.Image
module Testbed = Mcr_workloads.Testbed

(* Table 1 / replay matching: hashing a call stack into a call-stack ID *)
let test_callstack_hash =
  let stack = [ "main"; "server_init"; "parse_config"; "read_file" ] in
  Test.make ~name:"table1:callstack-hash" (Staged.stage (fun () -> Fnv.strings stack))

(* Table 3: the tag-maintaining allocation path *)
let test_alloc_tagging =
  let aspace = Aspace.create () in
  let heap = Heap.create aspace ~instrumented:true ~name:"bench" ~size:(1 lsl 20) () in
  Heap.end_startup heap;
  Test.make ~name:"table3:alloc-tagging"
    (Staged.stage (fun () ->
         let a = Heap.malloc heap ~ty_id:3 ~site:5 ~callstack:12345 8 in
         Heap.free heap a))

(* The zeroing every allocation pays, at the size of one connection's
   ConnBufferWords read buffer in the bulk-transfer workload *)
let test_malloc_zeroed =
  let aspace = Aspace.create () in
  let heap = Heap.create aspace ~instrumented:true ~name:"bench" ~size:(1 lsl 20) () in
  Heap.end_startup heap;
  Test.make ~name:"alloc:malloc-32k-zeroed"
    (Staged.stage (fun () ->
         let a = Heap.malloc heap ~ty_id:3 ~site:5 ~callstack:12345 32_768 in
         Heap.free heap a))

(* nginx's [Pool.grab_chunk]: a 513-word block from an uninstrumented heap
   whose earlier chunks are never freed, here 10,000 of them *)
let test_grab_chunk =
  let words = 513 and held = 10_000 in
  let aspace = Aspace.create () in
  let heap =
    Heap.create aspace ~instrumented:false ~name:"bench"
      ~size:((held + 2) * (words + 1) * Addr.word_size) ()
  in
  Heap.end_startup heap;
  for _ = 1 to held do
    ignore (Heap.malloc heap words)
  done;
  Test.make ~name:"alloc:grab-chunk-behind-10k"
    (Staged.stage (fun () -> Heap.free heap (Heap.malloc heap words)))

(* vsftpd's session-buffer initialisation at each USER: one bulk tracked
   store over a private 4096-word range, next to the per-word loop it
   replaced over the same range *)
let test_store_init, test_write_word_loop =
  let words = 4096 in
  let aspace = Aspace.create () in
  let base =
    Aspace.map aspace (Aspace.Near Region.Heap) ~size:(words * Addr.word_size) Region.Heap
  in
  let f i = 0x76_73_66 lxor i in
  Aspace.write_init aspace base ~words f;
  ( Test.make ~name:"vmem:store-init-4096"
      (Staged.stage (fun () -> Aspace.write_init aspace base ~words f)),
    Test.make ~name:"vmem:write-word-x4096"
      (Staged.stage (fun () ->
           for i = 0 to words - 1 do
             Aspace.write_word aspace (Addr.add_words base i) (f i)
           done)) )

(* A session buffer's life: map it, initialise all 4096 words non-zero
   (every page materialises its own array), unmap it *)
let test_buffer_churn =
  let words = 4096 in
  let aspace = Aspace.create () in
  let f i = 0x76_73_66 lxor i in
  Test.make ~name:"vmem:buffer-churn"
    (Staged.stage (fun () ->
         let base =
           Aspace.map aspace (Aspace.Near Region.Heap) ~size:(words * Addr.word_size) Region.Heap
         in
         Aspace.write_init aspace base ~words f;
         Aspace.unmap aspace base))

(* The host cost of one process-per-connection session: fork a process
   with 16 private pages, store to each, kill it. The kernel has already
   reaped 1,000 such processes, so a cost that grows with the process
   table or with dead processes' memory shows here. *)
let test_fork_exit =
  let pages = 16 in
  let kernel = K.create () in
  let aspace = Aspace.create () in
  let base =
    Aspace.map aspace (Aspace.Near Region.Heap) ~size:(pages * Addr.page_size) Region.Heap
  in
  let page i = Addr.add base (i * Addr.page_size) in
  for i = 0 to pages - 1 do
    Aspace.write_word aspace (page i) (i + 1)
  done;
  let parent =
    K.spawn_process kernel ~image:(K.Fresh_image aspace) ~name:"parent" ~entry:"main"
      ~main:(fun _ ->
        ignore (K.syscall (Mcr_simos.Sysdefs.Sem_wait { name = "never"; timeout_ns = None })))
      ()
  in
  K.run kernel;
  let fork_exit () =
    let child =
      K.spawn_process kernel ~parent ~image:(K.Clone_image parent) ~name:"session" ~entry:"main"
        ~main:ignore ()
    in
    for i = 0 to pages - 1 do
      Aspace.write_word (K.aspace child) (page i) i
    done;
    K.kill_process kernel child ~status:0;
    K.run kernel
  in
  for _ = 1 to 1_000 do
    fork_exit ()
  done;
  Test.make ~name:"simos:fork-exit" (Staged.stage fork_exit)

(* The page table's per-operation cost at one 8 Mi-word heap (16,384
   pages): map it, fork it, unmap both copies, as a process that forks
   and exits with a large heap does. *)
let test_map_clone_unmap =
  let size = 16_384 * Addr.page_size in
  let aspace = Aspace.create () in
  Test.make ~name:"vmem:map-clone-unmap(16k pages)"
    (Staged.stage (fun () ->
         let base = Aspace.map aspace (Aspace.Near Region.Heap) ~size Region.Heap in
         let child = Aspace.clone aspace in
         Aspace.unmap child base;
         Aspace.unmap aspace base))

(* 4,096 [read_word]s at scattered addresses of 16 regions of 1,024
   pages: the page lookup every simulated load pays. *)
let test_read_word_scattered =
  let aspace = Aspace.create () in
  let bases =
    Array.init 16 (fun _ ->
        Aspace.map aspace (Aspace.Near Region.Heap) ~size:(1024 * Addr.page_size) Region.Heap)
  in
  let addrs =
    Array.init 4096 (fun i ->
        let h = (i * 0x9e3779b1) land 0x3fff_ffff in
        Addr.add_words bases.(h mod 16) ((h / 16) mod (1024 * Addr.words_per_page)))
  in
  Test.make ~name:"vmem:read-word-scattered"
    (Staged.stage (fun () -> Array.iter (fun a -> ignore (Aspace.read_word aspace a)) addrs))

(* The same 4,096 [read_word]s at consecutive addresses of one of those
   regions: eight pages, each read 512 times in a row, the shape of a
   server scanning its fd tables. *)
let test_read_word_sequential =
  let aspace = Aspace.create () in
  let bases =
    Array.init 16 (fun _ ->
        Aspace.map aspace (Aspace.Near Region.Heap) ~size:(1024 * Addr.page_size) Region.Heap)
  in
  let addrs = Array.init 4096 (fun i -> Addr.add_words bases.(7) i) in
  Test.make ~name:"vmem:read-word-sequential"
    (Staged.stage (fun () -> Array.iter (fun a -> ignore (Aspace.read_word aspace a)) addrs))

(* The size of nginx's request struct, which every accepted connection's
   [palloc] asks for *)
let test_sizeof_named =
  let env = (Mcr_servers.Nginx_sim.final ()).Mcr_program.Progdef.tyenv in
  let ty = Ty.Named "ngx_request_t" in
  Test.make ~name:"types:sizeof-named" (Staged.stage (fun () -> ignore (Ty.sizeof_words env ty)))

let listing1 () =
  let kernel = K.create () in
  K.fs_write kernel ~path:Mcr_servers.Listing1.config_path "welcome=hi";
  let m = Manager.launch kernel (Mcr_servers.Listing1.v1 ()) in
  ignore (Manager.wait_startup m ());
  (kernel, m)

(* Table 2: the hybrid precise/conservative traversal *)
let test_conservative_scan =
  let kernel, m = listing1 () in
  ignore
    (Mcr_workloads.Http_bench.run kernel ~port:Mcr_servers.Listing1.port ~requests:20 ~path:"/" ());
  let image = Manager.root_image m in
  Test.make ~name:"table2:mutable-tracing-analysis"
    (Staged.stage (fun () -> ignore (Objgraph.analyze image)))

(* Table 2, the shape of a held httpd connection: one 32k-word untyped heap
   buffer, hung off conf's banner field, all zeros but for its last word
   (conf's address). Only the non-zero pages cost a scan. *)
let test_conservative_scan_opaque =
  let _, m = listing1 () in
  let image = Manager.root_image m in
  let asp = image.Mcr_program.Progdef.i_aspace in
  let words = 32 * 1024 in
  let buf = Heap.malloc image.i_heap words in
  let conf = Aspace.read_word asp (Mcr_types.Symtab.lookup image.i_symtab "conf").addr in
  let banner = Ty.field_offset image.i_version.tyenv (Ty.Named "conf_s") "banner" in
  Aspace.write_word asp (Addr.add_words conf banner) buf;
  Aspace.write_word asp (Addr.add_words buf (words - 1)) conf;
  Test.make ~name:"table2:conservative-scan-opaque-32k"
    (Staged.stage (fun () -> ignore (Objgraph.analyze image)))

(* Region lookup on a many-region address space (an update pins one region
   per immutable object, so hundreds of regions are realistic): the sorted
   array + binary search now in Aspace vs the former linear list scan, kept
   here as the before-reference. *)
let test_region_lookup_linear, test_region_lookup_indexed =
  let aspace = Aspace.create () in
  for _ = 1 to 512 do
    ignore (Aspace.map aspace ~name:"bench" (Aspace.Near Region.Mmap) ~size:8192 Region.Mmap)
  done;
  let regions = Aspace.regions aspace in
  let addrs =
    Array.of_list (List.map (fun (r : Region.t) -> r.Region.base + 8) regions)
  in
  let cursor = ref 0 in
  let next_addr () =
    let a = addrs.(!cursor) in
    cursor := (!cursor + 1) mod Array.length addrs;
    a
  in
  ( Test.make ~name:"aspace:find-region-linear-list(512)"
      (Staged.stage (fun () ->
           ignore (List.find_opt (fun r -> Region.contains r (next_addr ())) regions))),
    Test.make ~name:"aspace:find-region-binary-search(512)"
      (Staged.stage (fun () -> ignore (Aspace.find_region aspace (next_addr ())))) )

(* Figure 3: the per-object type transformation applied during transfer *)
let test_type_transform =
  let src_env = Ty.env_create () and dst_env = Ty.env_create () in
  Ty.env_add src_env "l_t"
    (Ty.Struct { sname = "l_t"; fields = [ ("value", Ty.Int); ("next", Ty.Ptr (Ty.Named "l_t")) ] });
  Ty.env_add dst_env "l_t"
    (Ty.Struct
       { sname = "l_t";
         fields = [ ("value", Ty.Int); ("next", Ty.Ptr (Ty.Named "l_t")); ("new", Ty.Int) ] });
  let plan =
    match Typlan.plan ~src_env ~dst_env ~src:(Ty.Named "l_t") ~dst:(Ty.Named "l_t") with
    | Ok p -> p
    | Error e -> failwith e
  in
  let src = [| 5; 0x9da68e8 |] in
  let dst = Array.make 3 0 in
  Test.make ~name:"fig3:type-transform"
    (Staged.stage (fun () ->
         Typlan.apply plan ~read:(Array.get src) ~write:(Array.set dst)))

(* The checkpoint image codec on a loaded httpd (about 2 MB, mostly page
   contents), and the in-place hash it runs over every section and the
   whole image. *)
let test_image_encode, test_image_decode =
  let kernel = K.create () in
  let m = Testbed.launch kernel Testbed.Httpd in
  ignore (Testbed.benchmark kernel Testbed.Httpd ~scale:3_000 ());
  let img = Image.capture kernel ~members:(Manager.images m) () in
  let enc = Image.encode img in
  ( Test.make ~name:"image:encode" (Staged.stage (fun () -> ignore (Image.encode img))),
    Test.make ~name:"image:decode" (Staged.stage (fun () -> ignore (Image.decode enc))) )

(* The checkpoint workload's file round trip at a smaller size: an image
   holding a 2M-word heap-kind region with one non-zero page in 64 is
   saved to a file, read back and unlinked. *)
let test_image_save_read_remove =
  let kernel = K.create () in
  let m = Testbed.launch kernel Testbed.Nginx in
  let asp = (Manager.root_image m).Mcr_program.Progdef.i_aspace in
  let words = 2 lsl 20 in
  let base = Aspace.map asp ~name:"bench" (Aspace.Near Region.Heap) ~size:(words * 8) Region.Heap in
  for i = 0 to (words / Addr.words_per_page) - 1 do
    if i mod 64 = 0 then Aspace.write_word asp (Addr.add base (i * Addr.page_size)) (i + 1)
  done;
  let path = Filename.temp_file "mcr_micro" ".mcrimg" in
  Test.make ~name:"image:save-read-remove"
    (Staged.stage (fun () ->
         (match Image.save kernel ~path ~members:(Manager.images m) () with
         | Ok _ -> ()
         | Error e -> failwith (Image.error_to_string e));
         (match Image.read ~path with
         | Ok _ -> ()
         | Error e -> failwith (Image.error_to_string e));
         Sys.remove path))

(* The fingerprint save and install both take of the root space: a
   2M-word region with one non-zero page in 64, as above. *)
let test_image_fingerprint =
  let asp = Aspace.create () in
  let words = 2 lsl 20 in
  let base = Aspace.map asp ~name:"bench" (Aspace.Near Region.Heap) ~size:(words * 8) Region.Heap in
  for i = 0 to (words / Addr.words_per_page) - 1 do
    if i mod 64 = 0 then Aspace.write_word asp (Addr.add base (i * Addr.page_size)) (i + 1)
  done;
  Test.make ~name:"image:fingerprint(2Mi words, mostly zero)"
    (Staged.stage (fun () -> ignore (Image.aspace_fingerprint ~prog:"bench" asp)))

let test_fnv_sub =
  let len = 1 lsl 20 in
  let s = String.init len (fun i -> if i < len / 2 then Char.chr (i land 0xff) else '\x00') in
  Test.make ~name:"fnv:sub(1MiB, half zero)"
    (Staged.stage (fun () -> ignore (Fnv.sub s ~pos:0 ~len)))

let run () =
  print_endline "\nBechamel microbenchmarks (ns per run, wall clock)";
  print_endline "=================================================";
  let tests =
    [ test_callstack_hash; test_alloc_tagging; test_malloc_zeroed; test_grab_chunk;
      test_store_init; test_write_word_loop; test_buffer_churn; test_map_clone_unmap;
      test_read_word_scattered; test_read_word_sequential; test_sizeof_named; test_fork_exit;
      test_conservative_scan; test_conservative_scan_opaque; test_type_transform;
      test_region_lookup_linear; test_region_lookup_indexed; test_image_encode;
      test_image_decode; test_image_save_read_remove; test_image_fingerprint; test_fnv_sub ]
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) () in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg instances test in
      let results = Analyze.all ols Instance.monotonic_clock results in
      Hashtbl.iter
        (fun name ols_result ->
          match Analyze.OLS.estimates ols_result with
          | Some [ est ] -> Printf.printf "  %-36s %12.1f ns/run\n" name est
          | _ -> Printf.printf "  %-36s (no estimate)\n" name)
        results)
    tests
