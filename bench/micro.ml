(* Bechamel microbenchmarks: one case per reproduced table/figure,
   measuring the real (wall-clock) cost of that experiment's core MCR
   operation in this OCaml implementation.

   A case is its name and its set-up, which returns the staged operation;
   set-up runs only for the cases a run selects ([micro:<substring>]). *)

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

let case name setup = (name, fun () -> Test.make ~name (setup ()))

(* Table 1 / replay matching: hashing a call stack into a call-stack ID *)
let test_callstack_hash =
  case "table1:callstack-hash" (fun () ->
      let stack = [ "main"; "server_init"; "parse_config"; "read_file" ] in
      Staged.stage (fun () -> Fnv.strings stack))

(* Table 3: the tag-maintaining allocation path *)
let bench_heap () =
  let heap = Heap.create (Aspace.create ()) ~instrumented:true ~name:"bench" ~size:(1 lsl 20) () in
  Heap.end_startup heap;
  heap

let test_alloc_tagging =
  case "table3:alloc-tagging" (fun () ->
      let heap = bench_heap () in
      Staged.stage (fun () ->
          let a = Heap.malloc heap ~ty_id:3 ~site:5 ~callstack:12345 8 in
          Heap.free heap a))

(* The zeroing every allocation pays, at the size of one connection's
   ConnBufferWords read buffer in the bulk-transfer workload *)
let test_malloc_zeroed =
  case "alloc:malloc-32k-zeroed" (fun () ->
      let heap = bench_heap () in
      Staged.stage (fun () ->
          let a = Heap.malloc heap ~ty_id:3 ~site:5 ~callstack:12345 32_768 in
          Heap.free heap a))

(* nginx's [Pool.grab_chunk]: a 513-word block from an uninstrumented heap
   whose earlier chunks are never freed, here 10,000 of them *)
let test_grab_chunk =
  case "alloc:grab-chunk-behind-10k" (fun () ->
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
      Staged.stage (fun () -> Heap.free heap (Heap.malloc heap words)))

(* vsftpd's session-buffer initialisation at each USER: one bulk tracked
   store of a prebuilt template over a private 4096-word range, next to
   the per-word loop it replaced over the same range *)
let session_words = 4096
let session_word i = 0x76_73_66 lxor i
let session_template = lazy (Aspace.words_of_fn session_words session_word)

let session_buffer () =
  let aspace = Aspace.create () in
  let base =
    Aspace.map aspace (Aspace.Near Region.Heap) ~size:(session_words * Addr.word_size)
      Region.Heap
  in
  Aspace.write_words aspace base (Lazy.force session_template);
  (aspace, base)

let test_store_template =
  case "vmem:store-template-4096" (fun () ->
      let aspace, base = session_buffer () in
      let w = Lazy.force session_template in
      Staged.stage (fun () -> Aspace.write_words aspace base w))

let test_write_word_loop =
  case "vmem:write-word-x4096" (fun () ->
      let aspace, base = session_buffer () in
      Staged.stage (fun () ->
          for i = 0 to session_words - 1 do
            Aspace.write_word aspace (Addr.add_words base i) (session_word i)
          done))

(* A session buffer's life: map it, initialise all 4096 words non-zero
   (every page materialises its own bytes), unmap it *)
let test_buffer_churn =
  case "vmem:buffer-churn" (fun () ->
      let aspace = Aspace.create () in
      let w = Lazy.force session_template in
      Staged.stage (fun () ->
          let base =
            Aspace.map aspace (Aspace.Near Region.Heap) ~size:(session_words * Addr.word_size)
              Region.Heap
          in
          Aspace.write_words aspace base w;
          Aspace.unmap aspace base))

(* The host cost of one process-per-connection session: fork a process
   with 16 private pages, store to each, kill it. The kernel has already
   reaped 1,000 such processes, so a cost that grows with the process
   table or with dead processes' memory shows here. *)
let test_fork_exit =
  case "simos:fork-exit" (fun () ->
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
          K.spawn_process kernel ~parent ~image:(K.Clone_image parent) ~name:"session"
            ~entry:"main" ~main:ignore ()
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
      Staged.stage fork_exit)

(* One session's fork and reap in a recorded process tree (a manager's
   launch: the startup recorder and the manager subscribe to the tree)
   after [n] sessions have been forked and reaped: the image re-bind, the
   tree's fork subscribers and the exit notification. A per-fork cost
   that grows with the sessions ever forked shows as a slope in [n]. *)
let test_fork_after_reaped (label, n) =
  case (Printf.sprintf "simos:fork-after-reaped(%s)" label) (fun () ->
      let kernel = K.create () in
      let version =
        Mcr_program.Progdef.make_version ~prog:"forker" ~version_tag:"1" ~layout_bias:0
          ~tyenv:(Ty.env_create ()) ~globals:[] ~funcs:[ "main" ] ~strings:[]
          ~entries:
            [ ("main",
               fun _ ->
                 ignore
                   (K.syscall (Mcr_simos.Sysdefs.Sem_wait { name = "never"; timeout_ns = None })))
            ]
          ()
      in
      let root = Manager.root_proc (Manager.launch kernel version) in
      K.run kernel;
      let fork_reap () =
        let child =
          K.spawn_process kernel ~parent:root ~image:(K.Clone_image root) ~name:"session"
            ~entry:"main" ~main:ignore ()
        in
        K.kill_process kernel child ~status:0;
        K.run kernel
      in
      for _ = 1 to n do
        fork_reap ()
      done;
      Staged.stage fork_reap)

(* The page table's per-operation cost at one 8 Mi-word heap (16,384
   pages): map it, fork it, unmap both copies, as a process that forks
   and exits with a large heap does. *)
let test_map_clone_unmap =
  case "vmem:map-clone-unmap(16k pages)" (fun () ->
      let size = 16_384 * Addr.page_size in
      let aspace = Aspace.create () in
      Staged.stage (fun () ->
          let base = Aspace.map aspace (Aspace.Near Region.Heap) ~size Region.Heap in
          let child = Aspace.clone aspace in
          Aspace.unmap child base;
          Aspace.unmap aspace base))

(* A session master's fork and its child's exit: clone a space of 64
   pages that all hold non-zero words, then unmap the copy. *)
let test_clone_unmap_written =
  case "vmem:clone-unmap(64 written pages)" (fun () ->
      let words = 64 * Addr.words_per_page in
      let aspace = Aspace.create () in
      let base =
        Aspace.map aspace (Aspace.Near Region.Heap) ~size:(words * Addr.word_size) Region.Heap
      in
      Aspace.write_words aspace base (Aspace.words_of_fn words session_word);
      Staged.stage (fun () -> Aspace.unmap (Aspace.clone aspace) base))

(* 4,096 [read_word]s at scattered addresses of 16 regions of 1,024
   pages: the page lookup every simulated load pays. *)
let sixteen_regions () =
  let aspace = Aspace.create () in
  let bases =
    Array.init 16 (fun _ ->
        Aspace.map aspace (Aspace.Near Region.Heap) ~size:(1024 * Addr.page_size) Region.Heap)
  in
  (aspace, bases)

let read_words aspace addrs =
  Staged.stage (fun () -> Array.iter (fun a -> ignore (Aspace.read_word aspace a)) addrs)

let test_read_word_scattered =
  case "vmem:read-word-scattered" (fun () ->
      let aspace, bases = sixteen_regions () in
      read_words aspace
        (Array.init 4096 (fun i ->
             let h = (i * 0x9e3779b1) land 0x3fff_ffff in
             Addr.add_words bases.(h mod 16) ((h / 16) mod (1024 * Addr.words_per_page)))))

(* The same 4,096 [read_word]s at consecutive addresses of one of those
   regions: eight pages, each read 512 times in a row, the shape of a
   server scanning its fd tables. *)
let test_read_word_sequential =
  case "vmem:read-word-sequential" (fun () ->
      let aspace, bases = sixteen_regions () in
      read_words aspace (Array.init 4096 (fun i -> Addr.add_words bases.(7) i)))

(* The same 4,096 scattered [read_word]s over pages that each hold 16
   non-zero words, kept as entries: the search every load of a sparsely
   used page pays *)
let test_read_word_sparse =
  case "vmem:read-word-sparse" (fun () ->
      let aspace, bases = sixteen_regions () in
      Array.iter
        (fun base ->
          for k = 0 to 1023 do
            for j = 0 to 15 do
              Aspace.write_word aspace
                (Addr.add_words (Addr.add base (k * Addr.page_size)) (j * 31))
                (j + 1)
            done
          done)
        bases;
      read_words aspace
        (Array.init 4096 (fun i ->
             let h = (i * 0x9e3779b1) land 0x3fff_ffff in
             Addr.add_words bases.(h mod 16) ((h / 16) mod (1024 * Addr.words_per_page)))))

(* 32 tracked stores that fill an empty sparse page to its 32 entries, in
   an order that inserts between entries, then one [zero_fill] that drops
   them all *)
let test_store_sparse =
  case "vmem:store-sparse-x32" (fun () ->
      let aspace = Aspace.create () in
      let page = Aspace.map aspace (Aspace.Near Region.Heap) ~size:Addr.page_size Region.Heap in
      let addrs = Array.init 32 (fun j -> Addr.add_words page ((j * 13 mod 32) * 16)) in
      Staged.stage (fun () ->
          Array.iteri (fun j a -> Aspace.write_word aspace a (j + 1)) addrs;
          Aspace.zero_fill aspace page ~words:Addr.words_per_page))

(* The size of nginx's request struct, which every accepted connection's
   [palloc] asks for *)
let test_sizeof_named =
  case "types:sizeof-named" (fun () ->
      let env = (Mcr_servers.Nginx_sim.final ()).Mcr_program.Progdef.tyenv in
      let ty = Ty.Named "ngx_request_t" in
      Staged.stage (fun () -> ignore (Ty.sizeof_words env ty)))

let listing1 () =
  let kernel = K.create () in
  K.fs_write kernel ~path:Mcr_servers.Listing1.config_path "welcome=hi";
  let m = Manager.launch kernel (Mcr_servers.Listing1.v1 ()) in
  ignore (Manager.wait_startup m ());
  (kernel, m)

(* Table 2: the hybrid precise/conservative traversal *)
let test_conservative_scan =
  case "table2:mutable-tracing-analysis" (fun () ->
      let kernel, m = listing1 () in
      ignore
        (Mcr_workloads.Http_bench.run kernel ~port:Mcr_servers.Listing1.port ~requests:20
           ~path:"/" ());
      let image = Manager.root_image m in
      Staged.stage (fun () -> ignore (Objgraph.analyze image)))

(* Table 2, the shape of a held httpd connection: one 32k-word untyped heap
   buffer, hung off conf's banner field, all zeros but for its last word
   (conf's address). Only the non-zero pages cost a scan. *)
let test_conservative_scan_opaque =
  case "table2:conservative-scan-opaque-32k" (fun () ->
      let _, m = listing1 () in
      let image = Manager.root_image m in
      let asp = image.Mcr_program.Progdef.i_aspace in
      let words = 32 * 1024 in
      let buf = Heap.malloc image.i_heap words in
      let conf = Aspace.read_word asp (Mcr_types.Symtab.lookup image.i_symtab "conf").addr in
      let banner = Ty.field_offset image.i_version.tyenv (Ty.Named "conf_s") "banner" in
      Aspace.write_word asp (Addr.add_words conf banner) buf;
      Aspace.write_word asp (Addr.add_words buf (words - 1)) conf;
      Staged.stage (fun () -> ignore (Objgraph.analyze image)))

(* Region lookup on a many-region address space (an update pins one region
   per immutable object, so hundreds of regions are realistic): the sorted
   array + binary search now in Aspace vs the former linear list scan, kept
   here as the before-reference. *)
let many_regions () =
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
  (aspace, regions, next_addr)

let test_region_lookup_linear =
  case "aspace:find-region-linear-list(512)" (fun () ->
      let _, regions, next_addr = many_regions () in
      Staged.stage (fun () ->
          ignore (List.find_opt (fun r -> Region.contains r (next_addr ())) regions)))

let test_region_lookup_indexed =
  case "aspace:find-region-binary-search(512)" (fun () ->
      let aspace, _, next_addr = many_regions () in
      Staged.stage (fun () -> ignore (Aspace.find_region aspace (next_addr ()))))

(* Figure 3: the per-object type transformation applied during transfer *)
let test_type_transform =
  case "fig3:type-transform" (fun () ->
      let src_env = Ty.env_create () and dst_env = Ty.env_create () in
      Ty.env_add src_env "l_t"
        (Ty.Struct
           { sname = "l_t"; fields = [ ("value", Ty.Int); ("next", Ty.Ptr (Ty.Named "l_t")) ] });
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
      Staged.stage (fun () -> Typlan.apply plan ~read:(Array.get src) ~write:(Array.set dst)))

(* The checkpoint image codec on a loaded httpd (about 2 MB, mostly page
   contents), and the in-place hash it runs over every section and the
   whole image. *)
let httpd_image () =
  let kernel = K.create () in
  let m = Testbed.launch kernel Testbed.Httpd in
  ignore (Testbed.benchmark kernel Testbed.Httpd ~scale:3_000 ());
  Image.capture kernel ~members:(Manager.images m) ()

let test_image_encode =
  case "image:encode" (fun () ->
      let img = httpd_image () in
      Staged.stage (fun () -> ignore (Image.encode img)))

let test_image_decode =
  case "image:decode" (fun () ->
      let enc = Image.encode (httpd_image ()) in
      Staged.stage (fun () -> ignore (Image.decode enc)))

(* A 2M-word heap-kind region with one non-zero page in 64. *)
let sparse_heap asp =
  let words = 2 lsl 20 in
  let base = Aspace.map asp ~name:"bench" (Aspace.Near Region.Heap) ~size:(words * 8) Region.Heap in
  for i = 0 to (words / Addr.words_per_page) - 1 do
    if i mod 64 = 0 then Aspace.write_word asp (Addr.add base (i * Addr.page_size)) (i + 1)
  done

(* The checkpoint workload's file round trip at a smaller size: an image
   holding the sparse heap is saved to a file, read back and unlinked. *)
let test_image_save_read_remove =
  case "image:save-read-remove" (fun () ->
      let kernel = K.create () in
      let m = Testbed.launch kernel Testbed.Nginx in
      sparse_heap (Manager.root_image m).Mcr_program.Progdef.i_aspace;
      let path = Filename.temp_file "mcr_micro" ".mcrimg" in
      Staged.stage (fun () ->
          (match Image.save kernel ~path ~members:(Manager.images m) () with
          | Ok _ -> ()
          | Error e -> failwith (Image.error_to_string e));
          (match Image.read ~path with
          | Ok _ -> ()
          | Error e -> failwith (Image.error_to_string e));
          Sys.remove path))

(* The fingerprint save and install both take of the root space, on the
   sparse heap above. *)
let test_image_fingerprint =
  case "image:fingerprint(2Mi words, mostly zero)" (fun () ->
      let asp = Aspace.create () in
      sparse_heap asp;
      Staged.stage (fun () -> ignore (Image.aspace_fingerprint ~prog:"bench" asp)))

(* The same size with every word non-zero: each page costs its chain. *)
let test_image_fingerprint_dense =
  case "image:fingerprint(2Mi words, dense)" (fun () ->
      let asp = Aspace.create () in
      let words = 2 lsl 20 in
      let base =
        Aspace.map asp ~name:"bench" (Aspace.Near Region.Heap) ~size:(words * 8) Region.Heap
      in
      Aspace.write_words asp base (Aspace.words_of_fn words (fun i -> i + 1));
      Staged.stage (fun () -> ignore (Image.aspace_fingerprint ~prog:"bench" asp)))

(* Loadgen's look at one 1 KiB data reply of a RETR transfer,
   which carries none of the codes it looks for *)
let test_retr_reply_scan =
  case "workloads:retr-reply-scan(1 KiB)" (fun () ->
      let reply = String.make 1024 'd' in
      Staged.stage (fun () -> ignore (Mcr_workloads.Client.classify_retr reply)))

let test_fnv_sub =
  case "fnv:sub(1MiB, half zero)" (fun () ->
      let len = 1 lsl 20 in
      let s = String.init len (fun i -> if i < len / 2 then Char.chr (i land 0xff) else '\x00') in
      Staged.stage (fun () -> ignore (Fnv.sub s ~pos:0 ~len)))

(* The request stamps of one 6,000-request open-loop stream, written to
   mcr-postmortem's JSON and read back, as the benchmark's request-stamp
   check does after its measured phase. *)
let test_requests_roundtrip =
  case "obs:requests-roundtrip(6000)" (fun () ->
      let reqs =
        List.init 6_000 (fun i ->
            let scheduled = 20_000_000 + (i * 50_000) in
            {
              Mcr_obs.Client_impact.q_id = i;
              q_scheduled_ns = scheduled;
              q_first_byte_ns = scheduled + 41_000;
              q_complete_ns = scheduled + 43_500 + (i mod 7 * 1_000);
              q_retries = 0;
              q_ok = true;
            })
      in
      Staged.stage (fun () ->
          let text = Mcr_obs.Client_impact.reqs_to_json ~server:"nginx" reqs in
          ignore (Mcr_obs.Client_impact.reqs_of_json text)))

let cases =
  [ test_callstack_hash; test_alloc_tagging; test_malloc_zeroed; test_grab_chunk;
    test_store_template; test_write_word_loop; test_buffer_churn; test_map_clone_unmap;
    test_clone_unmap_written; test_read_word_scattered; test_read_word_sequential;
    test_read_word_sparse; test_store_sparse;
    test_sizeof_named; test_fork_exit ]
  @ List.map test_fork_after_reaped [ ("100", 100); ("1k", 1_000); ("10k", 10_000) ]
  @ [ test_conservative_scan; test_conservative_scan_opaque;
    test_type_transform; test_region_lookup_linear; test_region_lookup_indexed;
    test_image_encode; test_image_decode; test_image_save_read_remove; test_image_fingerprint;
    test_image_fingerprint_dense; test_retr_reply_scan; test_fnv_sub; test_requests_roundtrip ]

let contains ~sub s =
  let n = String.length sub in
  let rec at i = i + n <= String.length s && (String.sub s i n = sub || at (i + 1)) in
  at 0

(* Every case, or those whose name contains [only]; false when none does. *)
let run ?(only = "") () =
  match List.filter (fun (name, _) -> contains ~sub:only name) cases with
  | [] -> false
  | selected ->
      print_endline "\nBechamel microbenchmarks (ns per run, wall clock)";
      print_endline "=================================================";
      let width = List.fold_left (fun w (name, _) -> max w (String.length name)) 0 selected in
      let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
      let instances = Instance.[ monotonic_clock ] in
      let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) () in
      List.iter
        (fun (_, make) ->
          let results = Benchmark.all cfg instances (make ()) in
          let results = Analyze.all ols Instance.monotonic_clock results in
          Hashtbl.iter
            (fun name ols_result ->
              match Analyze.OLS.estimates ols_result with
              | Some [ est ] -> Printf.printf "  %-*s %12.1f ns/run\n" width name est
              | _ -> Printf.printf "  %-*s (no estimate)\n" width name)
            results)
        selected;
      true
