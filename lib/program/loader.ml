(* Launching program versions into the simulated kernel, and propagating
   images across fork. This plays the role of the dynamic linker plus
   libmcr.so preloading: it builds the process image (symbol table, heaps,
   barrier) before main runs and re-binds it in every forked child. *)

module K = Mcr_simos.Kernel
module Ty = Mcr_types.Ty
module Tyreg = Mcr_types.Tyreg
module Symtab = Mcr_types.Symtab
module Heap = Mcr_alloc.Heap
module Pool = Mcr_alloc.Pool
module Slab = Mcr_alloc.Slab
module Sites = Mcr_alloc.Sites
module Aspace = Mcr_vmem.Aspace
module Addr = Mcr_vmem.Addr
module Region = Mcr_vmem.Region
module Barrier = Mcr_quiesce.Barrier
module Profiler = Mcr_quiesce.Profiler
open Progdef

let thread_key image th =
  match Hashtbl.find_opt image.i_thread_keys (K.tid th) with
  | Some key -> key
  | None ->
      let cls = K.thread_name th in
      let ordinal =
        match Hashtbl.find_opt image.i_thread_ordinals cls with
        | Some n ->
            Hashtbl.replace image.i_thread_ordinals cls (n + 1);
            n + 1
        | None ->
            Hashtbl.replace image.i_thread_ordinals cls 1;
            1
      in
      let key = Printf.sprintf "%s#%d" cls ordinal in
      Hashtbl.replace image.i_thread_keys (K.tid th) key;
      key

let run_entry entry body th =
  let proc = K.thread_proc th in
  let image = image_of_proc_exn proc in
  let ctx = { kernel = image.i_kernel; thread = th; proc; image } in
  ignore (thread_key image th);
  (match image.i_profiler with Some p -> Profiler.note_thread_start p th | None -> ());
  K.push_frame th entry;
  Fun.protect
    ~finally:(fun () ->
      (match image.i_profiler with Some p -> Profiler.note_thread_end p th | None -> ());
      if Hashtbl.mem image.i_registered (K.tid th) then begin
        Hashtbl.remove image.i_registered (K.tid th);
        Barrier.deregister_thread image.i_barrier
      end)
    (fun () -> body ctx)

let resolver_of version =
  fun entry ->
    Option.map (fun body -> run_entry entry body) (List.assoc_opt entry version.entries)

(* Build a child image for a forked process: same layout, heaps re-bound to
   the child's cloned address space, a fresh per-process barrier. *)
let fork_image parent child_proc =
  let aspace = K.aspace child_proc in
  let heap = Heap.rebind parent.i_heap aspace in
  let lib_heap = Heap.rebind parent.i_lib_heap aspace in
  (* the child's startup runs from the fork to its own first quiescent
     point: its allocations are startup-time and its first quiescence fires
     the per-process hooks, even when the parent forked long after its own
     startup (process-per-connection servers) *)
  Heap.restart_startup heap;
  let child =
    {
      parent with
      i_proc = child_proc;
      i_aspace = aspace;
      i_heap = heap;
      i_lib_heap = lib_heap;
      i_startup_complete = false;
      i_pools = List.map (fun (n, p) -> (n, Pool.rebind p heap)) parent.i_pools;
      i_slabs = List.map (fun (n, s) -> (n, Slab.rebind s heap)) parent.i_slabs;
      i_barrier = Barrier.create parent.i_kernel ~pid:(K.pid child_proc);
      i_registered = Hashtbl.create 8;
      i_qpoint_now = Hashtbl.create 8;
      i_stack_cursors = Hashtbl.create 8;
      i_stack_roots = parent.i_stack_roots;
      i_thread_ordinals = Hashtbl.copy parent.i_thread_ordinals;
      i_thread_keys = Hashtbl.create 8;
    }
  in
  K.set_payload child_proc (P_image child);
  Tree.add child;
  Tree.notify child.i_tree.tr_fork child;
  child

(* Two kernel-wide hooks carry images along the process tree: a forked
   child of an imaged process gets its image, and an exiting process leaves
   its tree. They hold nothing per launch, so every launch sets them. *)
let on_spawn kernel child =
  match (Option.bind (K.find_proc kernel (K.parent_pid child)) image_of_proc, K.payload child) with
  | Some parent, None -> ignore (fork_image parent child)
  | _, _ -> ()

let on_exit proc = Option.iter Tree.remove (image_of_proc proc)

let build_image kernel proc version instr profiler aspace =
  let symtab =
    Symtab.build version.tyenv aspace ~data:version.globals ~funcs:version.funcs
      ~strings:version.strings
  in
  let heap =
    Heap.create aspace ~instrumented:instr.Instr.static_instr ~name:"heap"
      ~size:(version.heap_words * Addr.word_size) ()
  in
  let lib_heap =
    Heap.create aspace ~kind:Region.Lib ~instrumented:false ~name:"libheap"
      ~size:(version.lib_heap_words * Addr.word_size) ()
  in
  (* lib allocations never carry type tags and are exempt from startup
     deferral (uninstrumented code cannot cooperate) *)
  Heap.end_startup lib_heap;
  let tyreg = Tyreg.create () in
  List.iter
    (fun name -> ignore (Tyreg.register tyreg ~name (Ty.env_find version.tyenv name)))
    (Ty.env_names version.tyenv);
  {
    i_kernel = kernel;
    i_proc = proc;
    i_version = version;
    i_instr = instr;
    i_aspace = aspace;
    i_tyreg = tyreg;
    i_sites = Sites.create ();
    i_symtab = symtab;
    i_heap = heap;
    i_lib_heap = lib_heap;
    i_pools = [];
    i_slabs = [];
    i_barrier = Barrier.create kernel ~pid:(K.pid proc);
    i_profiler = profiler;
    i_startup_complete = false;
    i_tree = Tree.create ();
    i_registered = Hashtbl.create 8;
    i_qpoint_now = Hashtbl.create 8;
    i_stack_cursors = Hashtbl.create 8;
    i_stack_roots = [];
    i_thread_ordinals = Hashtbl.create 8;
    i_thread_keys = Hashtbl.create 8;
  }

let launch kernel ?(instr = Instr.full) ?profiler ?force_pid ?(reserved = []) version =
  K.set_spawn_hook kernel (Some (on_spawn kernel));
  K.set_exit_hook kernel (Some on_exit);
  let aspace = Aspace.create ~layout_bias:version.layout_bias () in
  (* fixed-address memory inherited from the previous version: mapped
     before the heaps, so their placement goes around it *)
  List.iter
    (fun (r : Region.t) ->
      ignore (Aspace.map aspace ~name:r.Region.name (Aspace.Fixed r.Region.base) ~size:r.Region.size r.Region.kind))
    reserved;
  let main_body =
    match List.assoc_opt "main" version.entries with
    | Some body -> body
    | None -> invalid_arg "Loader.launch: version has no main entry"
  in
  let proc =
    K.spawn_process kernel ?force_pid ~image:(K.Fresh_image aspace) ~name:version.prog
      ~entry:"main" ~main:(run_entry "main" main_body) ()
  in
  let image = build_image kernel proc version instr profiler aspace in
  K.set_payload proc (P_image image);
  Tree.add image;
  K.set_entry_resolver proc (resolver_of version);
  proc
