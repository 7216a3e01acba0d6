(* Program-version descriptors and per-process runtime images.

   A [version] is everything the build of one program release gives MCR: the
   type environment, global symbols, entry points, the quiescent points to
   instrument (as suggested by the profiler), and the user annotations. An
   [image] is the runtime instance of a version inside one simulated
   process: address space, heaps, symbol table, barrier — roughly what
   libmcr.so plus the static instrumentation maintain per process.

   Every image of one launch shares one [tree]: the launch's live images
   and the MCR runtime's lifecycle subscribers, registered once per tree
   rather than copied into each process.

   The types are mutually recursive because entry-point bodies receive a
   [ctx] that exposes the image. *)

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
module Barrier = Mcr_quiesce.Barrier
module Profiler = Mcr_quiesce.Profiler
module Pidmap = Map.Make (Int)

type version = {
  prog : string;  (** Program name, e.g. "nginx". *)
  version_tag : string;  (** Release tag, e.g. "0.8.54". *)
  layout_bias : int;
      (** Page bias for this version's address-space layout; versions differ
          so mutable tracing must genuinely relocate objects. *)
  heap_words : int;
  lib_heap_words : int;
  tyenv : Ty.env;
  globals : (string * Ty.t) list;
  funcs : string list;
  strings : string list;
  entries : (string * body) list;  (** Must include "main". *)
  qpoints : (string * string) list;
      (** (site, call) pairs to unblockify — the quiescence profiler's
          output, fed back into instrumentation. *)
  annotations : annot list;
}

and body = ctx -> unit

and ctx = {
  kernel : K.t;
  thread : K.thread;
  proc : K.proc;
  image : image;
}

and image = {
  i_kernel : K.t;
  i_proc : K.proc;
  i_version : version;
  i_instr : Instr.t;
  i_aspace : Aspace.t;
  i_tyreg : Tyreg.t;
  i_sites : Sites.t;
  i_symtab : Symtab.t;
  i_heap : Heap.t;
  i_lib_heap : Heap.t;
  mutable i_pools : (string * Pool.t) list;
  mutable i_slabs : (string * Slab.t) list;
  i_barrier : Barrier.t;
  i_profiler : Profiler.t option;
  mutable i_startup_complete : bool;
  i_tree : tree;  (** The launch's process tree; a forked child joins its parent's. *)
  i_registered : (int, unit) Hashtbl.t;  (** tids registered at the barrier. *)
  i_qpoint_now : (int, string) Hashtbl.t;  (** tid -> qpoint currently waited at. *)
  i_stack_cursors : (int, Addr.t ref * Addr.t) Hashtbl.t;
  mutable i_stack_roots : (string * Ty.t * Addr.t) list;
  i_thread_ordinals : (string, int) Hashtbl.t;
  i_thread_keys : (int, string) Hashtbl.t;  (** tid -> "class#ordinal". *)
}

(* The process tree of one launch. [Loader] adds the root at launch and a
   forked child before the fork subscribers run; an exit removes it. *)
and tree = {
  mutable tr_live : image Pidmap.t;
      (** Live images by pid: a child's pid is above every pid in its tree,
          so key order is creation order, root first. *)
  mutable tr_fork : (image -> unit) list;
      (** Run with each forked child's image, newest subscriber first. *)
  mutable tr_first_quiesce : (image -> unit) list;
      (** Run with the image of each process that reaches its first
          quiescent point (the end of its startup), in registration order. *)
}

and annot =
  | Obj_handler of { symbol : string; reveal : Ty.t }
      (** MCR_ADD_OBJ_HANDLER: discloses the real layout of an opaque
          buffer (hidden pointers), letting tracing treat it precisely. *)
  | Reinit_handler of { name : string; run : ctx -> unit }
      (** MCR_ADD_REINIT_HANDLER: extra control-migration code run in the
          new version after replayed startup (e.g. re-create volatile
          quiescent threads for inherited connections). *)
  | Transfer_handler of { ty_name : string; transform : transform }
      (** User state-transfer code for semantic transformations that cannot
          be remapped automatically. *)

and transform = old_words:int array -> new_words:int array -> unit

type K.payload += P_image of image

let image_of_proc proc =
  match K.payload proc with
  | Some (P_image img) -> Some img
  | Some _ | None -> None

let image_of_proc_exn proc =
  match image_of_proc proc with
  | Some img -> img
  | None -> invalid_arg "Progdef.image_of_proc_exn: process has no MCR image"

(* ------------------------------------------------------------------ *)
(* Process trees *)

module Tree = struct
  let create () = { tr_live = Pidmap.empty; tr_fork = []; tr_first_quiesce = [] }
  let add im = im.i_tree.tr_live <- Pidmap.add (K.pid im.i_proc) im im.i_tree.tr_live
  let remove im = im.i_tree.tr_live <- Pidmap.remove (K.pid im.i_proc) im.i_tree.tr_live

  (* the live images, root first *)
  let images tr = List.map snd (Pidmap.bindings tr.tr_live)

  let count tr = Pidmap.cardinal tr.tr_live
  let for_all tr f = Pidmap.for_all (fun _ im -> f im) tr.tr_live

  (* run the subscribers [subs], in list order, with [im] *)
  let rec notify subs im = match subs with [] -> () | f :: fs -> f im; notify fs im

  let on_fork tr f = tr.tr_fork <- f :: tr.tr_fork
  let on_first_quiesce tr f = tr.tr_first_quiesce <- tr.tr_first_quiesce @ [ f ]
end

(* ------------------------------------------------------------------ *)
(* Version construction *)

let make_version ~prog ~version_tag ~layout_bias ?(heap_words = 64 * 1024)
    ?(lib_heap_words = 16 * 1024) ~tyenv ~globals ~funcs ~strings ~entries
    ?(qpoints = []) ?(annotations = []) () =
  if not (List.mem_assoc "main" entries) then
    invalid_arg "Progdef.make_version: entries must include main";
  {
    prog;
    version_tag;
    layout_bias;
    heap_words;
    lib_heap_words;
    tyenv;
    globals;
    funcs;
    strings;
    entries;
    qpoints;
    annotations;
  }

(* ------------------------------------------------------------------ *)
(* Annotation lookups *)

let obj_handler version symbol =
  List.find_map
    (function
      | Obj_handler { symbol = s; reveal } when s = symbol -> Some reveal
      | Obj_handler _ | Reinit_handler _ | Transfer_handler _ -> None)
    version.annotations

let reinit_handlers version =
  List.filter_map
    (function
      | Reinit_handler { name; run } -> Some (name, run)
      | Obj_handler _ | Transfer_handler _ -> None)
    version.annotations

let transfer_handler version ty_name =
  List.find_map
    (function
      | Transfer_handler { ty_name = n; transform } when n = ty_name -> Some transform
      | Transfer_handler _ | Obj_handler _ | Reinit_handler _ -> None)
    version.annotations

let annotation_count version = List.length version.annotations

(* ------------------------------------------------------------------ *)
(* Version diffing: the "Changes" columns of Table 1 *)

type change_summary = { funcs_changed : int; vars_changed : int; types_changed : int }

let diff_versions (a : version) (b : version) =
  let sym_diff l1 l2 =
    List.length (List.filter (fun x -> not (List.mem x l2)) l1)
    + List.length (List.filter (fun x -> not (List.mem x l1)) l2)
  in
  let funcs_changed = sym_diff a.funcs b.funcs in
  let var_changed (name, ty) =
    match List.assoc_opt name b.globals with
    | None -> true (* deleted *)
    | Some ty' -> not (Ty.equal a.tyenv b.tyenv ty ty')
  in
  let vars_changed =
    List.length (List.filter var_changed a.globals)
    + List.length (List.filter (fun (n, _) -> not (List.mem_assoc n a.globals)) b.globals)
  in
  let names_a = Ty.env_names a.tyenv and names_b = Ty.env_names b.tyenv in
  let ty_changed n =
    match (List.mem n names_a, List.mem n names_b) with
    | true, false | false, true -> true
    | true, true ->
        not (Ty.equal a.tyenv b.tyenv (Ty.Named n) (Ty.Named n))
    | false, false -> false
  in
  let types_changed =
    List.length (List.filter ty_changed (List.sort_uniq compare (names_a @ names_b)))
  in
  { funcs_changed; vars_changed; types_changed }
