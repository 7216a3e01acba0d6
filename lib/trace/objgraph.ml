module K = Mcr_simos.Kernel
module Costs = Mcr_simos.Costs
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
module P = Mcr_program.Progdef
module Instr = Mcr_program.Instr
module Trace = Mcr_obs.Trace

type origin =
  | O_static of string
  | O_string of string
  | O_heap
  | O_lib
  | O_pool_obj of string
  | O_pool_chunk of string
  | O_slab_chunk of string
  | O_stack of string
  | O_pinned

type obj = {
  id : int;
  addr : Addr.t;
  words : int;
  ty : Ty.t option;
  ty_name : string option;
  origin : origin;
  region : Region.kind;
  startup : bool;
  site : string option;
  callstack : int;
  mutable reachable : bool;
  mutable immutable_ : bool;
  mutable nonupdatable : bool;
  mutable dirty : bool;
}

type side = {
  mutable ptr : int;
  mutable src_static : int;
  mutable src_dynamic : int;
  mutable targ_static : int;
  mutable targ_dynamic : int;
  mutable targ_lib : int;
}

type stats = { precise : side; likely : side }

type t = {
  objects : obj array;
  roots : obj list;
  stats : stats;
  cost_ns : int;
  obj_cost : int array;
  reachable_count : int;
  reachable_words : int;
  injected_pin : obj option;
}

let pin_region = "mcr:pin"

let new_side () =
  { ptr = 0; src_static = 0; src_dynamic = 0; targ_static = 0; targ_dynamic = 0; targ_lib = 0 }

let record_edge side ~src_region ~targ_region =
  side.ptr <- side.ptr + 1;
  (match src_region with
  | Region.Static -> side.src_static <- side.src_static + 1
  | Region.Heap | Region.Stack | Region.Mmap | Region.Lib ->
      side.src_dynamic <- side.src_dynamic + 1);
  match targ_region with
  | Region.Static -> side.targ_static <- side.targ_static + 1
  | Region.Lib -> side.targ_lib <- side.targ_lib + 1
  | Region.Heap | Region.Stack | Region.Mmap -> side.targ_dynamic <- side.targ_dynamic + 1

(* ------------------------------------------------------------------ *)
(* Object enumeration *)

let enumerate (image : P.image) =
  let next_id = ref 0 in
  let objs = ref [] in
  let version = image.P.i_version in
  let add ~addr ~words ~ty ~ty_name ~origin ~region ~startup ~site ~callstack =
    let o =
      {
        id = !next_id;
        addr;
        words;
        ty;
        ty_name;
        origin;
        region;
        startup;
        site;
        callstack;
        reachable = false;
        immutable_ = false;
        nonupdatable = false;
        dirty = false;
      }
    in
    incr next_id;
    objs := o :: !objs;
    o
  in
  (* static data symbols; MCR_ADD_OBJ_HANDLER annotations override the
     declared type to reveal hidden pointers *)
  List.iter
    (fun (e : Symtab.entry) ->
      let ty =
        match P.obj_handler version e.Symtab.name with
        | Some revealed -> revealed
        | None -> e.Symtab.ty
      in
      ignore
        (add ~addr:e.Symtab.addr ~words:e.Symtab.words ~ty:(Some ty) ~ty_name:None
           ~origin:(O_static e.Symtab.name) ~region:Region.Static ~startup:true ~site:None
           ~callstack:0))
    (Symtab.entries image.P.i_symtab);
  (* interned strings: conservative scanning's favourite targets *)
  List.iter
    (fun (s, addr) ->
      let words = (String.length s + 1 + Addr.word_size - 1) / Addr.word_size in
      ignore
        (add ~addr ~words ~ty:(Some (Ty.Char_array (String.length s + 1))) ~ty_name:None
           ~origin:(O_string s) ~region:Region.Static ~startup:true ~site:None ~callstack:0))
    (Symtab.strings image.P.i_symtab);
  (* instrumented-heap blocks *)
  let block_ty (b : Heap.block) =
    if b.Heap.instrumented && b.Heap.ty_id <> 0 then begin
      match Tyreg.find image.P.i_tyreg b.Heap.ty_id with
      | ty -> (Some ty, Some (Tyreg.name_of_id image.P.i_tyreg b.Heap.ty_id))
      | exception Not_found -> (None, None)
    end
    else (None, None)
  in
  let site_label (b : Heap.block) =
    if b.Heap.site = 0 then None
    else
      match Sites.find image.P.i_sites b.Heap.site with
      | s -> Some s.Sites.label
      | exception Not_found -> None
  in
  Heap.iter_live image.P.i_heap (fun b ->
      let ty, ty_name = block_ty b in
      ignore
        (add ~addr:b.Heap.payload ~words:b.Heap.words ~ty ~ty_name ~origin:O_heap
           ~region:Region.Heap ~startup:b.Heap.startup ~site:(site_label b)
           ~callstack:b.Heap.callstack));
  (* shared-library heap: per-block with dynamic instrumentation, one opaque
     blob without *)
  if image.P.i_instr.Instr.dynamic_instr then
    Heap.iter_live image.P.i_lib_heap (fun b ->
        ignore
          (add ~addr:b.Heap.payload ~words:b.Heap.words ~ty:None ~ty_name:None ~origin:O_lib
             ~region:Region.Lib ~startup:b.Heap.startup ~site:None ~callstack:0))
  else begin
    let base = Heap.base image.P.i_lib_heap in
    let words = (Heap.limit image.P.i_lib_heap - base) / Addr.word_size in
    ignore
      (add ~addr:base ~words ~ty:None ~ty_name:None ~origin:O_lib ~region:Region.Lib
         ~startup:true ~site:None ~callstack:0)
  end;
  (* pools: tagged objects when instrumented, opaque chunks otherwise *)
  List.iter
    (fun (pname, pool) ->
      if Pool.is_instrumented pool then
        Pool.iter_objects pool (fun b ->
            let ty, ty_name = block_ty b in
            ignore
              (add ~addr:b.Heap.payload ~words:b.Heap.words ~ty ~ty_name
                 ~origin:(O_pool_obj pname) ~region:Region.Heap ~startup:b.Heap.startup
                 ~site:(site_label b) ~callstack:b.Heap.callstack))
      else
        List.iter
          (fun (base, words) ->
            ignore
              (add ~addr:base ~words ~ty:None ~ty_name:None ~origin:(O_pool_chunk pname)
                 ~region:Region.Heap ~startup:false ~site:None ~callstack:0))
          (Pool.chunk_extents pool))
    image.P.i_pools;
  List.iter
    (fun (sname, slab) ->
      List.iter
        (fun (base, words) ->
          ignore
            (add ~addr:base ~words ~ty:None ~ty_name:None ~origin:(O_slab_chunk sname)
               ~region:Region.Heap ~startup:false ~site:None ~callstack:0))
        (Slab.chunk_extents slab))
    image.P.i_slabs;
  (* memory pinned by a previous update: one opaque object per pinned
     region, so chained updates re-discover (and re-pin) it *)
  List.iter
    (fun (r : Region.t) ->
      if r.Region.name = pin_region then
        ignore
          (add ~addr:r.Region.base ~words:(r.Region.size / Addr.word_size) ~ty:None
             ~ty_name:None ~origin:O_pinned ~region:r.Region.kind ~startup:false ~site:None
             ~callstack:0))
    (Aspace.regions image.P.i_aspace);
  (* stack variables registered at instrumented quiescent points *)
  List.iter
    (fun (key, ty, addr) ->
      let words = Ty.sizeof_words version.P.tyenv ty in
      ignore
        (add ~addr ~words ~ty:(Some ty) ~ty_name:None ~origin:(O_stack key)
           ~region:Region.Stack ~startup:false ~site:None ~callstack:0))
    image.P.i_stack_roots;
  List.rev !objs

(* ------------------------------------------------------------------ *)
(* Address index *)

let build_index objs =
  let arr = Array.of_list objs in
  Array.sort (fun a b -> compare a.addr b.addr) arr;
  arr

let resolve_in index addr =
  if addr <= 0 || not (Addr.is_aligned addr) then None
  else begin
    (* binary search: greatest object with obj.addr <= addr *)
    let lo = ref 0 and hi = ref (Array.length index - 1) and found = ref None in
    while !lo <= !hi do
      let mid = (!lo + !hi) / 2 in
      if index.(mid).addr <= addr then begin
        found := Some index.(mid);
        lo := mid + 1
      end
      else hi := mid - 1
    done;
    match !found with
    | Some o when addr < Addr.add_words o.addr o.words ->
        Some (o, (addr - o.addr) / Addr.word_size)
    | _ -> None
  end

(* ------------------------------------------------------------------ *)
(* Traversal *)

let analyze ?(policy = Ty.default_policy) ?(tag_free = false) ?cost_since ?trace ?fault
    (image : P.image) =
  let kernel = image.P.i_kernel in
  let costs = K.costs kernel in
  let cost = ref 0 in
  let objs = enumerate image in
  let objs =
    if not tag_free then objs
    else
      (* drop type knowledge from dynamic objects: the tag-free strategy *)
      List.map
        (fun o ->
          match o.origin with
          | O_heap | O_pool_obj _ -> { o with ty = None; ty_name = None }
          | _ -> o)
        objs
  in
  let index = build_index objs in
  let aspace = image.P.i_aspace in
  let env = image.P.i_version.P.tyenv in
  let stats = { precise = new_side (); likely = new_side () } in
  let text = Symtab.text_region image.P.i_symtab in
  (* Per-object cost attribution: every charge lands on the reachable object
     that caused it (first-visit charge, or the object whose opaque words are
     being scanned), so per-shard sums partition [cost_ns] exactly. *)
  let obj_cost = Array.make (List.length objs) 0 in
  (* Incremental re-trace accounting: with [cost_since], only objects on
     pages written after that {!Aspace.write_seq} mark are charged — a
     delta round walks the same graph (edges, pins and dirty flags must not
     depend on the round) but pays only for what changed. *)
  let charged =
    match cost_since with
    | None -> fun _ -> true
    | Some seq ->
        let memo = Hashtbl.create 256 in
        fun (o : obj) -> (
          match Hashtbl.find_opt memo o.id with
          | Some b -> b
          | None ->
              let b = Aspace.range_written_since aspace o.addr ~words:o.words ~seq in
              Hashtbl.add memo o.id b;
              b)
  in
  let charge (o : obj) c =
    cost := !cost + c;
    obj_cost.(o.id) <- obj_cost.(o.id) + c
  in
  let rec visit (o : obj) =
    if not o.reachable then begin
      o.reachable <- true;
      if charged o then charge o costs.Costs.trace_obj_ns;
      match o.ty with
      | Some ty -> visit_typed o ty
      | None -> visit_opaque o
    end
  and visit_typed o ty =
    let slots = Ty.slots ~policy env ty in
    (* objects can be arrays of their tagged type *)
    let tyw = Array.length slots in
    if tyw = 0 then ()
    else
      for w = 0 to o.words - 1 do
        match slots.(w mod tyw) with
        | Ty.Slot_scalar -> ()
        | Ty.Slot_ptr _ | Ty.Slot_void_ptr ->
            follow_precise o (Addr.add_words o.addr w)
        | Ty.Slot_func_ptr ->
            let v = Aspace.read_word aspace (Addr.add_words o.addr w) in
            if v <> 0 && Region.contains text v then
              record_edge stats.precise ~src_region:o.region ~targ_region:Region.Static
        | Ty.Slot_encoded_ptr { mask; _ } ->
            let v = Aspace.read_word aspace (Addr.add_words o.addr w) in
            let target = v land lnot mask in
            if target <> 0 then follow_precise_value o target
        | Ty.Slot_opaque -> scan_word o (Addr.add_words o.addr w)
      done
  and follow_precise o slot_addr =
    let v = Aspace.read_word aspace slot_addr in
    if v <> 0 then follow_precise_value o v
  and follow_precise_value o v =
    match resolve_in index v with
    | Some (target, _off) ->
        record_edge stats.precise ~src_region:o.region ~targ_region:target.region;
        visit target
    | None ->
        (* function pointers and other non-object targets *)
        if Region.contains text v then
          record_edge stats.precise ~src_region:o.region ~targ_region:Region.Static
  and visit_opaque o =
    if o.words > 0 then begin
      if charged o then charge o (o.words * costs.Costs.scan_word_ns);
      (* a zero word is never a likely pointer *)
      Aspace.iter_nonzero aspace o.addr ~words:o.words (scan_value o)
    end
  and scan_word o word_addr =
    if charged o then charge o costs.Costs.scan_word_ns;
    scan_value o (Aspace.read_word aspace word_addr)
  and scan_value o v =
    if v <> 0 && Addr.is_aligned v then
      match resolve_in index v with
      | Some (target, _off) ->
          record_edge stats.likely ~src_region:o.region ~targ_region:target.region;
          (* conservative invariants: the target is pinned and neither side
             may be type-transformed *)
          target.immutable_ <- true;
          target.nonupdatable <- true;
          o.nonupdatable <- true;
          visit target
      | None -> ()
  in
  (* roots: global data symbols and stack variables *)
  let roots =
    List.filter
      (fun o ->
        match o.origin with O_static _ | O_stack _ -> true | _ -> false)
      objs
  in
  List.iter visit roots;
  (* fault injection: pretend conservative scanning found one more likely
     pointer, targeting a typed relocatable heap object — the
     misclassification the paper's Section 6 warns about. Pinning it makes
     the transfer conflict when its type has a transformation plan. *)
  let injected_pin =
    match fault with
    | Some f when Mcr_fault.Fault.consume f Mcr_fault.Fault.Likely_misclassification ->
        let victim =
          List.find_opt
            (fun o ->
              o.reachable
              && (not o.immutable_)
              && (match o.origin with O_heap | O_pool_obj _ -> true | _ -> false)
              && o.ty_name <> None)
            objs
        in
        (match victim with
        | Some o ->
            o.immutable_ <- true;
            o.nonupdatable <- true;
            record_edge stats.likely ~src_region:Region.Static ~targ_region:o.region
        | None -> ());
        victim
    | _ -> None
  in
  (* Dirtiness per object: written since the startup checkpoint's epoch, or
     sitting on a page whose content was installed by a previous update's
     state transfer (inherited). Transfer stores are untracked, so without
     the taint a transferred object would look startup-clean and be wrongly
     skipped — losing the transferred state. *)
  List.iter
    (fun o ->
      let rec pages a =
        if a < Addr.add_words o.addr o.words then
          if
            Aspace.epoch_page_dirty aspace ~name:"startup" a
            || Aspace.page_inherited aspace a
          then o.dirty <- true
          else pages (Addr.add a Addr.page_size)
      in
      pages (Addr.page_base o.addr))
    objs;
  let side_args prefix (s : side) =
    [
      (prefix ^ "_ptr", string_of_int s.ptr);
      (prefix ^ "_src_static", string_of_int s.src_static);
      (prefix ^ "_src_dynamic", string_of_int s.src_dynamic);
      (prefix ^ "_targ_static", string_of_int s.targ_static);
      (prefix ^ "_targ_dynamic", string_of_int s.targ_dynamic);
      (prefix ^ "_targ_lib", string_of_int s.targ_lib);
    ]
  in
  (* one pass over the index for every summary the instant and the cached
     counters need, instead of a List.filter per counter *)
  let n_reachable = ref 0 and n_pinned = ref 0 and r_words = ref 0 in
  Array.iter
    (fun o ->
      if o.reachable then begin
        incr n_reachable;
        r_words := !r_words + o.words
      end;
      if o.immutable_ then incr n_pinned)
    index;
  Trace.instant trace
    ~pid:(K.pid image.P.i_proc)
    ~cat:"objgraph" "objgraph.edges"
    ~args:
      (side_args "precise" stats.precise
      @ side_args "likely" stats.likely
      @ [
          ("reachable", string_of_int !n_reachable);
          ("pinned", string_of_int !n_pinned);
          ("cost_ns", string_of_int !cost);
        ]);
  {
    objects = index;
    roots;
    stats;
    cost_ns = !cost;
    obj_cost;
    reachable_count = !n_reachable;
    reachable_words = !r_words;
    injected_pin;
  }

let resolve t addr = resolve_in t.objects addr

let iter_reachable t f = Array.iter (fun o -> if o.reachable then f o) t.objects

let reachable_objects t = Array.to_list t.objects |> List.filter (fun o -> o.reachable)

let dirty_objects t = Array.to_list t.objects |> List.filter (fun o -> o.dirty)

(* ------------------------------------------------------------------ *)
(* Shard partitioning for the worker-pool transfer model *)

type shard_plan = {
  sp_workers : int;
  sp_shard_of : int array;
  sp_objects : int array;
  sp_words : int array;
  sp_trace_ns : int array;
}

let shard t ~workers =
  if workers < 1 then invalid_arg "Objgraph.shard: workers must be >= 1";
  let reach =
    let buf = ref [] in
    Array.iter (fun o -> if o.reachable then buf := o :: !buf) t.objects;
    Array.of_list (List.rev !buf)
  in
  let n = Array.length reach in
  let w = max 1 (min workers n) in
  let total = Array.fold_left (fun acc o -> acc + o.words) 0 reach in
  (* contiguous address-order partition: shard k is reach.[bounds.(k),
     bounds.(k+1)). Greedy cuts at the word-count prefix-sum targets, never
     leaving a later shard without at least one object. *)
  let bounds = Array.make (w + 1) n in
  bounds.(0) <- 0;
  let s = ref 0 and prefix = ref 0 in
  for j = 0 to n - 1 do
    if
      !s < w - 1
      && j > bounds.(!s)
      && (n - j <= w - 1 - !s || !prefix * w >= (!s + 1) * total)
    then begin
      incr s;
      bounds.(!s) <- j
    end;
    prefix := !prefix + reach.(j).words
  done;
  (* work-stealing rebalance: shift boundary objects between adjacent shards
     whenever that strictly lowers the heavier side, until fixpoint (bounded
     pass count keeps this deterministic and terminating) *)
  let wsum = Array.make w 0 in
  for k = 0 to w - 1 do
    for j = bounds.(k) to bounds.(k + 1) - 1 do
      wsum.(k) <- wsum.(k) + reach.(j).words
    done
  done;
  let moved = ref (w > 1) and pass = ref 0 in
  while !moved && !pass < 8 * w do
    moved := false;
    incr pass;
    for k = 0 to w - 2 do
      let wk = wsum.(k) and wk1 = wsum.(k + 1) in
      if wk > wk1 && bounds.(k + 1) - bounds.(k) > 1 then begin
        let x = reach.(bounds.(k + 1) - 1).words in
        if max (wk - x) (wk1 + x) < wk then begin
          bounds.(k + 1) <- bounds.(k + 1) - 1;
          wsum.(k) <- wk - x;
          wsum.(k + 1) <- wk1 + x;
          moved := true
        end
      end
      else if wk1 > wk && bounds.(k + 2) - bounds.(k + 1) > 1 then begin
        let x = reach.(bounds.(k + 1)).words in
        if max (wk + x) (wk1 - x) < wk1 then begin
          bounds.(k + 1) <- bounds.(k + 1) + 1;
          wsum.(k) <- wk + x;
          wsum.(k + 1) <- wk1 - x;
          moved := true
        end
      end
    done
  done;
  let shard_of = Array.make (Array.length t.obj_cost) (-1) in
  let objects = Array.make w 0 and trace_ns = Array.make w 0 in
  for k = 0 to w - 1 do
    for j = bounds.(k) to bounds.(k + 1) - 1 do
      let o = reach.(j) in
      shard_of.(o.id) <- k;
      objects.(k) <- objects.(k) + 1;
      trace_ns.(k) <- trace_ns.(k) + t.obj_cost.(o.id)
    done
  done;
  {
    sp_workers = w;
    sp_shard_of = shard_of;
    sp_objects = objects;
    sp_words = wsum;
    sp_trace_ns = trace_ns;
  }

let sum_stats all =
  let add (a : side) (b : side) =
    a.ptr <- a.ptr + b.ptr;
    a.src_static <- a.src_static + b.src_static;
    a.src_dynamic <- a.src_dynamic + b.src_dynamic;
    a.targ_static <- a.targ_static + b.targ_static;
    a.targ_dynamic <- a.targ_dynamic + b.targ_dynamic;
    a.targ_lib <- a.targ_lib + b.targ_lib
  in
  let acc = { precise = new_side (); likely = new_side () } in
  List.iter
    (fun s ->
      add acc.precise s.precise;
      add acc.likely s.likely)
    all;
  acc
