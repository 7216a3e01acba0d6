module K = Mcr_simos.Kernel
module Costs = Mcr_simos.Costs
module Ty = Mcr_types.Ty
module Typlan = Mcr_types.Typlan
module Tyreg = Mcr_types.Tyreg
module Symtab = Mcr_types.Symtab
module Heap = Mcr_alloc.Heap
module Sites = Mcr_alloc.Sites
module Aspace = Mcr_vmem.Aspace
module Addr = Mcr_vmem.Addr
module Region = Mcr_vmem.Region
module P = Mcr_program.Progdef
module Trace = Mcr_obs.Trace
open Objgraph

(* Where the conflicting object sat in the transfer machinery when the
   conflict fired: its shard under the active plan (-1 unsharded), the last
   pre-copy round that staged it (0 = never), and its allocation call-stack
   ID. Captured eagerly — rollback destroys the state these are derived
   from, and the flight recorder must explain the failure afterwards. *)
type provenance = { shard : int; round : int; callstack : int }

type conflict =
  | Nonupdatable_changed of
      { addr : Addr.t; ty_name : string; detail : string; prov : provenance }
  | No_plan of { addr : Addr.t; ty_name : string; detail : string; prov : provenance }
  | Missing_type of { addr : Addr.t; ty_name : string; prov : provenance }
  | Pin_overlap of { page : Addr.t; region : string; source : string; prov : provenance }
  | Injected of { detail : string }

type outcome = {
  transferred_objects : int;
  transferred_words : int;
  skipped_clean : int;
  skipped_clean_words : int;
  immutable_remapped : int;
  fresh_allocations : int;
  type_transformed : int;
  dangling_zeroed : int;
  conflicts : conflict list;
  cost_ns : int;
  live_words : int;
  precopied_objects : int;
  precopied_words : int;
  remapped_pages : int;
  remapped_words : int;
  hashed_words : int;
  workers : int;
  shard_words : int array;
  shard_cost_ns : int array;
  trace_shard_ns : int array;
  trace_critical_ns : int;
  sequential_cost_ns : int;
}

(* ------------------------------------------------------------------ *)
(* Pre-copy staging *)

(* A pre-copy session never writes the new version: it stages content
   hashes of reachable old objects host-side and returns what such a round
   would have cost. The final in-window [run] then treats objects whose
   staged hash still matches their current content as prepaid — the copy
   happens identically (so the result is byte-for-byte the single-shot
   result), only the virtual-time charge is waived. Staging nothing into
   the new address space is what makes rollback from mid-pre-copy free and
   keeps the order-sensitive startup-matching index untouched. *)

type precopy_entry = { pc_words : int; pc_hash : int; pc_round : int }

type precopy = {
  pc_entries : (Addr.t, precopy_entry) Hashtbl.t; (* old payload addr -> staged *)
  mutable pc_rounds : int;
}

type round_stats = {
  round_objects : int;  (** Objects (re-)staged this round. *)
  round_words : int;  (** Words (re-)staged this round — the delta size. *)
  round_invalidated : int;  (** Staged entries dropped (object freed/moved/resized). *)
  staged_objects : int;  (** Live staged entries after the round. *)
  round_cost_ns : int;  (** What transferring this round's delta costs. *)
  round_trace_ns : int;  (** The round's tracing critical path over its shards. *)
}

let precopy_create () = { pc_entries = Hashtbl.create 256; pc_rounds = 0 }
let precopy_rounds pc = pc.pc_rounds

let content_hash aspace addr words =
  Aspace.fold_runs aspace addr ~words ~init:(Mcr_util.Fnv.int words)
    ~f:Mcr_util.Fnv.combine_ints

let precopy_round pc ~(old_image : P.image) ~analysis ?since ?(dirty_only = true)
    ?(workers = 1) () =
  let aspace = old_image.P.i_aspace in
  let costs = K.costs old_image.P.i_kernel in
  let twn = costs.Costs.transfer_word_ns in
  (* Dirty-driven staging: the final window only copies objects [run] will
     select, so staging (hashing) anything else is wasted work. When the
     transfer is dirty-only, soft-dirty-clean startup objects that will
     land on a startup match are skipped instead of hashed every round —
     this is what makes round cost scale with the dirty set rather than
     with the whole reachable graph. *)
  let will_copy (o : obj) =
    if o.immutable_ then true
    else
      match o.origin with
      | O_string _ -> false (* interned in the new rodata, never copied *)
      | O_static _ | O_stack _ -> o.dirty || not dirty_only
      | (O_heap | O_pool_obj _) when o.startup && o.site <> None ->
          o.dirty || not dirty_only
      | _ -> true
  in
  (* invalidate stale entries: the object behind a staged address was freed,
     moved, or resized since the previous round *)
  let live = Hashtbl.create (analysis.Objgraph.reachable_count + 1) in
  Objgraph.iter_reachable analysis (fun o -> Hashtbl.replace live o.addr o.words);
  let stale =
    Hashtbl.fold
      (fun addr e acc ->
        match Hashtbl.find_opt live addr with
        | Some w when w = e.pc_words -> acc
        | _ -> addr :: acc)
      pc.pc_entries []
  in
  List.iter (Hashtbl.remove pc.pc_entries) stale;
  (* the round's delta is copied by the same worker pool as the final
     window: charge per-shard and report the critical path *)
  let plan = Objgraph.shard analysis ~workers in
  let w = plan.Objgraph.sp_workers in
  let shard_words = Array.make w 0 in
  let objects = ref 0 and words = ref 0 in
  Objgraph.iter_reachable analysis (fun o ->
      let need =
        will_copy o
        &&
        match Hashtbl.find_opt pc.pc_entries o.addr with
        | None -> true
        | Some _ -> (
            match since with
            | None -> true
            | Some seq -> Aspace.range_written_since aspace o.addr ~words:o.words ~seq)
      in
      if need then begin
        Hashtbl.replace pc.pc_entries o.addr
          {
            pc_words = o.words;
            pc_hash = content_hash aspace o.addr o.words;
            pc_round = pc.pc_rounds + 1;
          };
        incr objects;
        words := !words + o.words;
        let s = plan.Objgraph.sp_shard_of.(o.id) in
        if s >= 0 then shard_words.(s) <- shard_words.(s) + o.words
      end);
  pc.pc_rounds <- pc.pc_rounds + 1;
  let round_cost_ns =
    if w <= 1 then !words * twn
    else
      (Array.fold_left max 0 shard_words * twn)
      + (w * (costs.Costs.worker_spawn_ns + costs.Costs.worker_join_ns))
  in
  {
    round_objects = !objects;
    round_words = !words;
    round_invalidated = List.length stale;
    staged_objects = Hashtbl.length pc.pc_entries;
    round_cost_ns;
    round_trace_ns = Array.fold_left max 0 plan.Objgraph.sp_trace_ns;
  }

(* ------------------------------------------------------------------ *)
(* The plan *)

(* Where an old object lands in the new version. *)
type dest =
  | D_existing of { addr : Addr.t; ty : Ty.t option; copy : bool }
      (** Startup-matched (or static/stack); [copy] false = clean, skip. *)
  | D_fresh of { addr : Addr.t; ty : Ty.t option }
  | D_in_place  (** Immutable: same address, pages pinned. *)
  | D_string of Addr.t  (** Interned literal in the new rodata. *)
  | D_dropped
  | D_unreachable  (** Not traced: pointers to it are left as they are. *)

(* How a copied object's content reaches its destination. *)
type how =
  | Verbatim of int  (** The object's first [n] words, unchanged. *)
  | Handler of P.transform * int  (** A user transfer handler fills [n] words. *)
  | Reshape of Typlan.t  (** A {!Typlan} transformation. *)

type copy = { dst : Addr.t; how : how; prepaid : bool }

type move =
  | Keep  (** Nothing to store: dropped, interned, or no transformation exists. *)
  | Skip  (** Clean: the new version's own startup state stands. *)
  | Copy of copy

type plan = {
  old_image : P.image;
  new_image : P.image;
  analysis : Objgraph.t;
  remap : bool;
  precopy : precopy option;
  shards : Objgraph.shard_plan;
  dest : dest array; (* by obj.id *)
  move : move array; (* by obj.id *)
  pins : (Addr.t * Region.kind) list; (* pages to map, in address order *)
  conflicts : conflict list;
}

let tyenv (im : P.image) = im.P.i_version.P.tyenv
let ty_exists env name = match Ty.env_find env name with _ -> true | exception Not_found -> false

(* A destination's extent in words: its new type's size, or the old size
   when untyped. *)
let extent env (o : obj) = function Some ty -> Ty.sizeof_words env ty | None -> o.words
let copy_words = function Verbatim n | Handler (_, n) -> n | Reshape tp -> tp.Typlan.dst_words

let staged_entry precopy (o : obj) =
  Option.bind precopy (fun pc -> Hashtbl.find_opt pc.pc_entries o.addr)

(* The pre-copy entry that staged this object at its current size: the
   window re-hashes it to decide whether the copy was prepaid. *)
let staged precopy (o : obj) =
  match staged_entry precopy o with Some e when e.pc_words = o.words -> Some e | _ -> None

(* site label -> startup blocks in address order, consumed in order *)
let build_startup_index (new_image : P.image) =
  let index : (string, (Addr.t * string option) Queue.t) Hashtbl.t = Hashtbl.create 32 in
  let name_of find id = if id = 0 then None else try Some (find id) with Not_found -> None in
  let site_label id = (Sites.find new_image.P.i_sites id).Sites.label in
  let of_block (b : Heap.block) =
    match if b.Heap.startup then name_of site_label b.Heap.site else None with
    | Some label ->
        let q =
          match Hashtbl.find_opt index label with
          | Some q -> q
          | None ->
              let q = Queue.create () in
              Hashtbl.replace index label q;
              q
        in
        Queue.push (b.Heap.payload, name_of (Tyreg.name_of_id new_image.P.i_tyreg) b.Heap.ty_id) q
    | None -> ()
  in
  Heap.iter_live new_image.P.i_heap of_block;
  List.iter (fun (_, pool) -> Mcr_alloc.Pool.iter_objects pool of_block) new_image.P.i_pools;
  index

(* Every decision of the transfer, made against the old image before
   anything is stored: destinations (allocating fresh ones), forced copies,
   moves, pin pages and conflicts. *)
let plan ~old_image ~new_image ~analysis ?(dirty_only = true) ?(remap = false) ?precopy
    ?(workers = 1) ?fault () =
  let old_env = tyenv old_image and new_env = tyenv new_image in
  let shards = Objgraph.shard analysis ~workers in
  let conflicts = ref [] in
  let conflict c = conflicts := c :: !conflicts in
  (* Where the conflicting object sat in the transfer machinery: captured
     now, because rollback destroys the state it is derived from. *)
  let provenance (o : obj) =
    {
      shard = shards.Objgraph.sp_shard_of.(o.id);
      round = Option.fold (staged_entry precopy o) ~none:0 ~some:(fun e -> e.pc_round);
      callstack = o.callstack;
    }
  in
  let nonupdatable (o : obj) ty_name detail =
    conflict (Nonupdatable_changed { addr = o.addr; ty_name; detail; prov = provenance o })
  in
  (* own the transfer's dirty epoch on the new image: tracked writes that
     land during the window (fresh allocation headers, user code) are
     visible to the remap eligibility check without touching anyone
     else's epoch *)
  Aspace.epoch_reset new_image.P.i_aspace ~name:"mcr.transfer";
  (match fault with
  | Some f when Mcr_fault.Fault.consume f Mcr_fault.Fault.Transfer_conflict ->
      conflict (Injected { detail = "injected transfer conflict" })
  | _ -> ());
  (* an Objgraph-level misclassification fault conflicts here: the pinned
     object cannot be relocated, which the transfer must refuse *)
  Option.iter
    (fun (o : obj) ->
      nonupdatable o
        (Option.value o.ty_name ~default:"<untyped>")
        "injected: spurious likely pointer pinned a relocatable object")
    analysis.Objgraph.injected_pin;
  let startup_index = build_startup_index new_image in
  let copy_unless_clean (o : obj) = o.dirty || not dirty_only in
  let fresh (o : obj) =
    match o.ty_name with
    | Some name when not (ty_exists new_env name) ->
        if o.dirty then
          conflict (Missing_type { addr = o.addr; ty_name = name; prov = provenance o });
        D_dropped
    | Some name ->
        let words = Ty.sizeof_words new_env (Ty.Named name) in
        let ty_id = Tyreg.register new_image.P.i_tyreg ~name (Ty.Named name) in
        let site =
          Option.fold o.site ~none:0 ~some:(fun label ->
              Sites.register new_image.P.i_sites ~label ~ty_id)
        in
        let addr = Heap.malloc new_image.P.i_heap ~ty_id ~site ~callstack:o.callstack words in
        D_fresh { addr; ty = Some (Ty.Named name) }
    | None ->
        (* untyped block: re-create at same size, verbatim. Mirror the
           allocator's ptmalloc-style segregation (Api.malloc_opaque): large
           blocks get page-aligned payloads, which keeps their pages
           layout-stable so the remap pass can share them instead of
           copying. *)
        let heap = new_image.P.i_heap and callstack = o.callstack in
        let addr =
          if o.words >= 256 then Heap.malloc_aligned heap ~ty_id:0 ~callstack o.words
          else Heap.malloc heap ~ty_id:0 ~callstack o.words
        in
        D_fresh { addr; ty = None }
  in
  let assign (o : obj) =
    if o.immutable_ then begin
      (match o.ty_name with
      | Some name
        when ty_exists new_env name
             && not (Ty.equal old_env new_env (Ty.Named name) (Ty.Named name)) ->
          nonupdatable o name "object is conservatively traced and cannot be type-transformed"
      | Some _ | None -> ());
      D_in_place
    end
    else
      match o.origin with
      | O_string s -> (
          match Symtab.string_addr new_image.P.i_symtab s with
          | addr -> D_string addr
          | exception Not_found -> D_dropped)
      | O_static name -> (
          match Symtab.lookup_opt new_image.P.i_symtab name with
          | Some e ->
              D_existing { addr = e.Symtab.addr; ty = Some e.Symtab.ty; copy = copy_unless_clean o }
          | None -> D_dropped)
      | O_stack key -> (
          match List.find_opt (fun (k, _, _) -> k = key) new_image.P.i_stack_roots with
          | Some (_, ty, addr) -> D_existing { addr; ty = Some ty; copy = copy_unless_clean o }
          | None -> D_dropped)
      (* uninstrumented custom-allocator memory is conservatively traced by
         definition; reaching here (not marked immutable) still means it
         cannot be relocated safely *)
      | O_pool_chunk _ | O_slab_chunk _ | O_lib | O_pinned -> D_in_place
      | O_heap | O_pool_obj _ -> (
          (* dynamic object: try the startup-reallocation match first *)
          let matched =
            match o.site with
            | Some label when o.startup -> (
                match Hashtbl.find_opt startup_index label with
                | Some q when not (Queue.is_empty q) -> Some (Queue.pop q)
                | _ -> None)
            | _ -> None
          in
          match matched with
          | Some (addr, ty_name) ->
              D_existing
                { addr; ty = Option.map (fun n -> Ty.Named n) ty_name; copy = copy_unless_clean o }
          | None -> fresh o)
  in
  let dest = Array.make (Array.length analysis.Objgraph.objects) D_unreachable in
  Objgraph.iter_reachable analysis (fun o -> dest.(o.id) <- assign o);
  let old_word (o : obj) i = Aspace.read_word old_image.P.i_aspace (Addr.add_words o.addr i) in
  (* A clean object may only be skipped if re-running startup reproduced an
     equivalent value for every one of its words. Pointers into pinned
     memory (uninstrumented library state, custom-allocator chunks) break
     that premise: replay allocates *fresh* library state, while the
     transferred image must keep the old, pinned state reachable — so a
     skipped referrer would commit a pointer the full transfer never
     produces. *)
  let points_into_pinned (o : obj) =
    let pinned v =
      v <> 0
      &&
      match Objgraph.resolve analysis v with
      | Some (target, _) -> ( match dest.(target.id) with D_in_place -> true | _ -> false)
      | None -> false
    in
    let rec any i slot = i < o.words && (slot i || any (i + 1) slot) in
    match o.ty with
    | Some ty ->
        let slots = Ty.slots old_env ty in
        let tyw = Array.length slots in
        tyw > 0
        && any 0 (fun i ->
               match slots.(i mod tyw) with
               | Ty.Slot_ptr _ | Ty.Slot_void_ptr -> pinned (old_word o i)
               | Ty.Slot_encoded_ptr { mask; _ } -> pinned (old_word o i land lnot mask)
               | Ty.Slot_scalar | Ty.Slot_opaque | Ty.Slot_func_ptr -> false)
    | None -> any 0 (fun i -> pinned (old_word o i))
  in
  (* Was this object's current content staged by a pre-copy round? If so the
     copy already happened (speculatively, while the old version served) and
     the in-window charge is waived. A hash mismatch means the object was
     written after its last staging: it is part of the final delta and pays
     full price. *)
  let copy (o : obj) dst how =
    let prepaid =
      match staged precopy o with
      | Some e -> e.pc_hash = content_hash old_image.P.i_aspace o.addr o.words
      | None -> false
    in
    Copy { dst; how; prepaid }
  in
  let transform (o : obj) ~src_ty ~dst_ty dst =
    (* user transfer handlers take precedence (semantic transformations) *)
    match Option.bind o.ty_name (P.transfer_handler new_image.P.i_version) with
    | Some h -> copy o dst (Handler (h, Ty.sizeof_words new_env dst_ty))
    | None -> (
        match Typlan.plan ~src_env:old_env ~dst_env:new_env ~src:src_ty ~dst:dst_ty with
        | Ok tp when Typlan.is_identity tp && tp.Typlan.dst_words <= o.words ->
            (* the type did not change shape: a plain copy, which the
               page-remap machinery can see as a page-congruent run *)
            copy o dst (Verbatim tp.Typlan.dst_words)
        | Ok tp -> copy o dst (Reshape tp)
        | Error detail ->
            conflict
              (No_plan
                 {
                   addr = o.addr;
                   ty_name = Option.value o.ty_name ~default:(Ty.to_string src_ty);
                   detail;
                   prov = provenance o;
                 });
            Keep)
  in
  let move = Array.make (Array.length dest) Keep in
  Objgraph.iter_reachable analysis (fun o ->
      (match dest.(o.id) with
      | D_existing ({ copy = false; _ } as d) when points_into_pinned o ->
          dest.(o.id) <- D_existing { d with copy = true }
      | _ -> ());
      move.(o.id) <-
        (match dest.(o.id) with
        | D_existing { copy = false; _ } -> Skip
        | D_existing { addr; ty; copy = true } | D_fresh { addr; ty } -> (
            match (o.ty, ty) with
            | Some src_ty, Some dst_ty -> transform o ~src_ty ~dst_ty addr
            | _ -> copy o addr (Verbatim (min o.words (extent new_env o ty))))
        | D_in_place -> copy o o.addr (Verbatim o.words)
        | D_string _ | D_dropped | D_unreachable -> Keep));
  (* every page of each in-place object. A page the new image already
     maps must be a pin or the object's own region rebuilt under the same
     name; any other mapping is the new version's live memory. *)
  let region_name im a =
    Option.fold (Aspace.find_region im.P.i_aspace a) ~none:"" ~some:(fun r -> r.Region.name)
  in
  let overlapped = Hashtbl.create 8 in
  let pins (o : obj) =
    let kind = match o.region with Region.Lib -> Region.Lib | _ -> Region.Mmap in
    let source = region_name old_image o.addr in
    let rec from page =
      if page >= Addr.add_words o.addr o.words then []
      else begin
        let region = region_name new_image page in
        if
          region <> "" && region <> Objgraph.pin_region && region <> source
          && not (Hashtbl.mem overlapped page)
        then begin
          Hashtbl.replace overlapped page ();
          conflict (Pin_overlap { page; region; source; prov = provenance o })
        end;
        (page, kind) :: from (Addr.add page Addr.page_size)
      end
    in
    match dest.(o.id) with D_in_place -> from (Addr.page_base o.addr) | _ -> []
  in
  let pins = List.concat_map pins (Objgraph.reachable_objects analysis) in
  {
    old_image;
    new_image;
    analysis;
    remap;
    precopy;
    shards;
    dest;
    move;
    pins;
    conflicts = List.rev !conflicts;
  }

let planned_conflicts p = p.conflicts

let destinations p =
  List.filter_map
    (fun (o : obj) ->
      match p.dest.(o.id) with
      | D_existing { addr; ty; copy = true } | D_fresh { addr; ty } ->
          Some (addr, extent (tyenv p.new_image) o ty)
      | D_in_place -> Some (o.addr, o.words)
      | D_existing { copy = false; _ } | D_string _ | D_dropped | D_unreachable -> None)
    (Objgraph.reachable_objects p.analysis)

(* ------------------------------------------------------------------ *)
(* The apply *)

(* State-transfer stores are kernel-mediated and must be UNTRACKED: a
   tracked store would stamp the page in every consumer's dirty epoch, so
   the next update's pre-copy rounds would re-hash (and the benches
   re-count) the entire transferred image as "dirty" even though the
   program never wrote it. Correctness across updates is preserved by the
   per-page [inherited] taint instead: transferred content diverges from
   what deterministic startup replay would re-create, so Objgraph treats
   inherited pages as dirty forever without polluting any write epoch. *)

(* Per-destination-page bookkeeping for the zero-copy remap: a page stays
   [Congruent] while every store to it came from verbatim runs sharing one
   src/dst delta, each part recorded as (shard, words, charged ns).
   Handler output, reshaping transformations and fixup rewrites poison it. *)
type page =
  | Poisoned
  | Congruent of { delta : int; shard : int; parts : (int * int * int) list }

let shard_of p (o : obj) = max 0 p.shards.Objgraph.sp_shard_of.(o.id)

(* translate an interior word offset through the target's transformation:
   the word that held the pointed-at field may have moved *)
let translate_offset p target_id delta_words =
  match p.move.(target_id) with
  | Copy { how = Reshape tp; _ } when delta_words <> 0 && not (Typlan.is_identity tp) ->
      List.find_map
        (function
          | Typlan.Copy { src_off; dst_off; words }
            when delta_words >= src_off && delta_words < src_off + words ->
              Some (dst_off + (delta_words - src_off))
          | Typlan.Copy _ | Typlan.Zero _ -> None)
        tp.Typlan.actions
  (* a base pointer is object identity, not "first field" *)
  | _ -> Some delta_words

(* Maps the pin pages, performs every move, rewrites precise pointers
   through the plan's destinations and, with [remap], shares the pages a
   verbatim copy left byte-identical. Returns the pointers it had to null
   and the shared pages as (paying shard, parts). *)
let store p =
  let src = p.old_image.P.i_aspace and dst = p.new_image.P.i_aspace in
  let twn = (K.costs p.old_image.P.i_kernel).Costs.transfer_word_ns in
  let pages : (int, page) Hashtbl.t = Hashtbl.create 256 in
  let poison addr ~words =
    if p.remap && words > 0 then
      for pn = Addr.page_of addr to Addr.page_of (Addr.add addr ((words * Addr.word_size) - 1)) do
        Hashtbl.replace pages pn Poisoned
      done
  in
  (* Record a verbatim run against its destination pages. If a whole page
     ends up byte-identical to its (page-aligned congruent) source page, the
     remap pass below retracts the copy charge and shares the frame. *)
  let rec record (o : obj) ~delta ~prepaid a remaining =
    if p.remap && remaining > 0 then begin
      let pn = Addr.page_of a in
      let portion = min remaining ((Addr.page_size - Addr.page_offset a) / Addr.word_size) in
      let part = (shard_of p o, portion, if prepaid then 0 else portion * twn) in
      Hashtbl.replace pages pn
        (match Hashtbl.find_opt pages pn with
        | None -> Congruent { delta; shard = shard_of p o; parts = [ part ] }
        | Some (Congruent c) when c.delta = delta -> Congruent { c with parts = part :: c.parts }
        | Some (Congruent _ | Poisoned) -> Poisoned);
      record o ~delta ~prepaid (Addr.add_words a portion) (remaining - portion)
    end
  in
  let write at words =
    Array.iteri (fun i v -> Aspace.write_word_untracked dst (Addr.add_words at i) v) words;
    Aspace.mark_inherited dst at ~words:(Array.length words)
  in
  List.iter
    (fun (page, kind) ->
      if not (Aspace.is_mapped_word dst page) then
        ignore
          (Aspace.map dst ~name:Objgraph.pin_region (Aspace.Fixed page) ~size:Addr.page_size kind))
    p.pins;
  Objgraph.iter_reachable p.analysis (fun o ->
      match p.move.(o.id) with
      | Keep | Skip -> ()
      | Copy { dst = at; how = Verbatim n; prepaid } ->
          Aspace.copy_words ~src o.addr ~dst at ~words:n;
          Aspace.mark_inherited dst at ~words:n;
          record o ~delta:(at - o.addr) ~prepaid at n
      | Copy { dst = at; how = Handler (h, n); _ } ->
          let old_words =
            Array.init o.words (fun i -> Aspace.read_word src (Addr.add_words o.addr i))
          and new_words = Array.make n 0 in
          h ~old_words ~new_words;
          write at new_words;
          (* handler output is synthesized, not a page-congruent copy *)
          poison at ~words:n
      | Copy { dst = at; how = Reshape tp; _ } ->
          Typlan.apply tp
            ~read:(fun off -> Aspace.read_word src (Addr.add_words o.addr off))
            ~write:(fun off v -> Aspace.write_word_untracked dst (Addr.add_words at off) v);
          Aspace.mark_inherited dst at ~words:tp.Typlan.dst_words;
          poison at ~words:tp.Typlan.dst_words);
  (* Pointer fixup: every precise slot of a stored object is rewritten
     through the destinations. A word that actually changes disqualifies
     its page from remapping. *)
  let dangling = ref 0 in
  let null () =
    incr dangling;
    Some 0
  in
  let remap_value v =
    if v = 0 then Some 0
    else
      match Objgraph.resolve p.analysis v with
      | Some (target, _) -> (
          let delta = v - target.addr in
          match p.dest.(target.id) with
          | D_existing { addr; _ } | D_fresh { addr; _ } -> (
              match translate_offset p target.id (delta / Addr.word_size) with
              | Some w -> Some (Addr.add_words addr w + (delta mod Addr.word_size))
              | None -> null () (* the pointed-at field was dropped by the update *))
          | D_string addr -> Some (addr + delta)
          | D_in_place | D_unreachable -> Some v
          | D_dropped -> null ())
      | None -> (
          (* function pointers relocate by symbol *)
          match Symtab.func_name_of_addr p.old_image.P.i_symtab v with
          | Some fname -> (
              match Symtab.func_addr p.new_image.P.i_symtab fname with
              | addr -> Some addr
              | exception Not_found -> null ())
          | None -> None (* not a pointer we know; leave untouched *))
  in
  let new_env = tyenv p.new_image in
  let fixup_at at ty =
    let slots = Ty.slots new_env ty in
    let tyw = Array.length slots in
    (* the pointer [ptr] of the word at [a], tagged with [meta] *)
    let rewrite a ~ptr ~meta =
      match remap_value ptr with
      | Some ptr' when ptr' <> ptr ->
          write a [| ptr' lor meta |];
          poison a ~words:1
      | Some _ | None -> ()
    in
    if tyw > 0 then
      for w = 0 to Ty.sizeof_words new_env ty - 1 do
        let a = Addr.add_words at w in
        match slots.(w mod tyw) with
        | Ty.Slot_ptr _ | Ty.Slot_void_ptr | Ty.Slot_func_ptr ->
            rewrite a ~ptr:(Aspace.read_word dst a) ~meta:0
        | Ty.Slot_encoded_ptr { mask; _ } ->
            let v = Aspace.read_word dst a in
            rewrite a ~ptr:(v land lnot mask) ~meta:(v land mask)
        | Ty.Slot_scalar | Ty.Slot_opaque -> ()
      done
  in
  Objgraph.iter_reachable p.analysis (fun o ->
      match p.dest.(o.id) with
      | D_existing { addr; ty = Some ty; copy = true } | D_fresh { addr; ty = Some ty } ->
          fixup_at addr ty
      (* typed pinned objects still get precise slot fixup; opaque pinned
         objects are left verbatim (their targets are pinned too) *)
      | D_in_place -> (
          match o.ty with
          | Some ty when not (Ty.contains_opaque (tyenv p.old_image) ty) -> fixup_at o.addr ty
          | Some _ | None -> ())
      | D_existing _ | D_fresh _ | D_string _ | D_dropped | D_unreachable -> ());
  (* Zero-copy page remap. Any destination page whose content is
     byte-identical to its page-aligned congruent source page need not
     keep a private copy: the frame is shared into the new image
     (refcounted, COW on first write). Running AFTER the copy keeps the
     committed image byte-identical by construction — equality is checked
     on the final bytes, so the pass only ever changes the virtual-time
     cost and the physical backing, never observable content. *)
  let shared =
    Hashtbl.fold (fun pn page acc -> (pn, page) :: acc) pages []
    |> List.sort compare
    |> List.filter_map (fun (pn, page) ->
           match page with
           | Congruent { delta; shard; parts } when delta mod Addr.page_size = 0 ->
               let dst_page = pn * Addr.page_size in
               let src_page = dst_page - delta in
               if
                 src_page >= 0
                 && Aspace.is_mapped_word src src_page
                 && Aspace.is_mapped_word dst dst_page
                 (* tracked writes during the window (e.g. fresh-allocation
                    headers) mean the page is not purely transfer-installed *)
                 && (not (Aspace.epoch_page_dirty dst ~name:"mcr.transfer" dst_page))
                 && Aspace.pages_equal src src_page dst dst_page
               then begin
                 Aspace.share_page ~src src_page ~dst dst_page;
                 Some (shard, parts)
               end
               else None
           | Congruent _ | Poisoned -> None)
  in
  (!dangling, shared)

let apply p =
  let dangling, shared = store p in
  let costs = K.costs p.old_image.P.i_kernel in
  let twn = costs.Costs.transfer_word_ns and rpn = costs.Costs.remap_page_ns in
  let sum f =
    let n = ref 0 in
    Objgraph.iter_reachable p.analysis (fun o -> n := !n + f o p.dest.(o.id) p.move.(o.id));
    !n
  in
  let copies f = sum (fun o _ -> function Copy c -> f o c | Keep | Skip -> 0) in
  let w = p.shards.Objgraph.sp_workers in
  let shard_words = Array.make w 0 and shard_cost = Array.make w 0 in
  Objgraph.iter_reachable p.analysis (fun o ->
      match p.move.(o.id) with
      | Copy { how; prepaid; _ } ->
          let s = shard_of p o and n = copy_words how in
          shard_words.(s) <- shard_words.(s) + n;
          if not prepaid then shard_cost.(s) <- shard_cost.(s) + (n * twn)
      | Keep | Skip -> ());
  (* the remap retracts each shared page's copy charge for one page charge *)
  List.iter
    (fun (s, parts) ->
      List.iter (fun (s, _, charged) -> shard_cost.(s) <- shard_cost.(s) - charged) parts;
      shard_cost.(s) <- shard_cost.(s) + rpn)
    shared;
  let retracted = List.concat_map snd shared in
  let sequential_cost_ns =
    copies (fun _ c -> if c.prepaid then 0 else copy_words c.how * twn)
    - List.fold_left (fun acc (_, _, charged) -> acc + charged) 0 retracted
    + (List.length shared * rpn)
  in
  {
    transferred_objects = copies (fun _ _ -> 1);
    transferred_words = copies (fun _ c -> copy_words c.how);
    skipped_clean = sum (fun _ _ -> function Skip -> 1 | Keep | Copy _ -> 0);
    skipped_clean_words = sum (fun o _ -> function Skip -> o.words | Keep | Copy _ -> 0);
    immutable_remapped = sum (fun _ d _ -> match d with D_in_place -> 1 | _ -> 0);
    fresh_allocations = sum (fun _ d _ -> match d with D_fresh _ -> 1 | _ -> 0);
    type_transformed =
      copies (fun _ c ->
          match c.how with
          | Handler _ -> 1
          | Reshape tp when not (Typlan.is_identity tp) -> 1
          | Reshape _ | Verbatim _ -> 0);
    dangling_zeroed = dangling;
    conflicts = p.conflicts;
    cost_ns =
      (if w <= 1 then sequential_cost_ns
       else
         Array.fold_left max 0 shard_cost
         + (w * (costs.Costs.worker_spawn_ns + costs.Costs.worker_join_ns)));
    live_words = p.analysis.Objgraph.reachable_words;
    precopied_objects = copies (fun _ c -> if c.prepaid then 1 else 0);
    precopied_words = copies (fun _ c -> if c.prepaid then copy_words c.how else 0);
    remapped_pages = List.length shared;
    remapped_words = List.fold_left (fun acc (_, words, _) -> acc + words) 0 retracted;
    hashed_words = copies (fun o _ -> if staged p.precopy o <> None then o.words else 0);
    workers = w;
    shard_words;
    shard_cost_ns = shard_cost;
    trace_shard_ns = p.shards.Objgraph.sp_trace_ns;
    trace_critical_ns = Array.fold_left max 0 p.shards.Objgraph.sp_trace_ns;
    sequential_cost_ns;
  }

let run ~old_image ~new_image ~analysis ?dirty_only ?remap ?precopy ?workers ?trace ?fault () =
  let outcome =
    apply (plan ~old_image ~new_image ~analysis ?dirty_only ?remap ?precopy ?workers ?fault ())
  in
  Trace.instant trace
    ~pid:(K.pid new_image.P.i_proc)
    ~cat:"transfer" "transfer.outcome"
    ~args:
      [
        ("objects", string_of_int outcome.transferred_objects);
        ("words", string_of_int outcome.transferred_words);
        ("skipped_clean", string_of_int outcome.skipped_clean);
        ("skipped_clean_words", string_of_int outcome.skipped_clean_words);
        ("remapped_pages", string_of_int outcome.remapped_pages);
        ("remapped_words", string_of_int outcome.remapped_words);
        ("immutable_remapped", string_of_int outcome.immutable_remapped);
        ("fresh_allocations", string_of_int outcome.fresh_allocations);
        ("type_transformed", string_of_int outcome.type_transformed);
        ("dangling_zeroed", string_of_int outcome.dangling_zeroed);
        ("conflicts", string_of_int (List.length outcome.conflicts));
        ("cost_ns", string_of_int outcome.cost_ns);
        ("precopied_objects", string_of_int outcome.precopied_objects);
        ("workers", string_of_int outcome.workers);
        ("sequential_cost_ns", string_of_int outcome.sequential_cost_ns);
      ];
  outcome

let conflict_obj c =
  let obj co_kind co_addr ty_name prov co_detail =
    {
      Mcr_error.co_kind;
      co_addr;
      co_ty = Some ty_name;
      co_callstack = prov.callstack;
      co_shard = prov.shard;
      co_round = prov.round;
      co_detail;
    }
  in
  match c with
  | Nonupdatable_changed { addr; ty_name; detail; prov } ->
      obj "nonupdatable_changed" addr ty_name prov detail
  | No_plan { addr; ty_name; detail; prov } -> obj "no_plan" addr ty_name prov detail
  | Missing_type { addr; ty_name; prov } ->
      obj "missing_type" addr ty_name prov "dirty object's type is absent from the new version"
  | Pin_overlap { page; region; source; prov } ->
      {
        (obj "pin_overlap" page "" prov
           (Printf.sprintf "pinned %s page already mapped by %s" source region))
        with
        co_ty = None;
      }
  | Injected { detail } ->
      { (obj "injected" 0 "" { shard = -1; round = 0; callstack = 0 } detail) with co_ty = None }

let rollback_reason (conflicts : conflict list) =
  match conflicts with
  | [] -> None
  | cs -> Some (Mcr_error.Tracing_conflict (List.map conflict_obj cs))

let pp_conflict ppf = function
  | Nonupdatable_changed { addr; ty_name; detail; _ } ->
      Format.fprintf ppf "nonupdatable object %a (%s) changed by update: %s" Addr.pp addr
        ty_name detail
  | No_plan { addr; ty_name; detail; _ } ->
      Format.fprintf ppf "no transformation for %a (%s): %s" Addr.pp addr ty_name detail
  | Missing_type { addr; ty_name; _ } ->
      Format.fprintf ppf "dirty object %a has type %s absent from the new version" Addr.pp addr
        ty_name
  | Pin_overlap { page; region; source; _ } ->
      Format.fprintf ppf "pinned %s page %a is already mapped by %s in the new version" source
        Addr.pp page region
  | Injected { detail } -> Format.fprintf ppf "injected conflict: %s" detail
