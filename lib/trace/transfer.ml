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
}

let precopy_create () = { pc_entries = Hashtbl.create 256; pc_rounds = 0 }
let precopy_rounds pc = pc.pc_rounds

let content_hash aspace addr words =
  Aspace.fold_words aspace addr ~words ~init:(Mcr_util.Fnv.int words) ~f:(fun h v ->
      Mcr_util.Fnv.combine h (Mcr_util.Fnv.int v))

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
  }

(* Where an old object lands in the new version. *)
type dest =
  | D_existing of { addr : Addr.t; ty : Ty.t option; copy : bool }
      (** Startup-matched (or static/stack); [copy] false = clean, skip. *)
  | D_fresh of { addr : Addr.t; ty : Ty.t option }
  | D_in_place  (** Immutable: same address, pages pinned. *)
  | D_string of Addr.t  (** Interned literal in the new rodata. *)
  | D_dropped

(* Per-destination-page bookkeeping for the zero-copy remap: a page is a
   remap candidate only if every byte written to it came from verbatim
   copies sharing one page-congruent src/dst delta. Handler output,
   non-identity transformations and fixup rewrites poison the page. *)
type page_contrib = {
  mutable pg_delta : int; (* dst byte address - src byte address *)
  mutable pg_seen : bool; (* a verbatim run contributed (pg_delta valid) *)
  mutable pg_ok : bool; (* still eligible *)
  mutable pg_shard : int; (* shard that pays the remap charge *)
  mutable pg_parts : (int * int * int) list; (* shard, words, charged ns *)
}

type state = {
  old_image : P.image;
  new_image : P.image;
  analysis : Objgraph.t;
  dirty_only : bool;
  remap : bool;
  precopy : precopy option;
  plan : Objgraph.shard_plan;
  shard_cost : int array; (* per-shard copy charge *)
  shard_w : int array; (* per-shard words copied *)
  dests : (int, dest) Hashtbl.t; (* old obj id -> destination *)
  plans : (int, Typlan.t) Hashtbl.t;
      (* transformation plan used per old object: interior pointers must
         follow their field through the plan, not a linear offset *)
  page_contribs : (int, page_contrib) Hashtbl.t; (* dst page number *)
  mutable conflicts : conflict list;
  mutable cost : int;
  mutable words_copied : int;
  mutable objects_copied : int;
  mutable skipped : int;
  mutable skipped_w : int;
  mutable pinned : int;
  mutable fresh : int;
  mutable transformed : int;
  mutable dangling : int;
  mutable precopied_objs : int;
  mutable precopied_w : int;
  mutable remapped_pages : int;
  mutable remapped_w : int;
  mutable hashed_w : int;
}

let conflictf st c = st.conflicts <- c :: st.conflicts

let provenance st (o : obj) =
  let round =
    match st.precopy with
    | Some pc -> (
        match Hashtbl.find_opt pc.pc_entries o.addr with
        | Some e -> e.pc_round
        | None -> 0)
    | None -> 0
  in
  { shard = st.plan.Objgraph.sp_shard_of.(o.id); round; callstack = o.callstack }

let old_env st = st.old_image.P.i_version.P.tyenv
let new_env st = st.new_image.P.i_version.P.tyenv

let new_ty_exists st name =
  match Ty.env_find (new_env st) name with _ -> true | exception Not_found -> false

(* ------------------------------------------------------------------ *)
(* Startup-object matching index (new version) *)

(* site label -> startup blocks in address order, consumed in order *)
let build_startup_index (new_image : P.image) =
  let index : (string, (Addr.t * int * string option) Queue.t) Hashtbl.t = Hashtbl.create 32 in
  let add_block ~site_label ~payload ~words ~ty_name =
    match site_label with
    | None -> ()
    | Some label ->
        let q =
          match Hashtbl.find_opt index label with
          | Some q -> q
          | None ->
              let q = Queue.create () in
              Hashtbl.replace index label q;
              q
        in
        Queue.push (payload, words, ty_name) q
  in
  let of_block (b : Heap.block) =
    if b.Heap.startup then begin
      let site_label =
        if b.Heap.site = 0 then None
        else
          match Sites.find new_image.P.i_sites b.Heap.site with
          | s -> Some s.Sites.label
          | exception Not_found -> None
      in
      let ty_name =
        if b.Heap.ty_id = 0 then None
        else
          match Tyreg.name_of_id new_image.P.i_tyreg b.Heap.ty_id with
          | n -> Some n
          | exception Not_found -> None
      in
      add_block ~site_label ~payload:b.Heap.payload ~words:b.Heap.words ~ty_name
    end
  in
  Heap.iter_live new_image.P.i_heap of_block;
  List.iter
    (fun (_, pool) -> Mcr_alloc.Pool.iter_objects pool of_block)
    new_image.P.i_pools;
  index

(* ------------------------------------------------------------------ *)
(* Destination assignment *)

let pin_pages st (o : obj) =
  let aspace = st.new_image.P.i_aspace in
  let rec go page =
    if page < Addr.add_words o.addr o.words then begin
      if not (Aspace.is_mapped_word aspace page) then
        ignore
          (Aspace.map aspace ~name:"mcr:pin" (Aspace.Fixed page) ~size:Addr.page_size
             (match o.region with Region.Lib -> Region.Lib | _ -> Region.Mmap));
      go (Addr.add page Addr.page_size)
    end
  in
  go (Addr.page_base o.addr)

let check_nonupdatable st (o : obj) =
  match o.ty_name with
  | Some name when new_ty_exists st name ->
      if not (Ty.equal (old_env st) (new_env st) (Ty.Named name) (Ty.Named name)) then
        conflictf st
          (Nonupdatable_changed
             {
               addr = o.addr;
               ty_name = name;
               detail = "object is conservatively traced and cannot be type-transformed";
               prov = provenance st o;
             })
  | Some _ | None -> ()

let assign_dest st startup_index (o : obj) =
  let dest =
    if o.immutable_ then begin
      check_nonupdatable st o;
      pin_pages st o;
      st.pinned <- st.pinned + 1;
      D_in_place
    end
    else
      match o.origin with
      | O_string s -> begin
          match Symtab.string_addr st.new_image.P.i_symtab s with
          | addr -> D_string addr
          | exception Not_found -> D_dropped
        end
      | O_static name -> begin
          match Symtab.lookup_opt st.new_image.P.i_symtab name with
          | Some e ->
              D_existing { addr = e.Symtab.addr; ty = Some e.Symtab.ty; copy = o.dirty || not st.dirty_only }
          | None -> D_dropped
        end
      | O_stack key -> begin
          match
            List.find_opt (fun (k, _, _) -> k = key) st.new_image.P.i_stack_roots
          with
          | Some (_, ty, addr) ->
              D_existing { addr; ty = Some ty; copy = o.dirty || not st.dirty_only }
          | None -> D_dropped
        end
      | O_pool_chunk _ | O_slab_chunk _ ->
          (* uninstrumented custom-allocator memory is conservatively traced
             by definition; reaching here (not marked immutable) still means
             it cannot be relocated safely *)
          pin_pages st o;
          st.pinned <- st.pinned + 1;
          D_in_place
      | O_lib | O_pinned ->
          pin_pages st o;
          st.pinned <- st.pinned + 1;
          D_in_place
      | O_heap | O_pool_obj _ -> begin
          (* dynamic object: try the startup-reallocation match first *)
          let matched =
            match o.site with
            | Some label when o.startup -> begin
                match Hashtbl.find_opt startup_index label with
                | Some q when not (Queue.is_empty q) -> Some (Queue.pop q)
                | _ -> None
              end
            | _ -> None
          in
          match matched with
          | Some (addr, _words, ty_name) ->
              let ty = Option.map (fun n -> Ty.Named n) ty_name in
              D_existing { addr; ty; copy = o.dirty || not st.dirty_only }
          | None -> begin
              (* reallocate at state-transfer time *)
              match o.ty_name with
              | Some name when not (new_ty_exists st name) ->
                  if o.dirty then
                    conflictf st
                      (Missing_type { addr = o.addr; ty_name = name; prov = provenance st o });
                  D_dropped
              | Some name ->
                  let words = Ty.sizeof_words (new_env st) (Ty.Named name) in
                  let ty_id = Tyreg.register st.new_image.P.i_tyreg ~name (Ty.Named name) in
                  let site_id =
                    match o.site with
                    | Some label -> Sites.register st.new_image.P.i_sites ~label ~ty_id
                    | None -> 0
                  in
                  let addr =
                    Heap.malloc st.new_image.P.i_heap ~ty_id ~site:site_id
                      ~callstack:o.callstack words
                  in
                  st.fresh <- st.fresh + 1;
                  D_fresh { addr; ty = Some (Ty.Named name) }
              | None ->
                  (* untyped block: re-create at same size, verbatim.
                     Mirror the allocator's ptmalloc-style segregation
                     (Api.malloc_opaque): large blocks get page-aligned
                     payloads, which keeps their pages layout-stable so
                     the remap pass can share them instead of copying. *)
                  let addr =
                    if o.words >= 256 then
                      Heap.malloc_aligned st.new_image.P.i_heap ~ty_id:0
                        ~callstack:o.callstack o.words
                    else
                      Heap.malloc st.new_image.P.i_heap ~ty_id:0 ~callstack:o.callstack
                        o.words
                  in
                  st.fresh <- st.fresh + 1;
                  D_fresh { addr; ty = None }
            end
        end
  in
  Hashtbl.replace st.dests o.id dest

(* ------------------------------------------------------------------ *)
(* Copy / transform *)

let read_old st (o : obj) =
  Array.init o.words (fun i -> Aspace.read_word st.old_image.P.i_aspace (Addr.add_words o.addr i))

(* State-transfer stores are kernel-mediated and must be UNTRACKED: a
   tracked store would stamp the page in every consumer's dirty epoch, so
   the next update's pre-copy rounds would re-hash (and the benches
   re-count) the entire transferred image as "dirty" even though the
   program never wrote it. Correctness across updates is preserved by the
   per-page [inherited] taint instead: transferred content diverges from
   what deterministic startup replay would re-create, so Objgraph treats
   inherited pages as dirty forever without polluting any write epoch. *)

let poison_pages st addr ~words =
  if st.remap && words > 0 then begin
    let first = Addr.page_of addr
    and last = Addr.page_of (Addr.add addr ((words * Addr.word_size) - 1)) in
    for pn = first to last do
      match Hashtbl.find_opt st.page_contribs pn with
      | Some c -> c.pg_ok <- false
      | None ->
          Hashtbl.replace st.page_contribs pn
            { pg_delta = 0; pg_seen = false; pg_ok = false; pg_shard = 0; pg_parts = [] }
    done
  end

let write_new st addr words_arr =
  let aspace = st.new_image.P.i_aspace in
  Array.iteri
    (fun i v -> Aspace.write_word_untracked aspace (Addr.add_words addr i) v)
    words_arr;
  Aspace.mark_inherited aspace addr ~words:(Array.length words_arr);
  (* handler output is synthesized, not a page-congruent copy *)
  poison_pages st addr ~words:(Array.length words_arr)

(* Was this object's current content staged by a pre-copy round? If so the
   copy already happened (speculatively, while the old version served) and
   the in-window charge is waived. A hash mismatch means the object was
   written after its last staging: it is part of the final delta and pays
   full price. *)
let prepaid st (o : obj) =
  match st.precopy with
  | None -> false
  | Some pc -> (
      match Hashtbl.find_opt pc.pc_entries o.addr with
      | Some e ->
          e.pc_words = o.words
          && begin
               st.hashed_w <- st.hashed_w + o.words;
               e.pc_hash = content_hash st.old_image.P.i_aspace o.addr o.words
             end
      | None -> false)

let shard_of st (o : obj) =
  let s = st.plan.Objgraph.sp_shard_of.(o.id) in
  if s >= 0 then s else 0

let charge_copy st ~prepaid (o : obj) words =
  let s = shard_of st o in
  st.shard_w.(s) <- st.shard_w.(s) + words;
  if prepaid then begin
    st.precopied_objs <- st.precopied_objs + 1;
    st.precopied_w <- st.precopied_w + words
  end
  else begin
    let c = words * (K.costs st.old_image.P.i_kernel).Costs.transfer_word_ns in
    st.cost <- st.cost + c;
    st.shard_cost.(s) <- st.shard_cost.(s) + c
  end;
  st.words_copied <- st.words_copied + words;
  st.objects_copied <- st.objects_copied + 1

(* Record a verbatim run against its destination pages. The copy itself
   already happened word-by-word; if a whole page ends up byte-identical to
   its (page-aligned congruent) source page, the remap pass below retracts
   the copy charge and shares the frame instead. *)
let record_verbatim st (o : obj) dst_addr n ~prepaid =
  if st.remap && n > 0 then begin
    let twn = (K.costs st.old_image.P.i_kernel).Costs.transfer_word_ns in
    let s = shard_of st o in
    let delta = dst_addr - o.addr in
    let rec go a remaining =
      if remaining > 0 then begin
        let pn = Addr.page_of a in
        let in_page = (Addr.page_size - Addr.page_offset a) / Addr.word_size in
        let portion = min remaining in_page in
        let c =
          match Hashtbl.find_opt st.page_contribs pn with
          | Some c -> c
          | None ->
              let c =
                { pg_delta = 0; pg_seen = false; pg_ok = true; pg_shard = s; pg_parts = [] }
              in
              Hashtbl.replace st.page_contribs pn c;
              c
        in
        if not c.pg_seen then begin
          c.pg_seen <- true;
          c.pg_delta <- delta;
          c.pg_shard <- s
        end
        else if c.pg_delta <> delta then c.pg_ok <- false;
        let charged = if prepaid then 0 else portion * twn in
        c.pg_parts <- (s, portion, charged) :: c.pg_parts;
        go (Addr.add_words a portion) (remaining - portion)
      end
    in
    go dst_addr n
  end

let verbatim st (o : obj) dst_addr dst_words =
  let prepaid = prepaid st o in
  let n = min o.words dst_words in
  Aspace.copy_words
    ~src:st.old_image.P.i_aspace o.addr
    ~dst:st.new_image.P.i_aspace dst_addr ~words:n;
  Aspace.mark_inherited st.new_image.P.i_aspace dst_addr ~words:n;
  record_verbatim st o dst_addr n ~prepaid;
  charge_copy st ~prepaid o n

let transform st (o : obj) ~src_ty ~dst_ty ~dst_addr =
  (* user transfer handlers take precedence (semantic transformations) *)
  let handler =
    match o.ty_name with
    | Some name -> P.transfer_handler st.new_image.P.i_version name
    | None -> None
  in
  match handler with
  | Some h ->
      let prepaid = prepaid st o in
      let old_words = read_old st o in
      let dst_words = Ty.sizeof_words (new_env st) dst_ty in
      let new_words = Array.make dst_words 0 in
      h ~old_words ~new_words;
      write_new st dst_addr new_words;
      charge_copy st ~prepaid o dst_words;
      st.transformed <- st.transformed + 1;
      true
  | None -> begin
      match Typlan.plan ~src_env:(old_env st) ~dst_env:(new_env st) ~src:src_ty ~dst:dst_ty with
      | Ok plan when Typlan.is_identity plan && plan.Typlan.dst_words <= o.words ->
          (* the type did not change shape: this is a plain copy, so route
             it through [verbatim] where the page-remap machinery can see
             it as a page-congruent run *)
          verbatim st o dst_addr plan.Typlan.dst_words;
          true
      | Ok plan ->
          let prepaid = prepaid st o in
          let src = st.old_image.P.i_aspace and dst = st.new_image.P.i_aspace in
          Typlan.apply plan
            ~read:(fun off -> Aspace.read_word src (Addr.add_words o.addr off))
            ~write:(fun off v ->
              Aspace.write_word_untracked dst (Addr.add_words dst_addr off) v);
          Aspace.mark_inherited dst dst_addr ~words:plan.Typlan.dst_words;
          (* a reshaping transformation is not a congruent byte copy *)
          poison_pages st dst_addr ~words:plan.Typlan.dst_words;
          charge_copy st ~prepaid o plan.Typlan.dst_words;
          if not (Typlan.is_identity plan) then begin
            st.transformed <- st.transformed + 1;
            Hashtbl.replace st.plans o.id plan
          end;
          true
      | Error detail ->
          conflictf st
            (No_plan
               {
                 addr = o.addr;
                 ty_name = Option.value o.ty_name ~default:(Ty.to_string src_ty);
                 detail;
                 prov = provenance st o;
               });
          false
    end

(* A clean object may only be skipped if re-running startup reproduced an
   equivalent value for every one of its words. Pointers into pinned
   memory (uninstrumented library state, custom-allocator chunks) break
   that premise: replay allocates *fresh* library state, while the
   transferred image must keep the old, pinned state reachable — so a
   skipped referrer would commit a pointer the full transfer never
   produces. The referrer set falls out of the same traversal that pinned
   the targets, so detecting it adds no analysis cost. *)
let points_into_pinned st (o : obj) =
  let word i = Aspace.read_word st.old_image.P.i_aspace (Addr.add_words o.addr i) in
  let pinned v =
    v <> 0
    &&
    match Objgraph.resolve st.analysis v with
    | Some (target, _) -> Hashtbl.find_opt st.dests target.id = Some D_in_place
    | None -> false
  in
  let found = ref false in
  (match o.ty with
  | Some ty ->
      let slots = Ty.slots (old_env st) ty in
      let tyw = Array.length slots in
      if tyw > 0 then
        for i = 0 to o.words - 1 do
          if not !found then
            match slots.(i mod tyw) with
            | Ty.Slot_ptr _ | Ty.Slot_void_ptr -> if pinned (word i) then found := true
            | Ty.Slot_encoded_ptr { mask; _ } ->
                if pinned (word i land lnot mask) then found := true
            | Ty.Slot_scalar | Ty.Slot_opaque | Ty.Slot_func_ptr -> ()
        done
  | None ->
      for i = 0 to o.words - 1 do
        if (not !found) && pinned (word i) then found := true
      done);
  !found

let force_copy_pin_referrers st (o : obj) =
  match Hashtbl.find_opt st.dests o.id with
  | Some (D_existing { addr; ty; copy = false }) when points_into_pinned st o ->
      Hashtbl.replace st.dests o.id (D_existing { addr; ty; copy = true })
  | _ -> ()

let copy_object st (o : obj) =
  match Hashtbl.find_opt st.dests o.id with
  | None | Some D_dropped | Some (D_string _) -> ()
  | Some (D_existing { copy = false; _ }) ->
      st.skipped <- st.skipped + 1;
      st.skipped_w <- st.skipped_w + o.words
  | Some (D_existing { addr; ty; copy = true }) | Some (D_fresh { addr; ty }) -> begin
      match (o.ty, ty) with
      | Some src_ty, Some dst_ty -> ignore (transform st o ~src_ty ~dst_ty ~dst_addr:addr)
      | _, _ ->
          (* untyped on either side: verbatim *)
          let dst_words =
            match ty with
            | Some dt -> Ty.sizeof_words (new_env st) dt
            | None -> o.words
          in
          verbatim st o addr dst_words
    end
  | Some D_in_place ->
      verbatim st o o.addr o.words

(* ------------------------------------------------------------------ *)
(* Pointer fixup *)

(* translate an interior word offset through the target's transformation
   plan: the word that held the pointed-at field may have moved *)
let translate_offset st target_id delta_words =
  if delta_words = 0 then Some 0 (* a base pointer is object identity, not "first field" *)
  else
    match Hashtbl.find_opt st.plans target_id with
    | None -> Some delta_words
    | Some plan ->
        List.find_map
          (function
            | Typlan.Copy { src_off; dst_off; words }
              when delta_words >= src_off && delta_words < src_off + words ->
                Some (dst_off + (delta_words - src_off))
            | Typlan.Copy _ | Typlan.Zero _ -> None)
          plan.Typlan.actions

let remap_value st v =
  if v = 0 then Some 0
  else
    match Objgraph.resolve st.analysis v with
    | Some (target, _) -> begin
        let delta = v - target.addr in
        let delta_words = delta / Addr.word_size in
        match Hashtbl.find_opt st.dests target.id with
        | Some (D_existing { addr; _ }) | Some (D_fresh { addr; _ }) -> begin
            match translate_offset st target.id delta_words with
            | Some w -> Some (Addr.add_words addr w + (delta mod Addr.word_size))
            | None ->
                (* the pointed-at field was dropped by the update *)
                st.dangling <- st.dangling + 1;
                Some 0
          end
        | Some (D_string addr) -> Some (addr + delta)
        | Some D_in_place -> Some v
        | Some D_dropped ->
            st.dangling <- st.dangling + 1;
            Some 0
        | None -> Some v
      end
    | None -> begin
        (* function pointers relocate by symbol *)
        match Symtab.func_name_of_addr st.old_image.P.i_symtab v with
        | Some fname -> begin
            match Symtab.func_addr st.new_image.P.i_symtab fname with
            | addr -> Some addr
            | exception Not_found ->
                st.dangling <- st.dangling + 1;
                Some 0
          end
        | None -> None (* not a pointer we know; leave untouched *)
      end

let fixup_object st (o : obj) =
  let fixup_at dst_addr dst_ty =
    let slots = Ty.slots (new_env st) dst_ty in
    let aspace = st.new_image.P.i_aspace in
    (* fixup is part of the kernel-mediated transfer too: untracked, and a
       word that actually changes disqualifies its page from remapping *)
    let store a v =
      Aspace.write_word_untracked aspace a v;
      Aspace.mark_inherited aspace a ~words:1;
      poison_pages st a ~words:1
    in
    let tyw = Array.length slots in
    if tyw > 0 then begin
      let dst_words = Ty.sizeof_words (new_env st) dst_ty in
      for w = 0 to dst_words - 1 do
        let a = Addr.add_words dst_addr w in
        match slots.(w mod tyw) with
        | Ty.Slot_ptr _ | Ty.Slot_void_ptr | Ty.Slot_func_ptr ->
            let v = Aspace.read_word aspace a in
            (match remap_value st v with
            | Some v' when v' <> v -> store a v'
            | Some _ | None -> ())
        | Ty.Slot_encoded_ptr { mask; _ } ->
            let v = Aspace.read_word aspace a in
            let ptr = v land lnot mask and meta = v land mask in
            (match remap_value st ptr with
            | Some p' when p' <> ptr -> store a (p' lor meta)
            | Some _ | None -> ())
        | Ty.Slot_scalar | Ty.Slot_opaque -> ()
      done
    end
  in
  match Hashtbl.find_opt st.dests o.id with
  | Some (D_existing { addr; ty = Some dst_ty; copy = true }) -> fixup_at addr dst_ty
  | Some (D_fresh { addr; ty = Some dst_ty }) -> fixup_at addr dst_ty
  | Some D_in_place -> begin
      (* typed pinned objects still get precise slot fixup; opaque pinned
         objects are left verbatim (their targets are pinned too) *)
      match o.ty with
      | Some ty when not (Ty.contains_opaque (old_env st) ty) -> fixup_at o.addr ty
      | Some _ | None -> ()
    end
  | Some (D_existing _) | Some (D_fresh _) | Some (D_string _) | Some D_dropped | None -> ()

(* ------------------------------------------------------------------ *)
(* Zero-copy page remap *)

(* After copy + fixup, any destination page whose content is byte-identical
   to its page-aligned congruent source page need not keep a private copy:
   the frame is shared into the new image (refcounted, COW on first write)
   and the per-word copy charge already accounted against that page is
   retracted in favour of one [remap_page_ns]. Running AFTER the copy keeps
   the committed image byte-identical by construction — equality is checked
   on the final bytes, so the pass only ever changes the virtual-time cost
   and the physical backing, never observable content. *)
let remap_pass st =
  let src = st.old_image.P.i_aspace and dst = st.new_image.P.i_aspace in
  let costs = K.costs st.old_image.P.i_kernel in
  let pages =
    Hashtbl.fold (fun pn _ acc -> pn :: acc) st.page_contribs []
    |> List.sort compare
  in
  List.iter
    (fun pn ->
      let c = Hashtbl.find st.page_contribs pn in
      if c.pg_seen && c.pg_ok && c.pg_delta mod Addr.page_size = 0 then begin
        let dst_page = pn * Addr.page_size in
        let src_page = dst_page - c.pg_delta in
        if
          src_page >= 0
          && Aspace.is_mapped_word src src_page
          && Aspace.is_mapped_word dst dst_page
          (* tracked writes during the window (e.g. fresh-allocation
             headers) mean the page is not purely transfer-installed *)
          && not (Aspace.epoch_page_dirty dst ~name:"mcr.transfer" dst_page)
          && Aspace.pages_equal src src_page dst dst_page
        then begin
          Aspace.share_page ~src src_page ~dst dst_page;
          List.iter
            (fun (s, w, charged) ->
              st.cost <- st.cost - charged;
              st.shard_cost.(s) <- st.shard_cost.(s) - charged;
              st.remapped_w <- st.remapped_w + w)
            c.pg_parts;
          st.cost <- st.cost + costs.Costs.remap_page_ns;
          st.shard_cost.(c.pg_shard) <- st.shard_cost.(c.pg_shard) + costs.Costs.remap_page_ns;
          st.remapped_pages <- st.remapped_pages + 1
        end
      end)
    pages

let run ~old_image ~new_image ~analysis ?(dirty_only = true) ?(remap = false) ?precopy
    ?(workers = 1) ?trace ?fault () =
  (* Sharding is a cost-accounting overlay on the sequential transfer: the
     walk below runs in canonical address order for every [workers] value
     (allocation order, startup-match consumption and the merge-phase fixup
     are unchanged), so the committed image is byte-identical to the
     single-worker result; only the virtual-time charge becomes the
     critical path over shards. *)
  let plan = Objgraph.shard analysis ~workers in
  let st =
    {
      old_image;
      new_image;
      analysis;
      dirty_only;
      remap;
      precopy;
      plan;
      shard_cost = Array.make plan.Objgraph.sp_workers 0;
      shard_w = Array.make plan.Objgraph.sp_workers 0;
      dests = Hashtbl.create 256;
      plans = Hashtbl.create 64;
      page_contribs = Hashtbl.create 256;
      conflicts = [];
      cost = 0;
      words_copied = 0;
      objects_copied = 0;
      skipped = 0;
      skipped_w = 0;
      pinned = 0;
      fresh = 0;
      transformed = 0;
      dangling = 0;
      precopied_objs = 0;
      precopied_w = 0;
      remapped_pages = 0;
      remapped_w = 0;
      hashed_w = 0;
    }
  in
  (* own the transfer's dirty epoch on the new image: tracked writes that
     land during the window (fresh allocations, user code) are visible to
     the remap eligibility check without touching anyone else's epoch *)
  Aspace.epoch_reset new_image.P.i_aspace ~name:"mcr.transfer";
  (match fault with
  | Some f when Mcr_fault.Fault.consume f Mcr_fault.Fault.Transfer_conflict ->
      conflictf st (Injected { detail = "injected transfer conflict" })
  | _ -> ());
  (* an Objgraph-level misclassification fault conflicts here: the pinned
     object cannot be relocated, which the transfer must refuse *)
  (match analysis.Objgraph.injected_pin with
  | Some o ->
      conflictf st
        (Nonupdatable_changed
           {
             addr = o.addr;
             ty_name = Option.value o.ty_name ~default:"<untyped>";
             detail = "injected: spurious likely pointer pinned a relocatable object";
             prov = provenance st o;
           })
  | None -> ());
  let startup_index = build_startup_index new_image in
  Objgraph.iter_reachable analysis (assign_dest st startup_index);
  Objgraph.iter_reachable analysis (force_copy_pin_referrers st);
  Objgraph.iter_reachable analysis (copy_object st);
  Objgraph.iter_reachable analysis (fixup_object st);
  if st.remap then remap_pass st;
  let live_words = analysis.Objgraph.reachable_words in
  let w = plan.Objgraph.sp_workers in
  let costs = K.costs old_image.P.i_kernel in
  let cost_ns =
    if w <= 1 then st.cost
    else
      Array.fold_left max 0 st.shard_cost
      + (w * (costs.Costs.worker_spawn_ns + costs.Costs.worker_join_ns))
  in
  let outcome =
    {
      transferred_objects = st.objects_copied;
      transferred_words = st.words_copied;
      skipped_clean = st.skipped;
      skipped_clean_words = st.skipped_w;
      immutable_remapped = st.pinned;
      fresh_allocations = st.fresh;
      type_transformed = st.transformed;
      dangling_zeroed = st.dangling;
      conflicts = List.rev st.conflicts;
      cost_ns;
      live_words;
      precopied_objects = st.precopied_objs;
      precopied_words = st.precopied_w;
      remapped_pages = st.remapped_pages;
      remapped_words = st.remapped_w;
      hashed_words = st.hashed_w;
      workers = w;
      shard_words = st.shard_w;
      shard_cost_ns = st.shard_cost;
      trace_shard_ns = plan.Objgraph.sp_trace_ns;
      trace_critical_ns = Array.fold_left max 0 plan.Objgraph.sp_trace_ns;
      sequential_cost_ns = st.cost;
    }
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

let conflict_obj = function
  | Nonupdatable_changed { addr; ty_name; detail; prov } ->
      {
        Mcr_error.co_kind = "nonupdatable_changed";
        co_addr = addr;
        co_ty = Some ty_name;
        co_callstack = prov.callstack;
        co_shard = prov.shard;
        co_round = prov.round;
        co_detail = detail;
      }
  | No_plan { addr; ty_name; detail; prov } ->
      {
        Mcr_error.co_kind = "no_plan";
        co_addr = addr;
        co_ty = Some ty_name;
        co_callstack = prov.callstack;
        co_shard = prov.shard;
        co_round = prov.round;
        co_detail = detail;
      }
  | Missing_type { addr; ty_name; prov } ->
      {
        Mcr_error.co_kind = "missing_type";
        co_addr = addr;
        co_ty = Some ty_name;
        co_callstack = prov.callstack;
        co_shard = prov.shard;
        co_round = prov.round;
        co_detail = "dirty object's type is absent from the new version";
      }
  | Injected { detail } ->
      {
        Mcr_error.co_kind = "injected";
        co_addr = 0;
        co_ty = None;
        co_callstack = 0;
        co_shard = -1;
        co_round = 0;
        co_detail = detail;
      }

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
  | Injected { detail } -> Format.fprintf ppf "injected conflict: %s" detail
