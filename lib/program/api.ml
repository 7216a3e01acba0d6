module K = Mcr_simos.Kernel
module S = Mcr_simos.Sysdefs
module Costs = Mcr_simos.Costs
module Ty = Mcr_types.Ty
module Tyreg = Mcr_types.Tyreg
module Access = Mcr_types.Access
module Symtab = Mcr_types.Symtab
module Heap = Mcr_alloc.Heap
module Pool = Mcr_alloc.Pool
module Slab = Mcr_alloc.Slab
module Sites = Mcr_alloc.Sites
module Aspace = Mcr_vmem.Aspace
module Addr = Mcr_vmem.Addr
module Barrier = Mcr_quiesce.Barrier
module Profiler = Mcr_quiesce.Profiler
open Progdef

exception Sys_error of S.err
exception Unreachable_after_exit of int

(* Interval between quiescence-hook checks inside unblockified calls. *)
let qtick_ns = 10_000_000

let costs t = K.costs t.kernel
let charge t ns = K.charge t.kernel ns

(* ------------------------------------------------------------------ *)
(* Control *)

let fn t name body =
  K.push_frame t.thread name;
  Fun.protect ~finally:(fun () -> K.pop_frame t.thread) body

let loop t name step =
  (match t.image.i_profiler with
  | Some p -> Profiler.note_loop_enter p t.thread name
  | None -> ());
  let rec go () = if step () then go () in
  go ();
  match t.image.i_profiler with
  | Some p -> Profiler.note_loop_exit p t.thread name
  | None -> ()

let app_work t n = charge t (n * (costs t).Costs.app_work_ns)

let exit t status =
  ignore (K.syscall (S.Exit { status }));
  (* the kernel unwinds the thread inside the Exit effect; returning here
     means it failed to — surface a diagnosable error, not Assert_failure *)
  raise (Unreachable_after_exit (K.pid t.proc))

(* ------------------------------------------------------------------ *)
(* System calls *)

let sys _t call = K.syscall call

let sys_fd_exn t call =
  match sys t call with
  | S.Ok_fd fd -> fd
  | S.Err e -> raise (Sys_error e)
  | _ -> raise (Sys_error S.EINVAL)

let sys_unit_exn t call =
  match sys t call with
  | S.Ok_unit -> ()
  | S.Err e -> raise (Sys_error e)
  | _ -> raise (Sys_error S.EINVAL)

let qpoint_instrumented t ~qpoint call =
  t.image.i_instr.Instr.unblockify
  && List.mem (qpoint, S.call_name call) t.image.i_version.qpoints

let mark_first_quiesce t =
  if not t.image.i_startup_complete then begin
    t.image.i_startup_complete <- true;
    Tree.notify t.image.i_tree.tr_first_quiesce t.image
  end

let register_barrier_once t =
  let tid = K.tid t.thread in
  if not (Hashtbl.mem t.image.i_registered tid) then begin
    Hashtbl.replace t.image.i_registered tid ();
    Barrier.register_thread t.image.i_barrier
  end

(* Wait for a call with an optional timeout in slices of at most
   [qtick_ns], running [hook] before each; [expired] is the call's answer
   when a slice runs out. *)
let sliced ~hook timeout_ns ~expired call_for =
  let rec go remaining =
    if hook () then S.Err S.EINTR
    else begin
      let slice = match remaining with Some r -> min qtick_ns r | None -> qtick_ns in
      match K.syscall (call_for slice) with
      | res when res = expired -> begin
          match remaining with
          | Some r when r <= slice -> expired
          | Some r -> go (Some (r - slice))
          | None -> go None
        end
      | res -> res
    end
  in
  go timeout_ns

(* The unblockification wrapper: expose blocking semantics to the caller,
   but never truly block — try the nonblocking variant, wait in short
   slices, and run the quiescence hook between slices (Section 4). *)
let unblockified t call =
  let image = t.image in
  (* the hook parks at the barrier when quiescence is pending; on resume the
     wrapped call reports EINTR so the program re-arms with fresh state *)
  let hook () =
    if image.i_instr.Instr.quiesce_detect then begin
      charge t (costs t).Costs.qhook_ns;
      Barrier.hook image.i_barrier
    end
    else false
  in
  match call with
  | S.Accept a ->
      (* the timeout-based variant (semtimedop-style): wakes one acceptor
         per connection rather than thundering every wrapped poller *)
      sliced ~hook None ~expired:(S.Err S.ETIMEDOUT) (fun slice ->
          S.Accept_timed { fd = a.fd; timeout_ns = slice })
  | S.Read r ->
      let rec go () =
        if hook () then S.Err S.EINTR
        else
          match K.syscall (S.Read { r with nonblock = true }) with
          | S.Err S.EAGAIN ->
              ignore
                (K.syscall
                   (S.Poll { fds = [ r.fd ]; timeout_ns = Some qtick_ns; nonblock = false }));
              go ()
          | res -> res
      in
      go ()
  | S.Poll p ->
      sliced ~hook p.timeout_ns ~expired:(S.Ok_ready []) (fun slice ->
          S.Poll { p with timeout_ns = Some slice })
  | S.Sem_wait s ->
      sliced ~hook s.timeout_ns ~expired:(S.Err S.ETIMEDOUT) (fun slice ->
          S.Sem_wait { s with timeout_ns = Some slice })
  | call ->
      (* calls with no unblockifiable variant pass through *)
      K.syscall call

let blocking t ~qpoint call =
  if not (qpoint_instrumented t ~qpoint call) then K.syscall call
  else begin
    charge t (costs t).Costs.unblock_wrap_ns;
    register_barrier_once t;
    mark_first_quiesce t;
    let tid = K.tid t.thread in
    Hashtbl.replace t.image.i_qpoint_now tid qpoint;
    Fun.protect
      ~finally:(fun () -> Hashtbl.remove t.image.i_qpoint_now tid)
      (fun () -> unblockified t call)
  end

(* ------------------------------------------------------------------ *)
(* Memory *)

let env t = t.image.i_version.tyenv

let sizeof t tyname = Ty.sizeof_words (env t) (Ty.Named tyname)

(* The given site, or ["<innermost frame>:<tyname>"], built only when
   none is given. *)
let site_or_default t site tyname =
  match site with
  | Some s -> s
  | None ->
      let frame = match K.callstack t.thread with f :: _ -> f | [] -> "?" in
      frame ^ ":" ^ tyname

let charge_alloc t ~instrumented =
  let c = costs t in
  charge t (c.Costs.alloc_ns + if instrumented then 2 * c.Costs.tag_word_ns else 0)

let alloc_meta t ~site tyname =
  let ty_id =
    match Tyreg.id_of_name t.image.i_tyreg tyname with
    | Some id -> id
    | None -> Tyreg.register t.image.i_tyreg ~name:tyname (Ty.Named tyname)
  in
  let site_id = Sites.register t.image.i_sites ~label:site ~ty_id in
  (ty_id, site_id)

let malloc t ?site tyname =
  let site = site_or_default t site tyname in
  let ty_id, site_id = alloc_meta t ~site tyname in
  charge_alloc t ~instrumented:(Heap.instrumented t.image.i_heap);
  Heap.malloc t.image.i_heap ~ty_id ~site:site_id ~callstack:(K.callstack_id t.thread)
    (sizeof t tyname)

let malloc_n t ?site tyname n =
  let arr_name = Printf.sprintf "%s[%d]" tyname n in
  let arr_ty = Ty.Array (Ty.Named tyname, n) in
  let site = site_or_default t site arr_name in
  let ty_id =
    match Tyreg.id_of_name t.image.i_tyreg arr_name with
    | Some id -> id
    | None -> Tyreg.register t.image.i_tyreg ~name:arr_name arr_ty
  in
  let site_id = Sites.register t.image.i_sites ~label:site ~ty_id in
  charge_alloc t ~instrumented:(Heap.instrumented t.image.i_heap);
  Heap.malloc t.image.i_heap ~ty_id ~site:site_id ~callstack:(K.callstack_id t.thread)
    (n * sizeof t tyname)

let malloc_opaque t ?site words =
  let site = site_or_default t site "opaque" in
  let site_id = Sites.register t.image.i_sites ~label:site ~ty_id:0 in
  charge_alloc t ~instrumented:(Heap.instrumented t.image.i_heap);
  (* large blocks are page-segregated, as ptmalloc does *)
  if words >= 256 then
    Heap.malloc_aligned t.image.i_heap ~ty_id:0 ~site:site_id
      ~callstack:(K.callstack_id t.thread) words
  else
    Heap.malloc t.image.i_heap ~ty_id:0 ~site:site_id ~callstack:(K.callstack_id t.thread) words

let free t addr =
  charge t (costs t).Costs.alloc_ns;
  Heap.free t.image.i_heap addr

let lib_malloc t words =
  let c = costs t in
  charge t c.Costs.alloc_ns;
  if t.image.i_instr.Instr.dynamic_instr then charge t c.Costs.tag_word_ns;
  Heap.malloc t.image.i_lib_heap words

let global t name = (Symtab.lookup t.image.i_symtab name).Symtab.addr

let string_lit t s = Symtab.string_addr t.image.i_symtab s

let func_ptr t name = Symtab.func_addr t.image.i_symtab name

let load t addr = Aspace.read_word t.image.i_aspace addr
let store t addr v = Aspace.write_word t.image.i_aspace addr v
let store_words t addr w = Aspace.write_words t.image.i_aspace addr w
let find_word t addr ~words p = Aspace.find_word t.image.i_aspace addr ~words p

let load_field t base tyname field =
  Access.read_field t.image.i_aspace (env t) ~base (Ty.Named tyname) field

let store_field t base tyname field v =
  Access.write_field t.image.i_aspace (env t) ~base (Ty.Named tyname) field v

let field_addr t base tyname field =
  Access.field_addr (env t) ~base (Ty.Named tyname) field

let write_bytes t addr s = Access.write_bytes t.image.i_aspace addr s
let read_string t addr = Access.read_string t.image.i_aspace addr

let stack_var t name tyname =
  let image = t.image in
  let tid = K.tid t.thread in
  let cursor, limit =
    match Hashtbl.find_opt image.i_stack_cursors tid with
    | Some c -> c
    | None ->
        let base =
          Aspace.map image.i_aspace
            ~name:(Printf.sprintf "stack:%d" tid)
            (Aspace.Near Mcr_vmem.Region.Stack) ~size:Addr.page_size Mcr_vmem.Region.Stack
        in
        let c = (ref base, Addr.add base Addr.page_size) in
        Hashtbl.replace image.i_stack_cursors tid c;
        c
  in
  let words = sizeof t tyname in
  let addr = !cursor in
  if Addr.add_words addr words > limit then invalid_arg "Api.stack_var: stack overflow";
  cursor := Addr.add_words addr words;
  let key = Printf.sprintf "%s:%s" (Loader.thread_key image t.thread) name in
  image.i_stack_roots <- (key, Ty.Named tyname, addr) :: image.i_stack_roots;
  addr

(* ------------------------------------------------------------------ *)
(* Custom allocators *)

(* region-allocator tagging is part of the static instrumentation layer *)
let regions_instrumented t =
  t.image.i_instr.Instr.instrument_regions && t.image.i_instr.Instr.static_instr

let pool t ?parent ?chunk_words name =
  let p =
    Pool.create t.image.i_heap ?parent ~instrument:(regions_instrumented t) ?chunk_words ~name ()
  in
  t.image.i_pools <- (name, p) :: t.image.i_pools;
  p

let palloc t pool_ ?site tyname =
  let site = site_or_default t site tyname in
  let instrumented = Pool.is_instrumented pool_ in
  let c = costs t in
  charge t (c.Costs.alloc_ns + if instrumented then 2 * c.Costs.tag_word_ns else 0);
  if instrumented then begin
    let ty_id, site_id = alloc_meta t ~site tyname in
    Pool.palloc pool_ ~ty_id ~site:site_id ~callstack:(K.callstack_id t.thread) (sizeof t tyname)
  end
  else Pool.palloc pool_ (sizeof t tyname)

let palloc_words t pool_ words =
  charge t (costs t).Costs.alloc_ns;
  Pool.palloc pool_ words

let slab t name ~slot_words ~slots_per_chunk =
  let s = Slab.create t.image.i_heap ~slot_words ~slots_per_chunk ~name in
  t.image.i_slabs <- (name, s) :: t.image.i_slabs;
  s

let slab_alloc t s =
  charge t (costs t).Costs.alloc_ns;
  Slab.alloc s

let slab_free t s addr =
  charge t (costs t).Costs.alloc_ns;
  Slab.free s addr

let masquerade t ~frames f =
  let saved = K.callstack t.thread in
  let set fs =
    (* rebuild the stack exactly *)
    List.iter (fun _ -> K.pop_frame t.thread) (K.callstack t.thread);
    List.iter (K.push_frame t.thread) (List.rev fs)
  in
  set frames;
  Fun.protect ~finally:(fun () -> set saved) f

let find_pool t name = List.assoc name t.image.i_pools

let find_slab t name = List.assoc name t.image.i_slabs

let subpool t ~parent name =
  (* grabbing the chunk is a real (instrumented) heap allocation *)
  charge_alloc t ~instrumented:(Heap.instrumented t.image.i_heap);
  Pool.create t.image.i_heap ~parent ~instrument:(regions_instrumented t) ~chunk_words:64
    ~name ()

let pool_destroy t p =
  charge t (costs t).Costs.alloc_ns;
  Pool.destroy p

let palloc_bytes t p s =
  let words = (String.length s + 1 + Addr.word_size - 1) / Addr.word_size in
  let addr = palloc_words t p words in
  Access.write_bytes t.image.i_aspace addr s;
  addr
