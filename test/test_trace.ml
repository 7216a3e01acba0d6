(* Unit tests for Mcr_trace: object-graph analysis (precise + conservative)
   and state transfer, observed through the Listing 1 image. *)

module K = Mcr_simos.Kernel
module S = Mcr_simos.Sysdefs
module P = Mcr_program.Progdef
module Ty = Mcr_types.Ty
module Symtab = Mcr_types.Symtab
module Objgraph = Mcr_trace.Objgraph
module Transfer = Mcr_trace.Transfer
module Manager = Mcr_core.Manager
module Listing1 = Mcr_servers.Listing1
module Aspace = Mcr_vmem.Aspace
module Addr = Mcr_vmem.Addr
module Region = Mcr_vmem.Region
module Heap = Mcr_alloc.Heap
module Access = Mcr_types.Access

let boot ?(requests = 3) () =
  let kernel = K.create () in
  K.fs_write kernel ~path:Listing1.config_path "welcome=hi";
  let m = Manager.launch kernel (Listing1.v1 ()) in
  assert (Manager.wait_startup m ());
  for _ = 1 to requests do
    Transfer_scenarios.listing1_request kernel
  done;
  (kernel, m)

let origin_name (o : Objgraph.obj) =
  match o.Objgraph.origin with
  | Objgraph.O_static s -> "static:" ^ s
  | O_string _ -> "string"
  | O_heap -> "heap"
  | O_lib -> "lib"
  | O_pool_obj p -> "poolobj:" ^ p
  | O_pool_chunk p -> "chunk:" ^ p
  | O_slab_chunk s -> "slab:" ^ s
  | O_stack k -> "stack:" ^ k
  | O_pinned -> "pinned"

(* ------------------------------------------------------------------ *)
(* Analysis *)

let test_roots_are_globals () =
  let _, m = boot () in
  let a = Objgraph.analyze (Manager.root_image m) in
  let root_names = List.map origin_name a.Objgraph.roots in
  List.iter
    (fun g ->
      Alcotest.(check bool) (g ^ " is a root") true (List.mem ("static:" ^ g) root_names))
    [ "b"; "list"; "conf"; "count" ]

let test_precise_traversal_reaches_heap () =
  let _, m = boot ~requests:3 () in
  let a = Objgraph.analyze (Manager.root_image m) in
  (* conf -> conf_s; list -> 3 nodes; banner via conf *)
  let reachable_heap =
    List.filter (fun (o : Objgraph.obj) -> o.Objgraph.origin = Objgraph.O_heap)
      (Objgraph.reachable_objects a)
  in
  Alcotest.(check bool) "at least conf + banner + hidden + 3 nodes" true
    (List.length reachable_heap >= 6);
  let nodes =
    List.filter (fun (o : Objgraph.obj) -> o.Objgraph.ty_name = Some "l_t") reachable_heap
  in
  Alcotest.(check int) "three list nodes reached" 3 (List.length nodes)

let test_hidden_pointer_pins_target () =
  let _, m = boot () in
  let a = Objgraph.analyze (Manager.root_image m) in
  let hidden =
    List.find
      (fun (o : Objgraph.obj) -> o.Objgraph.ty_name = Some "hidden_s")
      (Objgraph.reachable_objects a)
  in
  Alcotest.(check bool) "hidden struct immutable" true hidden.Objgraph.immutable_;
  Alcotest.(check bool) "hidden struct nonupdatable" true hidden.Objgraph.nonupdatable;
  (* precisely traced nodes are NOT pinned *)
  let node =
    List.find
      (fun (o : Objgraph.obj) -> o.Objgraph.ty_name = Some "l_t")
      (Objgraph.reachable_objects a)
  in
  Alcotest.(check bool) "list node relocatable" false node.Objgraph.immutable_

let test_likely_and_precise_stats () =
  let _, m = boot () in
  let a = Objgraph.analyze (Manager.root_image m) in
  let s = a.Objgraph.stats in
  Alcotest.(check bool) "precise pointers counted" true (s.Objgraph.precise.Objgraph.ptr > 0);
  (* b holds the hidden pointer: at least one likely pointer from a static
     source into the heap *)
  Alcotest.(check bool) "likely pointers counted" true (s.Objgraph.likely.Objgraph.ptr > 0);
  Alcotest.(check bool) "likely src static" true (s.Objgraph.likely.Objgraph.src_static > 0);
  Alcotest.(check bool) "likely targ dynamic" true (s.Objgraph.likely.Objgraph.targ_dynamic > 0)

let test_resolve_interior_pointer () =
  let _, m = boot () in
  let image = Manager.root_image m in
  let a = Objgraph.analyze image in
  let node =
    List.find
      (fun (o : Objgraph.obj) -> o.Objgraph.ty_name = Some "l_t")
      (Objgraph.reachable_objects a)
  in
  (match Objgraph.resolve a (Mcr_vmem.Addr.add_words node.Objgraph.addr 1) with
  | Some (o, off) ->
      Alcotest.(check int) "same object" node.Objgraph.id o.Objgraph.id;
      Alcotest.(check int) "word offset" 1 off
  | None -> Alcotest.fail "interior pointer did not resolve");
  Alcotest.(check bool) "unmapped does not resolve" true (Objgraph.resolve a 0x99 = None)

let test_obj_handler_reveals_hidden_pointer () =
  (* the MCR_ADD_OBJ_HANDLER annotation: declaring b's real layout turns the
     hidden pointer precise and unpins its target *)
  let kernel = K.create () in
  K.fs_write kernel ~path:Listing1.config_path "welcome=hi";
  let v1 = Listing1.v1 () in
  let annotated =
    {
      v1 with
      P.annotations =
        [
          P.Obj_handler
            {
              symbol = "b";
              reveal =
                Ty.Struct
                  {
                    sname = "b_revealed";
                    fields = [ ("hidden", Ty.Ptr (Ty.Named "hidden_s")); ("meta", Ty.Word) ];
                  };
            };
        ];
    }
  in
  let m = Manager.launch kernel annotated in
  assert (Manager.wait_startup m ());
  let a = Objgraph.analyze (Manager.root_image m) in
  let hidden =
    List.find
      (fun (o : Objgraph.obj) -> o.Objgraph.ty_name = Some "hidden_s")
      (Objgraph.reachable_objects a)
  in
  Alcotest.(check bool) "hidden target no longer pinned" false hidden.Objgraph.immutable_

let test_dirty_tracking_granularity () =
  let _, m = boot ~requests:0 () in
  let a = Objgraph.analyze (Manager.root_image m) in
  (* with no post-startup activity, nothing reachable is dirty *)
  Alcotest.(check (list string)) "all clean after startup" []
    (List.map origin_name (Objgraph.dirty_objects a))

let test_encoded_pointer_traced_under_regions () =
  (* under region instrumentation, connection objects are typed, so their
     Encoded_ptr field is decoded and its target (the request object)
     reached precisely — the nginx 22-LOC annotation at work *)
  let kernel = K.create () in
  let m =
    Mcr_workloads.Testbed.launch
      ~instr:(Mcr_program.Instr.with_regions Mcr_program.Instr.full)
      kernel Mcr_workloads.Testbed.Nginx
  in
  let holders = Mcr_workloads.Testbed.open_holders kernel Mcr_workloads.Testbed.Nginx ~n:2 in
  let worker =
    List.find (fun (im : P.image) -> K.parent_pid im.P.i_proc <> 0) (Manager.images m)
  in
  let a = Objgraph.analyze worker in
  let conns =
    List.filter
      (fun (o : Objgraph.obj) -> o.Objgraph.ty_name = Some "ngx_connection_t")
      (Objgraph.reachable_objects a)
  in
  Alcotest.(check bool) "held connections reached as typed pool objects" true
    (List.length conns >= 2);
  let reqs =
    List.filter
      (fun (o : Objgraph.obj) -> o.Objgraph.ty_name = Some "ngx_request_t")
      (Objgraph.reachable_objects a)
  in
  Alcotest.(check bool) "encoded targets (requests) reached" true (List.length reqs >= 2);
  List.iter
    (fun (o : Objgraph.obj) ->
      Alcotest.(check bool) "precisely traced, not pinned" false o.Objgraph.immutable_)
    reqs;
  Mcr_workloads.Holders.close_all holders

let test_cost_accounted () =
  let _, m = boot () in
  let a = Objgraph.analyze (Manager.root_image m) in
  Alcotest.(check bool) "analysis cost positive" true (a.Objgraph.cost_ns > 0)

(* A lone likely pointer in a big, mostly-zero opaque buffer: 32k untyped
   heap words hung off conf's banner field, so the buffer itself is reached
   precisely. With [pointer], the buffer's last word holds conf's address.
   With [cow_broken], the page before that one is first shared with another
   space's identical page and then stored to, so it holds a private copy
   with a non-zero word that is not a pointer (odd). Returns the analysis,
   the buffer and conf. *)
let lone_pointer_analysis ~pointer ~cow_broken =
  let _, m = boot ~requests:0 () in
  let image = Manager.root_image m in
  let sp = image.P.i_aspace in
  let words = 32 * 1024 in
  let buf = Heap.malloc image.P.i_heap words in
  let conf = Aspace.read_word sp (Symtab.lookup image.P.i_symtab "conf").Symtab.addr in
  let banner = Ty.field_offset image.P.i_version.P.tyenv (Ty.Named "conf_s") "banner" in
  Aspace.write_word sp (Addr.add_words conf banner) buf;
  let last = Addr.add_words buf (words - 1) in
  if cow_broken then begin
    let prev = Addr.page_base last - Addr.page_size in
    let donor = Aspace.create () in
    ignore (Aspace.map donor (Aspace.Fixed prev) ~size:Addr.page_size Region.Heap);
    Aspace.write_word donor prev 7;
    Aspace.write_word sp prev 7;
    Aspace.share_page ~src:donor prev ~dst:sp prev;
    Aspace.write_word sp prev 7
  end;
  if pointer then Aspace.write_word sp last conf;
  let a = Objgraph.analyze image in
  let obj addr = Option.get (Objgraph.resolve a addr) |> fst in
  (a, obj buf, obj conf)

let test_lone_likely_pointer ~cow_broken () =
  let base, buf0, conf0 = lone_pointer_analysis ~pointer:false ~cow_broken in
  let a, buf, conf = lone_pointer_analysis ~pointer:true ~cow_broken in
  let likely (a : Objgraph.t) = a.Objgraph.stats.Objgraph.likely.Objgraph.ptr in
  Alcotest.(check bool) "buffer reached, untyped" true
    (buf.Objgraph.reachable && buf.Objgraph.ty = None);
  Alcotest.(check (pair bool bool)) "without the word: conf free, buffer updatable"
    (false, false) (conf0.Objgraph.immutable_, buf0.Objgraph.nonupdatable);
  Alcotest.(check bool) "conf pinned" true conf.Objgraph.immutable_;
  Alcotest.(check bool) "buffer nonupdatable" true buf.Objgraph.nonupdatable;
  Alcotest.(check int) "one more likely pointer" (likely base + 1) (likely a)

(* ------------------------------------------------------------------ *)
(* Transfer *)

let run_update ?(variant = `Normal) ?(requests = 3) () =
  let kernel, m = boot ~requests () in
  let m2, report = Manager.update m (Listing1.v2 ~variant ()) in
  (kernel, m2, report)

let test_transfer_outcome_accounting () =
  let _, _, report = run_update () in
  Alcotest.(check bool) "ok" true report.Manager.success;
  match report.Manager.transfers with
  | [ (_, o) ] ->
      Alcotest.(check bool) "objects copied" true (o.Transfer.transferred_objects > 0);
      Alcotest.(check bool) "words copied" true (o.Transfer.transferred_words > 0);
      Alcotest.(check bool) "hidden struct pinned in place" true
        (o.Transfer.immutable_remapped >= 1);
      Alcotest.(check bool) "list nodes freshly reallocated" true
        (o.Transfer.fresh_allocations >= 3);
      Alcotest.(check bool) "type transformations applied" true (o.Transfer.type_transformed >= 3);
      Alcotest.(check int) "no dangling pointers" 0 o.Transfer.dangling_zeroed
  | l -> Alcotest.failf "expected one pair, got %d" (List.length l)

let test_transfer_skips_clean_startup_state () =
  (* with no post-startup writes everything is clean, so mutable
     reinitialization's own state stands and transfer skips it *)
  let _, _, report = run_update ~requests:0 () in
  Alcotest.(check bool) "ok" true report.Manager.success;
  match report.Manager.transfers with
  | [ (_, o) ] ->
      Alcotest.(check bool) "clean startup state skipped" true (o.Transfer.skipped_clean > 0)
  | _ -> Alcotest.fail "expected one pair"

let test_transfer_pins_preserve_content () =
  (* the hidden structure is remapped at its old address with its content *)
  let _, m2, report = run_update () in
  Alcotest.(check bool) "ok" true report.Manager.success;
  let image = Manager.root_image m2 in
  let aspace = image.P.i_aspace in
  (* find it through the (transferred) opaque buffer b *)
  let b = (Symtab.lookup image.P.i_symtab "b").Symtab.addr in
  let hidden_addr = Aspace.read_word aspace b in
  Alcotest.(check bool) "b still holds the old address" true (hidden_addr > 0);
  Alcotest.(check int) "field a preserved" 11 (Aspace.read_word aspace hidden_addr);
  Alcotest.(check int) "field b preserved" 22
    (Aspace.read_word aspace (Mcr_vmem.Addr.add_words hidden_addr 1))

let test_transfer_handler_used () =
  (* the user transfer handler initializes the new field to 42 *)
  let _, m2, report = run_update ~variant:`With_handler () in
  Alcotest.(check bool) "ok" true report.Manager.success;
  let image = Manager.root_image m2 in
  let aspace = image.P.i_aspace in
  let env = image.P.i_version.P.tyenv in
  let head = (Symtab.lookup image.P.i_symtab "list").Symtab.addr in
  let field base name = Access.read_field aspace env ~base (Ty.Named "l_t") name in
  let rec collect addr acc =
    if addr = 0 then List.rev acc else collect (field addr "next") (field addr "new" :: acc)
  in
  Alcotest.(check (list int)) "handler set the new field" [ 42; 42; 42 ]
    (collect (field head "next") [])

let test_transfer_full_vs_dirty () =
  let kernel, m = boot () in
  ignore kernel;
  let _, report =
    Manager.update m
      ~policy:(Mcr_core.Policy.with_dirty_only false Mcr_core.Policy.default)
      (Listing1.v2 ())
  in
  Alcotest.(check bool) "full transfer ok" true report.Manager.success;
  match report.Manager.transfers with
  | [ (_, o) ] -> Alcotest.(check int) "nothing skipped" 0 o.Transfer.skipped_clean
  | _ -> Alcotest.fail "expected one pair"

let test_interior_pointer_follows_reordered_field () =
  (* an interior pointer to a field whose offset changes when the update
     reorders the struct must land on the same field in the new layout
     (the paper's moving-collector interior-pointer support) *)
  let mk tag reorder =
    let tyenv = Ty.env_create () in
    let fields = [ ("a", Ty.Int); ("b", Ty.Int); ("c", Ty.Int) ] in
    Ty.env_add tyenv "rec_t"
      (Ty.Struct { sname = "rec_t"; fields = (if reorder then List.rev fields else fields) });
    Mcr_program.Progdef.make_version ~prog:"interior" ~version_tag:tag
      ~layout_bias:(if reorder then 512 else 0)
      ~tyenv
      ~globals:[ ("rec_ptr", Ty.Ptr (Ty.Named "rec_t")); ("b_ptr", Ty.Ptr Ty.Int) ]
      ~funcs:[ "main" ] ~strings:[]
      ~entries:
        [
          ( "main",
            fun t ->
              Mcr_program.Api.fn t "main" @@ fun () ->
              let r = Mcr_program.Api.malloc t ~site:"main:rec" "rec_t" in
              Mcr_program.Api.store t (Mcr_program.Api.global t "rec_ptr") r;
              Mcr_program.Api.loop t "main_loop" (fun () ->
                  (match
                     Mcr_program.Api.blocking t ~qpoint:"wait"
                       (S.Sem_wait { name = "interior.tick"; timeout_ns = None })
                   with
                  | S.Ok_unit ->
                      (* post-startup: write fields and take an interior
                         pointer to b *)
                      Mcr_program.Api.store_field t r "rec_t" "a" 111;
                      Mcr_program.Api.store_field t r "rec_t" "b" 222;
                      Mcr_program.Api.store_field t r "rec_t" "c" 333;
                      Mcr_program.Api.store t
                        (Mcr_program.Api.global t "b_ptr")
                        (Mcr_program.Api.field_addr t r "rec_t" "b")
                  | _ -> ());
                  true) );
        ]
      ~qpoints:[ ("wait", "sem_wait") ] ()
  in
  let kernel = K.create () in
  let m = Manager.launch kernel (mk "1" false) in
  assert (Manager.wait_startup m ());
  K.post_semaphore kernel "interior.tick";
  ignore (K.run_until kernel ~max_ns:(K.clock_ns kernel + 1_000_000_000) (fun () -> false));
  let m2, report = Manager.update m (mk "2" true) in
  Alcotest.(check bool) "reordering update ok" true report.Manager.success;
  let image = Manager.root_image m2 in
  let aspace = image.P.i_aspace in
  let b_ptr =
    Aspace.read_word aspace (Symtab.lookup image.P.i_symtab "b_ptr").Symtab.addr
  in
  Alcotest.(check int) "interior pointer still reads field b" 222
    (Aspace.read_word aspace b_ptr);
  (* and it points inside the transferred record at b's NEW offset *)
  let rec_ptr =
    Aspace.read_word aspace (Symtab.lookup image.P.i_symtab "rec_ptr").Symtab.addr
  in
  let env2 = image.P.i_version.P.tyenv in
  Alcotest.(check int) "at the reordered offset"
    (Access.field_addr env2 ~base:rec_ptr (Ty.Named "rec_t") "b")
    b_ptr

let test_string_literals_remap () =
  (* dirty state containing pointers to interned literals gets them
     re-interned in the new version's rodata *)
  let _, m2, report = run_update () in
  Alcotest.(check bool) "ok" true report.Manager.success;
  let image = Manager.root_image m2 in
  (* the new rodata contains the same literals at the new addresses *)
  let a = Symtab.string_addr image.P.i_symtab "welcome" in
  Alcotest.(check string) "literal readable" "welcome"
    (Access.read_string image.P.i_aspace a)

(* A golden transfer scenario as a hand-built pair: the old version booted
   and loaded as the golden does it, and the new version started fresh in a
   kernel of its own, which is what Manager.update pairs between restart
   and restore. [transfer] plans or runs the pair under the scenario's
   policy, with a fresh fault plan each time. *)
let scenario_pair (s : Transfer_scenarios.t) transfer =
  let old_image = Manager.root_image (Transfer_scenarios.old_side s) in
  let new_image = Manager.root_image (s.boot (K.create ()) s.v2) in
  let pol = s.policy in
  let fault () = Option.map Mcr_fault.Fault.of_seed pol.Mcr_core.Policy.fault_seed in
  let analysis = Objgraph.analyze ?fault:(fault ()) old_image in
  let dirty_only = pol.dirty_only and workers = pol.transfer_workers in
  let precopy =
    if not pol.precopy then None
    else begin
      let pc = Transfer.precopy_create () in
      ignore (Transfer.precopy_round pc ~old_image ~analysis ~dirty_only ~workers ());
      Some pc
    end
  in
  let args = (old_image, new_image, analysis, dirty_only, pol.transfer_remap, precopy, workers) in
  (new_image, transfer args (fault ()))

let plan_args (old_image, new_image, analysis, dirty_only, remap, precopy, workers) fault =
  Transfer.plan ~old_image ~new_image ~analysis ~dirty_only ~remap ?precopy ~workers ?fault ()

let run_args (old_image, new_image, analysis, dirty_only, remap, precopy, workers) fault =
  Transfer.run ~old_image ~new_image ~analysis ~dirty_only ~remap ?precopy ~workers ?fault ()

(* The addresses whose word differs between two address spaces, walking
   [after]'s regions; a word [before] has no page for reads as zero. *)
let changed_words ~before ~after =
  let changed = ref [] in
  List.iter
    (fun (r : Region.t) ->
      let page = ref r.Region.base in
      while !page < r.Region.base + r.Region.size do
        let p = !page in
        if not (Aspace.is_mapped_word before p && Aspace.pages_equal before p after p) then
          for i = 0 to (Addr.page_size / Addr.word_size) - 1 do
            let a = Addr.add_words p i in
            let old = if Aspace.is_mapped_word before a then Aspace.read_word before a else 0 in
            if Aspace.read_word after a <> old then changed := a :: !changed
          done;
        page := Addr.add p Addr.page_size
      done)
    (Aspace.regions after);
  !changed

(* For every golden scenario, every word [apply] changes lies inside one of
   the plan's destinations, and the plan's conflicts are [run]'s. *)
let test_apply_stores_inside_plan () =
  let render cs = List.map (Format.asprintf "%a" Transfer.pp_conflict) cs in
  let stored = ref 0 in
  List.iter
    (fun (s : Transfer_scenarios.t) ->
      let new_image, plan = scenario_pair s plan_args in
      let before = Aspace.clone new_image.P.i_aspace in
      let inside = Hashtbl.create 4096 in
      List.iter
        (fun (base, words) ->
          for i = 0 to words - 1 do
            Hashtbl.replace inside (Addr.add_words base i) ()
          done)
        (Transfer.destinations plan);
      let planned = Transfer.planned_conflicts plan in
      let outcome = Transfer.apply plan in
      let changed = changed_words ~before ~after:new_image.P.i_aspace in
      stored := !stored + List.length changed;
      List.iter
        (fun a ->
          if not (Hashtbl.mem inside a) then
            Alcotest.failf "%s: apply stored outside the plan at %a" s.name Addr.pp a)
        changed;
      Alcotest.(check (list string))
        (s.name ^ ": apply reports the plan's conflicts")
        (render planned) (render outcome.Transfer.conflicts);
      let _, ran = scenario_pair s run_args in
      Alcotest.(check (list string))
        (s.name ^ ": the plan's conflicts are run's")
        (render ran.Transfer.conflicts) (render planned))
    (Transfer_scenarios.all ());
  Alcotest.(check bool) "the scenarios store something" true (!stored > 0)

let () =
  Alcotest.run "mcr_trace"
    [
      ( "analysis",
        [
          Alcotest.test_case "roots are globals" `Quick test_roots_are_globals;
          Alcotest.test_case "precise traversal" `Quick test_precise_traversal_reaches_heap;
          Alcotest.test_case "hidden pointer pins" `Quick test_hidden_pointer_pins_target;
          Alcotest.test_case "statistics" `Quick test_likely_and_precise_stats;
          Alcotest.test_case "interior resolution" `Quick test_resolve_interior_pointer;
          Alcotest.test_case "obj handler reveals" `Quick test_obj_handler_reveals_hidden_pointer;
          Alcotest.test_case "dirty granularity" `Quick test_dirty_tracking_granularity;
          Alcotest.test_case "cost accounting" `Quick test_cost_accounted;
          Alcotest.test_case "encoded ptr under regions" `Quick
            test_encoded_pointer_traced_under_regions;
          Alcotest.test_case "lone likely pointer in a zero buffer" `Quick
            (test_lone_likely_pointer ~cow_broken:false);
          Alcotest.test_case "lone likely pointer after a cow-broken page" `Quick
            (test_lone_likely_pointer ~cow_broken:true);
        ] );
      ( "transfer",
        [
          Alcotest.test_case "outcome accounting" `Quick test_transfer_outcome_accounting;
          Alcotest.test_case "clean state skipped" `Quick test_transfer_skips_clean_startup_state;
          Alcotest.test_case "pins preserve content" `Quick test_transfer_pins_preserve_content;
          Alcotest.test_case "user transfer handler" `Quick test_transfer_handler_used;
          Alcotest.test_case "full vs dirty" `Quick test_transfer_full_vs_dirty;
          Alcotest.test_case "string literals remap" `Quick test_string_literals_remap;
          Alcotest.test_case "interior ptr follows reorder" `Quick
            test_interior_pointer_follows_reordered_field;
          Alcotest.test_case "apply stores only inside the plan" `Quick
            test_apply_stores_inside_plan;
        ] );
    ]
