(* Unit tests for Mcr_program: the instrumented API (shadow stacks,
   blocking wrappers, allocation metadata, stack variables, custom
   allocators), instrumentation configurations, version construction and
   the loader's image lifecycle. *)

module K = Mcr_simos.Kernel
module S = Mcr_simos.Sysdefs
module P = Mcr_program.Progdef
module Api = Mcr_program.Api
module Instr = Mcr_program.Instr
module Loader = Mcr_program.Loader
module Ty = Mcr_types.Ty
module Tyreg = Mcr_types.Tyreg
module Sites = Mcr_alloc.Sites
module Heap = Mcr_alloc.Heap
module Pool = Mcr_alloc.Pool

(* a minimal one-entry program for exercising the API *)
let tiny_version ?(qpoints = []) ?(annotations = []) body =
  let tyenv = Ty.env_create () in
  Ty.env_add tyenv "pair_t"
    (Ty.Struct { sname = "pair_t"; fields = [ ("x", Ty.Int); ("y", Ty.Int) ] });
  P.make_version ~prog:"tiny" ~version_tag:"1" ~layout_bias:0 ~tyenv
    ~globals:[ ("g", Ty.Int); ("p", Ty.Ptr (Ty.Named "pair_t")) ]
    ~funcs:[ "main"; "helper" ] ~strings:[ "greeting" ]
    ~entries:[ ("main", body) ]
    ~qpoints ~annotations ()

let run_tiny ?(instr = Instr.full) ?qpoints body =
  let kernel = K.create () in
  let proc = Loader.launch kernel ~instr (tiny_version ?qpoints body) in
  let image = P.image_of_proc_exn proc in
  K.run kernel;
  (kernel, proc, image)

(* Block forever on a semaphore nobody posts: a test that inspects the
   process's memory afterwards keeps it alive, since exit unmaps it. *)
let park t = ignore (Api.sys t (S.Sem_wait { name = "park"; timeout_ns = None }))

(* ------------------------------------------------------------------ *)
(* Instr *)

let test_instr_layering () =
  Alcotest.(check bool) "baseline has nothing" false Instr.baseline.Instr.unblockify;
  Alcotest.(check bool) "unblock" true Instr.unblock.Instr.unblockify;
  Alcotest.(check bool) "unblock lacks static" false Instr.unblock.Instr.static_instr;
  Alcotest.(check bool) "sinstr adds static" true Instr.sinstr.Instr.static_instr;
  Alcotest.(check bool) "dinstr adds dynamic" true Instr.dinstr.Instr.dynamic_instr;
  Alcotest.(check bool) "qdet adds detection" true Instr.qdet.Instr.quiesce_detect;
  Alcotest.(check string) "row naming" "+SInstr" (Instr.name Instr.sinstr);
  Alcotest.(check int) "four measured rows" 4 (List.length Instr.table3_rows)

(* ------------------------------------------------------------------ *)
(* Api: shadow stacks *)

let test_fn_stack_balance () =
  let stacks = ref [] in
  let _ =
    run_tiny (fun t ->
        stacks := K.callstack t.P.thread :: !stacks;
        Api.fn t "helper" (fun () -> stacks := K.callstack t.P.thread :: !stacks);
        stacks := K.callstack t.P.thread :: !stacks)
  in
  match List.rev !stacks with
  | [ outer; inner; back ] ->
      (* run_entry pushes the entry name "main" *)
      Alcotest.(check (list string)) "outer" [ "main" ] outer;
      Alcotest.(check (list string)) "inner" [ "helper"; "main" ] inner;
      Alcotest.(check (list string)) "balanced" [ "main" ] back
  | _ -> Alcotest.fail "expected three snapshots"

let test_fn_pops_on_exception () =
  let after = ref [] in
  let _ =
    run_tiny (fun t ->
        (try Api.fn t "helper" (fun () -> failwith "boom") with Failure _ -> ());
        after := K.callstack t.P.thread)
  in
  Alcotest.(check (list string)) "frame popped on exception" [ "main" ] !after

let test_masquerade_restores () =
  let during = ref [] and after = ref [] in
  let _ =
    run_tiny (fun t ->
        Api.fn t "helper" (fun () ->
            Api.masquerade t ~frames:[ "fake_site"; "fake_main" ] (fun () ->
                during := K.callstack t.P.thread);
            after := K.callstack t.P.thread))
  in
  Alcotest.(check (list string)) "masqueraded" [ "fake_site"; "fake_main" ] !during;
  Alcotest.(check (list string)) "restored" [ "helper"; "main" ] !after

(* ------------------------------------------------------------------ *)
(* Api: allocation metadata *)

let test_malloc_records_metadata () =
  let addr = ref 0 in
  let _, _, image =
    run_tiny (fun t ->
        addr := Api.malloc t ~site:"main:pair" "pair_t";
        park t)
  in
  match Heap.block_of_payload image.P.i_heap !addr with
  | Some b ->
      Alcotest.(check int) "two words" 2 b.Heap.words;
      Alcotest.(check string) "type name via registry" "pair_t"
        (Tyreg.name_of_id image.P.i_tyreg b.Heap.ty_id);
      Alcotest.(check string) "site label" "main:pair"
        (Sites.find image.P.i_sites b.Heap.site).Sites.label;
      Alcotest.(check int) "callstack id" (Mcr_util.Fnv.strings [ "main" ]) b.Heap.callstack
  | None -> Alcotest.fail "allocation not found"

let test_malloc_uninstrumented_under_baseline () =
  let addr = ref 0 in
  let _, _, image =
    run_tiny ~instr:Instr.baseline (fun t ->
        addr := Api.malloc t "pair_t";
        park t)
  in
  match Heap.block_of_payload image.P.i_heap !addr with
  | Some b -> Alcotest.(check bool) "no tags without static instr" false b.Heap.instrumented
  | None -> Alcotest.fail "allocation not found"

let test_malloc_n_array_type () =
  let addr = ref 0 in
  let _, _, image =
    run_tiny (fun t ->
        addr := Api.malloc_n t "pair_t" 5;
        park t)
  in
  match Heap.block_of_payload image.P.i_heap !addr with
  | Some b ->
      Alcotest.(check int) "5 x 2 words" 10 b.Heap.words;
      Alcotest.(check string) "array type registered" "pair_t[5]"
        (Tyreg.name_of_id image.P.i_tyreg b.Heap.ty_id)
  | None -> Alcotest.fail "allocation not found"

let test_globals_strings_funcs () =
  let seen = ref (0, 0, 0) in
  let _, _, image =
    run_tiny (fun t ->
        seen := (Api.global t "g", Api.string_lit t "greeting", Api.func_ptr t "helper");
        park t)
  in
  let g, s, f = !seen in
  Alcotest.(check bool) "global resolved" true (g > 0);
  Alcotest.(check string) "string literal readable" "greeting"
    (Mcr_types.Access.read_string image.P.i_aspace s);
  Alcotest.(check (option string)) "func addr reverse" (Some "helper")
    (Mcr_types.Symtab.func_name_of_addr image.P.i_symtab f)

let test_stack_var_key_and_root () =
  let _, _, image =
    run_tiny (fun t ->
        let v = Api.stack_var t "reqbuf" "pair_t" in
        Api.store t v 9;
        park t)
  in
  match image.P.i_stack_roots with
  | [ (key, ty, addr) ] ->
      Alcotest.(check string) "stable key" "main#1:reqbuf" key;
      Alcotest.(check bool) "typed" true (Ty.equal image.P.i_version.P.tyenv image.P.i_version.P.tyenv ty (Ty.Named "pair_t"));
      Alcotest.(check int) "written" 9 (Mcr_vmem.Aspace.read_word image.P.i_aspace addr)
  | l -> Alcotest.failf "expected one root, got %d" (List.length l)

let test_subpool_nested_lifecycle () =
  let ok = ref false in
  let _, _, _ =
    run_tiny (fun t ->
        let root = Api.pool t "root" in
        let child = Api.subpool t ~parent:root "req" in
        let a = Api.palloc_bytes t child "hello" in
        ok := Api.read_string t a = "hello";
        Api.pool_destroy t child;
        (* root still usable *)
        ignore (Api.palloc_words t root 4))
  in
  Alcotest.(check bool) "nested pool roundtrip" true !ok

(* ------------------------------------------------------------------ *)
(* Api: blocking wrappers *)

let test_blocking_passthrough_when_unlisted () =
  (* a blocking call at a site NOT in qpoints behaves natively: no barrier
     registration, no startup-complete marking *)
  let _, _, image =
    run_tiny ~qpoints:[] (fun t ->
        ignore (Api.blocking t ~qpoint:"w" (S.Sem_wait { name = "x"; timeout_ns = Some 100 })))
  in
  Alcotest.(check bool) "no startup-complete without instrumented qpoint" false
    image.P.i_startup_complete;
  Alcotest.(check int) "nothing registered" 0
    (Mcr_quiesce.Barrier.registered image.P.i_barrier)

let test_blocking_instruments_listed_qpoint () =
  let registered_during = ref (-1) in
  let _, _, image =
    run_tiny
      ~qpoints:[ ("w", "sem_wait") ]
      (fun t ->
        ignore (Api.blocking t ~qpoint:"w" (S.Sem_wait { name = "x"; timeout_ns = Some 100 }));
        registered_during := Mcr_quiesce.Barrier.registered t.P.image.P.i_barrier)
  in
  Alcotest.(check bool) "startup complete at first wrapped call" true
    image.P.i_startup_complete;
  Alcotest.(check int) "thread registered while alive" 1 !registered_during;
  (* the loader deregisters exiting threads *)
  Alcotest.(check int) "deregistered on thread exit" 0
    (Mcr_quiesce.Barrier.registered image.P.i_barrier)

let test_wrapped_sem_wait_honors_total_timeout () =
  (* the slicing wrapper must still respect the caller's overall timeout *)
  let result = ref S.Ok_unit in
  let kernel = K.create () in
  let _ =
    Loader.launch kernel
      (tiny_version ~qpoints:[ ("w", "sem_wait") ] (fun t ->
           result :=
             Api.blocking t ~qpoint:"w" (S.Sem_wait { name = "never"; timeout_ns = Some 25_000_000 })))
  in
  K.run kernel;
  Alcotest.(check bool) "ETIMEDOUT surfaces" true (!result = S.Err S.ETIMEDOUT);
  Alcotest.(check bool) "waited about the requested time" true
    (K.clock_ns kernel >= 25_000_000 && K.clock_ns kernel < 80_000_000)

(* ------------------------------------------------------------------ *)
(* Progdef / Loader *)

let test_make_version_requires_main () =
  let tyenv = Ty.env_create () in
  Alcotest.check_raises "no main rejected"
    (Invalid_argument "Progdef.make_version: entries must include main") (fun () ->
      ignore
        (P.make_version ~prog:"x" ~version_tag:"1" ~layout_bias:0 ~tyenv ~globals:[] ~funcs:[]
           ~strings:[] ~entries:[] ()))

let test_diff_versions_counts () =
  let v b =
    let tyenv = Ty.env_create () in
    Ty.env_add tyenv "t1" (if b then Ty.Int else Ty.Word);
    P.make_version ~prog:"x" ~version_tag:"1" ~layout_bias:0 ~tyenv
      ~globals:([ ("a", Ty.Int) ] @ if b then [ ("b", Ty.Int) ] else [])
      ~funcs:([ "main" ] @ if b then [ "f2" ] else [ "f3" ])
      ~strings:[]
      ~entries:[ ("main", fun _ -> ()) ]
      ()
  in
  let d = P.diff_versions (v false) (v true) in
  Alcotest.(check int) "funcs: f3 removed + f2 added" 2 d.P.funcs_changed;
  Alcotest.(check int) "vars: b added" 1 d.P.vars_changed;
  Alcotest.(check int) "types: t1 changed" 1 d.P.types_changed

let test_fork_image_isolates_runtime_state () =
  let kernel = K.create () in
  let version =
    let tyenv = Ty.env_create () in
    P.make_version ~prog:"forker" ~version_tag:"1" ~layout_bias:0 ~tyenv
      ~globals:[ ("g", Ty.Int) ] ~funcs:[ "main" ] ~strings:[]
      ~entries:
        [
          ( "main",
            fun t ->
              ignore (Api.malloc_opaque t 4);
              ignore (Api.sys t (S.Fork { entry = "child" }));
              ignore (Api.sys t (S.Nanosleep { ns = 1_000_000 }));
              park t );
          ( "child",
            fun t ->
              (* the child's own allocation must not disturb the parent *)
              ignore (Api.malloc_opaque t 8);
              park t );
        ]
      ()
  in
  let proc = Loader.launch kernel version in
  let parent = P.image_of_proc_exn proc in
  K.run kernel;
  let child_proc =
    List.find (fun p -> K.parent_pid p = K.pid proc) (K.procs kernel)
  in
  let child = Option.get (P.image_of_proc child_proc) in
  Alcotest.(check bool) "distinct images" true (not (parent == child));
  Alcotest.(check bool) "child heap rebound to child aspace" true
    (Heap.aspace child.P.i_heap == K.aspace child_proc);
  (* the child allocated one more block than the parent *)
  let count img =
    let n = ref 0 in
    Heap.iter_live img.P.i_heap (fun _ -> incr n);
    !n
  in
  Alcotest.(check int) "parent blocks" 1 (count parent);
  Alcotest.(check int) "child blocks" 2 (count child);
  Alcotest.(check bool) "child restarted startup tracking" true
    (child.P.i_startup_complete = false)

let () =
  Alcotest.run "mcr_program"
    [
      ("instr", [ Alcotest.test_case "layering" `Quick test_instr_layering ]);
      ( "shadow-stack",
        [
          Alcotest.test_case "fn balance" `Quick test_fn_stack_balance;
          Alcotest.test_case "fn pops on exception" `Quick test_fn_pops_on_exception;
          Alcotest.test_case "masquerade restores" `Quick test_masquerade_restores;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "metadata recorded" `Quick test_malloc_records_metadata;
          Alcotest.test_case "baseline untagged" `Quick test_malloc_uninstrumented_under_baseline;
          Alcotest.test_case "array types" `Quick test_malloc_n_array_type;
          Alcotest.test_case "globals/strings/funcs" `Quick test_globals_strings_funcs;
          Alcotest.test_case "stack vars" `Quick test_stack_var_key_and_root;
          Alcotest.test_case "nested pools" `Quick test_subpool_nested_lifecycle;
        ] );
      ( "blocking",
        [
          Alcotest.test_case "passthrough unlisted" `Quick test_blocking_passthrough_when_unlisted;
          Alcotest.test_case "instruments listed" `Quick test_blocking_instruments_listed_qpoint;
          Alcotest.test_case "total timeout honored" `Quick
            test_wrapped_sem_wait_honors_total_timeout;
        ] );
      ( "versions-loader",
        [
          Alcotest.test_case "main required" `Quick test_make_version_requires_main;
          Alcotest.test_case "diff counts" `Quick test_diff_versions_counts;
          Alcotest.test_case "fork image isolation" `Quick test_fork_image_isolates_runtime_state;
        ] );
    ]
