(* Unit tests for Mcr_quiesce: the barrier synchronization protocol and the
   quiescence profiler. *)

module K = Mcr_simos.Kernel
module S = Mcr_simos.Sysdefs
module Barrier = Mcr_quiesce.Barrier
module Profiler = Mcr_quiesce.Profiler
module Aspace = Mcr_vmem.Aspace

let spawn kernel name body =
  (* the entry name is the thread-class name the profiler reports *)
  K.spawn_process kernel ~image:(K.Fresh_image (Aspace.create ())) ~name ~entry:name
    ~main:body ()

let drive kernel pred =
  K.run_until kernel ~max_ns:(K.clock_ns kernel + 60_000_000_000) pred

(* a worker loop that checks the barrier hook between "work" slices, like
   an unblockified blocking call does *)
let worker_loop barrier iterations_done =
  let rec go () =
    let parked = Barrier.hook barrier in
    ignore parked;
    incr iterations_done;
    ignore (K.syscall (S.Nanosleep { ns = 1_000_000 }));
    go ()
  in
  go ()

(* ------------------------------------------------------------------ *)
(* Barrier *)

let test_hook_noop_when_not_requested () =
  let kernel = K.create () in
  let parked = ref None in
  let _ =
    spawn kernel "t" (fun _ ->
        let b = Barrier.create kernel ~pid:1 in
        Barrier.register_thread b;
        parked := Some (Barrier.hook b))
  in
  K.run kernel;
  Alcotest.(check (option bool)) "no park without request" (Some false) !parked

let test_barrier_full_cycle () =
  let kernel = K.create () in
  let b = Barrier.create kernel ~pid:7 in
  let iters = ref 0 in
  let p =
    spawn kernel "w" (fun _ ->
        Barrier.register_thread b;
        worker_loop b iters)
  in
  (* let the worker spin a bit *)
  K.run_for kernel 10_000_000;
  Alcotest.(check bool) "not quiesced before request" false (Barrier.quiesced b);
  Barrier.request b;
  Alcotest.(check bool) "converges" true (drive kernel (fun () -> Barrier.quiesced b));
  let before = !iters in
  (* parked: no iterations happen while quiescent *)
  K.run_for kernel 50_000_000;
  Alcotest.(check int) "no work while parked" before !iters;
  Barrier.release b;
  Alcotest.(check bool) "resumes" true (drive kernel (fun () -> !iters > before));
  Alcotest.(check bool) "no longer quiesced" false (Barrier.quiesced b);
  K.kill_process kernel p ~status:0

let test_barrier_multiple_threads () =
  let kernel = K.create () in
  let b = Barrier.create kernel ~pid:8 in
  let procs =
    List.init 4 (fun i ->
        spawn kernel
          (Printf.sprintf "w%d" i)
          (fun _ ->
            Barrier.register_thread b;
            worker_loop b (ref 0)))
  in
  K.run_for kernel 5_000_000;
  Alcotest.(check int) "four registered" 4 (Barrier.registered b);
  Barrier.request b;
  Alcotest.(check bool) "all four arrive" true (drive kernel (fun () -> Barrier.quiesced b));
  Alcotest.(check int) "arrived = registered" 4 (Barrier.arrived b);
  Barrier.release b;
  K.run_for kernel 5_000_000;
  Alcotest.(check int) "departed" 0 (Barrier.arrived b);
  List.iter (fun p -> K.kill_process kernel p ~status:0) procs

let test_barrier_reusable_across_episodes () =
  let kernel = K.create () in
  let b = Barrier.create kernel ~pid:9 in
  let p =
    spawn kernel "w" (fun _ ->
        Barrier.register_thread b;
        worker_loop b (ref 0))
  in
  for _ = 1 to 3 do
    Barrier.request b;
    Alcotest.(check bool) "converges" true (drive kernel (fun () -> Barrier.quiesced b));
    Barrier.release b;
    K.run_for kernel 5_000_000
  done;
  K.kill_process kernel p ~status:0

let test_barrier_cancel () =
  let kernel = K.create () in
  let b = Barrier.create kernel ~pid:10 in
  let iters = ref 0 in
  let p =
    spawn kernel "w" (fun _ ->
        Barrier.register_thread b;
        worker_loop b iters)
  in
  K.run_for kernel 5_000_000;
  Barrier.request b;
  ignore (drive kernel (fun () -> Barrier.quiesced b));
  Barrier.cancel b;
  Alcotest.(check bool) "request withdrawn" false (Barrier.requested b);
  let before = !iters in
  Alcotest.(check bool) "worker resumed after cancel" true
    (drive kernel (fun () -> !iters > before));
  K.kill_process kernel p ~status:0

let test_deregister_lowers_target () =
  let kernel = K.create () in
  let b = Barrier.create kernel ~pid:11 in
  Barrier.register_thread b;
  Barrier.register_thread b;
  Barrier.deregister_thread b;
  Alcotest.(check int) "one left" 1 (Barrier.registered b);
  (* a barrier with no registered threads is trivially quiescent *)
  Barrier.deregister_thread b;
  Barrier.request b;
  Alcotest.(check bool) "empty barrier quiesces" true (Barrier.quiesced b)

(* ------------------------------------------------------------------ *)
(* Profiler *)

let test_profiler_identifies_blocking_site () =
  let kernel = K.create () in
  let prof = Profiler.create kernel in
  Profiler.attach prof;
  let _w =
    spawn kernel "srv" (fun th ->
        Profiler.note_thread_start prof th;
        K.push_frame th "serve_loop";
        let rec go n =
          if n > 0 then begin
            ignore (K.syscall (S.Sem_wait { name = "work"; timeout_ns = None }));
            go (n - 1)
          end
        in
        go 3)
  in
  let _poster =
    spawn kernel "post" (fun _ ->
        for _ = 1 to 3 do
          ignore (K.syscall (S.Nanosleep { ns = 10_000_000 }));
          K.post_semaphore kernel "work"
        done)
  in
  K.run kernel;
  Profiler.detach prof;
  let r = Profiler.report prof in
  let srv = List.find (fun c -> c.Profiler.cls = "srv") r.Profiler.classes in
  (match srv.Profiler.quiescent_point with
  | Some q ->
      Alcotest.(check string) "site" "serve_loop" q.Profiler.site;
      Alcotest.(check string) "call" "sem_wait" q.Profiler.call;
      Alcotest.(check int) "three waits observed" 3 q.Profiler.hits;
      Alcotest.(check bool) "blocked time accumulated" true (q.Profiler.blocked_ns > 0)
  | None -> Alcotest.fail "no quiescent point found")

let test_profiler_short_vs_long_lived () =
  let kernel = K.create () in
  let prof = Profiler.create kernel in
  Profiler.attach prof;
  let _short =
    spawn kernel "short" (fun th ->
        Profiler.note_thread_start prof th;
        ignore (K.syscall (S.Nanosleep { ns = 1_000 }));
        Profiler.note_thread_end prof th)
  in
  let _long =
    spawn kernel "long" (fun th ->
        Profiler.note_thread_start prof th;
        ignore (K.syscall (S.Sem_wait { name = "never"; timeout_ns = None })))
  in
  ignore (drive kernel (fun () -> K.quiescent_system kernel));
  Profiler.detach prof;
  let r = Profiler.report prof in
  Alcotest.(check int) "one short-lived class" 1 r.Profiler.short_lived;
  Alcotest.(check int) "one long-lived class" 1 r.Profiler.long_lived_count

let test_profiler_samples_never_resumed_blocks () =
  (* a thread that blocks once and never resumes must still yield a
     quiescent point (the sampling view) *)
  let kernel = K.create () in
  let prof = Profiler.create kernel in
  Profiler.attach prof;
  let _t =
    spawn kernel "stuck" (fun th ->
        Profiler.note_thread_start prof th;
        K.push_frame th "wait_forever";
        ignore (K.syscall (S.Sem_wait { name = "never2"; timeout_ns = None })))
  in
  K.run kernel;
  Profiler.detach prof;
  let r = Profiler.report prof in
  Alcotest.(check int) "qpoint found by sampling" 1 r.Profiler.quiescent_points;
  match Profiler.suggested_qpoints r with
  | [ (site, call) ] ->
      Alcotest.(check string) "site" "wait_forever" site;
      Alcotest.(check string) "call" "sem_wait" call
  | other -> Alcotest.failf "expected one qpoint, got %d" (List.length other)

let test_profiler_loop_detection () =
  let kernel = K.create () in
  let prof = Profiler.create kernel in
  Profiler.attach prof;
  let _t =
    spawn kernel "looper" (fun th ->
        Profiler.note_thread_start prof th;
        (* a short-lived inner loop and a never-terminating outer loop *)
        Profiler.note_loop_enter prof th "outer";
        Profiler.note_loop_enter prof th "inner";
        Profiler.note_loop_exit prof th "inner";
        ignore (K.syscall (S.Sem_wait { name = "never3"; timeout_ns = None })))
  in
  K.run kernel;
  Profiler.detach prof;
  let r = Profiler.report prof in
  let c = List.find (fun c -> c.Profiler.cls = "looper") r.Profiler.classes in
  Alcotest.(check (list string)) "outer loop never exits" [ "outer" ]
    c.Profiler.long_lived_loops

let test_profiler_filter () =
  let kernel = K.create () in
  let prof = Profiler.create kernel in
  Profiler.set_filter prof (fun th -> K.thread_name th <> "noise");
  Profiler.attach prof;
  let _noise =
    spawn kernel "noise" (fun _ ->
        ignore (K.syscall (S.Sem_wait { name = "never4"; timeout_ns = None })))
  in
  let _real =
    spawn kernel "real" (fun th ->
        Profiler.note_thread_start prof th;
        ignore (K.syscall (S.Sem_wait { name = "never5"; timeout_ns = None })))
  in
  K.run kernel;
  Profiler.detach prof;
  let r = Profiler.report prof in
  Alcotest.(check bool) "filtered thread absent" true
    (not (List.exists (fun c -> c.Profiler.cls = "noise") r.Profiler.classes));
  Alcotest.(check bool) "kept thread present" true
    (List.exists (fun c -> c.Profiler.cls = "real") r.Profiler.classes)

let () =
  Alcotest.run "mcr_quiesce"
    [
      ( "barrier",
        [
          Alcotest.test_case "hook noop without request" `Quick test_hook_noop_when_not_requested;
          Alcotest.test_case "full cycle" `Quick test_barrier_full_cycle;
          Alcotest.test_case "multiple threads" `Quick test_barrier_multiple_threads;
          Alcotest.test_case "reusable across episodes" `Quick
            test_barrier_reusable_across_episodes;
          Alcotest.test_case "cancel" `Quick test_barrier_cancel;
          Alcotest.test_case "deregister" `Quick test_deregister_lowers_target;
        ] );
      ( "profiler",
        [
          Alcotest.test_case "identifies blocking site" `Quick
            test_profiler_identifies_blocking_site;
          Alcotest.test_case "short vs long lived" `Quick test_profiler_short_vs_long_lived;
          Alcotest.test_case "samples never-resumed blocks" `Quick
            test_profiler_samples_never_resumed_blocks;
          Alcotest.test_case "loop detection" `Quick test_profiler_loop_detection;
          Alcotest.test_case "filter" `Quick test_profiler_filter;
        ] );
    ]
