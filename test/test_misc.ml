(* Smoke tests for the presentation and configuration surfaces: every
   pretty-printer renders something sensible for every constructor, and the
   cost models are well-formed. *)

module S = Mcr_simos.Sysdefs
module Costs = Mcr_simos.Costs
module Ty = Mcr_types.Ty
module Addr = Mcr_vmem.Addr
module Region = Mcr_vmem.Region
module W = Mcr_workloads

let render pp v = Format.asprintf "%a" pp v

let all_calls =
  [
    S.Socket;
    S.Bind { fd = 1000; port = 80 };
    S.Listen { fd = 1000; backlog = 8 };
    S.Accept { fd = 1000; nonblock = true };
    S.Accept_timed { fd = 1000; timeout_ns = 5 };
    S.Connect { port = 80 };
    S.Read { fd = 3; max = 10; nonblock = false };
    S.Write { fd = 3; data = "x" };
    S.Close { fd = 3 };
    S.Open { path = "/p"; create = true };
    S.Open_at { path = "/p"; create = false; force_fd = 1001 };
    S.Poll { fds = [ 1; 2 ]; timeout_ns = Some 7; nonblock = false };
    S.Getpid;
    S.Getppid;
    S.Fork { entry = "w" };
    S.Thread_create { entry = "t" };
    S.Waitpid { pid = 2 };
    S.Exit { status = 0 };
    S.Nanosleep { ns = 1 };
    S.Sem_wait { name = "s"; timeout_ns = None };
    S.Unix_listen { path = "/u" };
    S.Unix_connect { path = "/u" };
    S.Shmget { key = 1 };
  ]

let test_call_printers () =
  List.iter
    (fun c ->
      let s = render S.pp_call c in
      Alcotest.(check bool) (S.call_name c ^ " renders") true (String.length s > 0))
    all_calls;
  (* names are unique *)
  let names = List.map S.call_name all_calls in
  Alcotest.(check int) "unique mnemonics" (List.length names)
    (List.length (List.sort_uniq compare names))

let test_result_printers () =
  List.iter
    (fun r -> Alcotest.(check bool) "renders" true (String.length (render S.pp_result r) > 0))
    [
      S.Ok_unit; S.Ok_fd 1; S.Ok_pid 2; S.Ok_data "abc"; S.Ok_len 3; S.Ok_ready [ 1 ];
      S.Ok_status 0; S.Err S.EAGAIN;
    ]

let test_ty_printer () =
  let env = Ty.env_create () in
  ignore env;
  List.iter
    (fun (ty, expect) -> Alcotest.(check string) expect expect (Ty.to_string ty))
    [
      (Ty.Int, "int");
      (Ty.Word, "long");
      (Ty.Char_array 8, "char[8]");
      (Ty.Ptr Ty.Int, "int*");
      (Ty.Void_ptr, "void*");
      (Ty.Array (Ty.Int, 4), "int[4]");
      (Ty.Named "foo", "foo");
      (Ty.Opaque 2, "opaque[2w]");
    ]

let test_region_and_addr_printers () =
  Alcotest.(check string) "addr hex" "0x1000" (Addr.to_string 0x1000);
  let r = { Region.base = 0x1000; size = 4096; kind = Region.Heap; name = "h" } in
  let s = render Region.pp r in
  Alcotest.(check bool) "region mentions kind" true
    (String.length s > 0 && String.sub s 0 4 = "heap")

let test_costs_sane () =
  let open Costs in
  Alcotest.(check bool) "default costs positive" true
    (default.syscall_ns > 0 && default.alloc_ns > 0 && default.tag_word_ns > 0
    && default.transfer_word_ns > 0);
  Alcotest.(check int) "zero model is zero" 0
    (zero.syscall_ns + zero.byte_ns + zero.alloc_ns + zero.tag_word_ns + zero.qhook_ns
    + zero.transfer_word_ns + zero.trace_obj_ns + zero.scan_word_ns + zero.app_work_ns
    + zero.record_ns + zero.replay_match_ns + zero.spawn_ns + zero.switch_ns
    + zero.unblock_wrap_ns)

let test_bench_result_helpers () =
  let r = { W.Bench_result.requests = 100; errors = 0; bytes = 1000; elapsed_ns = 2_000_000_000 } in
  Alcotest.(check (float 0.001)) "throughput" 50.0 (W.Bench_result.throughput r);
  Alcotest.(check bool) "pp renders" true
    (String.length (render W.Bench_result.pp r) > 0);
  let z = { r with W.Bench_result.elapsed_ns = 0 } in
  Alcotest.(check (float 0.001)) "zero elapsed safe" 0.0 (W.Bench_result.throughput z)

let test_blocking_classification () =
  Alcotest.(check bool) "accept blocks" true (S.is_blocking (S.Accept { fd = 1; nonblock = false }));
  Alcotest.(check bool) "nonblock accept does not" false
    (S.is_blocking (S.Accept { fd = 1; nonblock = true }));
  Alcotest.(check bool) "accept_timed blocks" true
    (S.is_blocking (S.Accept_timed { fd = 1; timeout_ns = 1 }));
  Alcotest.(check bool) "write does not" false (S.is_blocking (S.Write { fd = 1; data = "" }))

let () =
  Alcotest.run "mcr_misc"
    [
      ( "printers",
        [
          Alcotest.test_case "calls" `Quick test_call_printers;
          Alcotest.test_case "results" `Quick test_result_printers;
          Alcotest.test_case "types" `Quick test_ty_printer;
          Alcotest.test_case "regions and addrs" `Quick test_region_and_addr_printers;
        ] );
      ( "config",
        [
          Alcotest.test_case "cost models" `Quick test_costs_sane;
          Alcotest.test_case "bench results" `Quick test_bench_result_helpers;
          Alcotest.test_case "blocking classification" `Quick test_blocking_classification;
        ] );
    ]
