(* Simulated clients: the building blocks every workload shares. *)

module K = Mcr_simos.Kernel
module S = Mcr_simos.Sysdefs
module Aspace = Mcr_vmem.Aspace

let spawn kernel name body =
  K.spawn_process kernel ~image:(K.Fresh_image (Aspace.create ())) ~name ~entry:"main"
    ~main:body ()

let connect ?(attempts = 500) port =
  let rec go n =
    match K.syscall (S.Connect { port }) with
    | S.Ok_fd fd -> Some fd
    | S.Err S.ECONNREFUSED when n > 0 ->
        ignore (K.syscall (S.Nanosleep { ns = 1_000_000 }));
        go (n - 1)
    | _ -> None
  in
  go attempts

let send fd data = ignore (K.syscall (S.Write { fd; data }))

let recv ?(max = 1 lsl 20) fd =
  match K.syscall (S.Read { fd; max; nonblock = false }) with
  | S.Ok_data d -> Some d
  | _ -> None

let close fd = ignore (K.syscall (S.Close { fd }))

(* Whether [needle] occurs in [haystack]; compares in place, allocates
   nothing. *)
let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec matches_at i j = j = nn || (haystack.[i + j] = needle.[j] && matches_at i (j + 1)) in
  let rec go i = i + nn <= nh && (matches_at i 0 || go (i + 1)) in
  go 0

(* drive the kernel until a predicate holds; workloads are finite so a
   generous virtual deadline doubles as a hang detector *)
let drive ?(max_s = 3600) kernel pred =
  K.run_until kernel ~max_ns:(K.clock_ns kernel + (max_s * 1_000_000_000)) pred

(* Completion wait over a fixed set of spawned processes. A process never
   revives ([K.alive] only goes from true to false), so a cursor over the
   spawn order only moves forward and stays exact: each poll costs
   amortised O(1), where re-scanning every process before each scheduler
   step would cost O(procs). *)
type exits = { procs : K.proc array; mutable next : int }

let exits procs = { procs = Array.of_list procs; next = 0 }

let all_exited w =
  let n = Array.length w.procs in
  while w.next < n && not (K.alive w.procs.(w.next)) do
    w.next <- w.next + 1
  done;
  w.next = n

let drive_until_exited ?max_s kernel procs =
  let w = exits procs in
  drive ?max_s kernel (fun () -> all_exited w)
