(* Simulated clients: the building blocks every workload shares. *)

module K = Mcr_simos.Kernel
module S = Mcr_simos.Sysdefs
module Aspace = Mcr_vmem.Aspace

let spawn kernel name body =
  K.spawn_process kernel ~image:(K.Fresh_image (Aspace.create ())) ~name ~entry:"main" ~main:body ()

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

(* Whether [needle] occurs in [haystack]: a position's first byte is
   checked before the rest is compared, in place. *)
let contains haystack needle =
  let n = String.length needle and get = String.unsafe_get in
  let rec rest i j = j = n || (get haystack (i + j) = get needle j && rest i (j + 1)) in
  let rec go i =
    i + n <= String.length haystack && ((get haystack i = get needle 0 && rest i 1) || go (i + 1))
  in
  n = 0 || go 0

(* A reply to RETR by the codes it carries, in one pass: "226" (transfer
   complete) over "550" (no such file) over "150" (opening), else data. *)
type retr_reply = Complete | Missing | Opening | Data

let classify_retr reply =
  let at i a b = String.unsafe_get reply (i + 1) = a && String.unsafe_get reply (i + 2) = b in
  let rec go i seen =
    if i + 3 > String.length reply then seen
    else
      match String.unsafe_get reply i with
      | '2' when at i '2' '6' -> Complete
      | '5' when at i '5' '0' -> go (i + 1) Missing
      | '1' when seen = Data && at i '5' '0' -> go (i + 1) Opening
      | _ -> go (i + 1) seen
  in
  go 0 Data

(* [(ok, bytes)] of a RETR drained with [recv] up to its 226 or 550: [ok] when
   a 150 came before the 226, [bytes] the length of every reply before the last. *)
let drain_retr recv =
  let rec go bytes opened =
    match Option.map (fun r -> (classify_retr r, String.length r)) (recv ()) with
    | Some (Complete, _) -> (opened, bytes)
    | None | Some (Missing, _) -> (false, bytes)
    | Some (c, len) -> go (bytes + len) (opened || c = Opening)
  in
  go 0 false

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
