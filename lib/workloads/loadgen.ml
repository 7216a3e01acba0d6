(* Open-loop Poisson-arrival load driver.

   Closed-loop clients (http_bench and friends) hide update stalls behind
   coordinated omission: a client stuck in the window simply issues its
   next request late, so the stall shows up once instead of in every
   request that *would* have been sent. This driver is open-loop: every
   request has a scheduled arrival time drawn up front from a seeded
   exponential inter-arrival stream, and latency is measured from that
   schedule, so a 40 ms update window is charged to every request whose
   arrival it delayed.

   Every client is spawned before the run starts (spawning costs virtual
   time; paying it at arrival time would serialize the arrival process)
   and sleeps until its scheduled arrival, as one deferred start
   ([Kernel.spawn_at]): its process is built only at the arrival, so a
   client that has not arrived holds its pid and tid, its timer and the
   job that arms it, and nothing of a process. *)

module K = Mcr_simos.Kernel
module S = Mcr_simos.Sysdefs
module Stats = Mcr_util.Stats
module Rng = Mcr_util.Rng
module Metrics = Mcr_obs.Metrics
module Trace = Mcr_obs.Trace

let latency_metric = "mcr_request_latency_ns"

type record = {
  rq_id : int;
  rq_scheduled_ns : int;  (* open-loop submit instant *)
  rq_first_byte_ns : int;  (* first server byte; -1 if none arrived *)
  rq_complete_ns : int;
  rq_retries : int;  (* ECONNREFUSED-driven reconnect attempts *)
  rq_ok : bool;
}

type t = {
  kernel : K.t;
  server : Testbed.server;
  total : int;
  issued : int ref;
  completed : int ref;
  errored : int ref;
  refused_retries : int ref;
  in_flight : int ref;
  peak_in_flight : int ref;
  latency : Stats.hist;  (* scheduled arrival -> completion *)
  records : record option array;
  offsets : int array;
  base : int ref;  (* absolute schedule origin, set once spawning is done *)
  finished : int ref;  (* clients whose body has returned or raised *)
}

(* Seeded exponential inter-arrivals; same seed, same schedule. *)
let arrival_offsets ~seed ~rate ~n =
  if rate <= 0 then invalid_arg "Loadgen: rate must be positive";
  let rng = Rng.create seed in
  let mean_ns = 1e9 /. float_of_int rate in
  let at = ref 0. in
  Array.init n (fun _ ->
      let u = (float_of_int (Rng.int rng 1_000_000) +. 1.) /. 1_000_000. in
      at := !at +. (-.log u *. mean_ns);
      int_of_float !at)

(* One request's protocol dialog on an established connection. Returns
   (ok, first_byte_clock, bytes). The first server byte is the banner for
   FTP/SSH and the response head for HTTP. *)
let dialog kernel server fd user =
  let fb = ref (-1) in
  let recv () =
    let r = Client.recv fd in
    (match r with
    | Some d when String.length d > 0 && !fb < 0 -> fb := K.clock_ns kernel
    | _ -> ());
    r
  in
  let cmd c =
    Client.send fd c;
    recv ()
  in
  let ok =
    match (server : Testbed.server) with
    | Testbed.Nginx | Testbed.Httpd -> (
        Client.send fd "GET /index.html";
        match recv () with
        | Some reply -> String.length reply >= 3 && String.sub reply 0 3 = "200"
        | None -> false)
    | Testbed.Vsftpd ->
        let _banner = recv () in
        let _ = cmd (Printf.sprintf "USER user%d" user) in
        let _ = cmd "PASS secret" in
        Client.send fd "RETR big.bin";
        let ok, _ = Client.drain_retr recv in
        let _ = cmd "QUIT" in
        ok
    | Testbed.Sshd -> (
        let _banner = recv () in
        match cmd (Printf.sprintf "AUTH user%d" user) with
        | Some r when Client.contains r "auth-ok" ->
            let ok =
              match cmd "RUN cmd1" with
              | Some reply -> Client.contains reply "out:"
              | None -> false
            in
            let _ = cmd "EXIT" in
            ok
        | Some _ | None -> false)
  in
  (ok, !fb)

let start kernel ~server ?(seed = 1) ?metrics ?trace ~rate ~requests () =
  let port = Testbed.port server in
  let offsets = arrival_offsets ~seed ~rate ~n:requests in
  let lat_metric =
    Option.map (fun m -> Metrics.histogram m ~bounds:Stats.log_ns_bounds latency_metric) metrics
  in
  let issued_c = Option.map (fun m -> Metrics.counter m "mcr_requests_issued_total") metrics in
  let completed_c =
    Option.map (fun m -> Metrics.counter m "mcr_requests_completed_total") metrics
  in
  let errored_c = Option.map (fun m -> Metrics.counter m "mcr_requests_errored_total") metrics in
  let inflight_g = Option.map (fun m -> Metrics.gauge m "mcr_requests_in_flight") metrics in
  (* The absolute schedule base: set after every client process has been
     spawned (spawning advances the virtual clock), read by the clients
     when the kernel first runs them. *)
  let base = ref 0 in
  let t =
    {
      kernel;
      server;
      total = requests;
      issued = ref 0;
      completed = ref 0;
      errored = ref 0;
      refused_retries = ref 0;
      in_flight = ref 0;
      peak_in_flight = ref 0;
      latency = Stats.hist_create ~bounds:Stats.log_ns_bounds;
      records = Array.make requests None;
      offsets;
      base;
      finished = ref 0;
    }
  in
  let span_name =
    match server with
    | Testbed.Nginx | Testbed.Httpd -> "request.http"
    | Testbed.Vsftpd -> "request.ftp"
    | Testbed.Sshd -> "request.ssh"
  in
  (* Clients are spawned one after another, so client [i] has pid
     [first_pid + i]: one body and one arrival serve them all, and a
     client carries no closure of its own. *)
  let first_pid = ref 0 in
  let index th = K.pid (K.thread_proc th) - !first_pid in
  let scheduled_ns i = !base + offsets.(i) in
  let arrival pid = scheduled_ns (pid - !first_pid) in
  let request th =
    let i = index th in
    let scheduled = scheduled_ns i in
    incr t.issued;
    Option.iter Metrics.incr issued_c;
    incr t.in_flight;
    if !(t.in_flight) > !(t.peak_in_flight) then t.peak_in_flight := !(t.in_flight);
    Option.iter (fun g -> Metrics.set g !(t.in_flight)) inflight_g;
    let retries = ref 0 in
    (* Exponential backoff on refused connects (1 ms doubling to a 64 ms
       cap), the standard client response to an overloaded accept queue.
       This is what makes refusal expensive at the tail: a client refused
       by an update window sleeps past the window's end by up to its whole
       last backoff interval. *)
    let backoff = ref 1_000_000 in
    let rec connect n =
      match K.syscall (S.Connect { port }) with
      | S.Ok_fd fd -> Some fd
      | S.Err S.ECONNREFUSED when n > 0 ->
          incr retries;
          incr t.refused_retries;
          ignore (K.syscall (S.Nanosleep { ns = !backoff }));
          backoff := min (2 * !backoff) 64_000_000;
          connect (n - 1)
      | _ -> None
    in
    let ok, fb =
      match connect 2000 with
      | None -> (false, -1)
      | Some fd ->
          let ok, fb = dialog kernel server fd i in
          Client.close fd;
          (ok, fb)
    in
    let finish = K.clock_ns kernel in
    decr t.in_flight;
    Option.iter (fun g -> Metrics.set g !(t.in_flight)) inflight_g;
    let d = finish - scheduled in
    Stats.hist_observe t.latency d;
    Option.iter (fun h -> Metrics.observe h d) lat_metric;
    if ok then begin
      incr t.completed;
      Option.iter Metrics.incr completed_c
    end
    else begin
      incr t.errored;
      Option.iter Metrics.incr errored_c
    end;
    (* the span's arguments are built only for a sink that keeps them *)
    if Option.is_some trace then
      Trace.complete trace ~pid:(K.pid (K.thread_proc th))
        ~cat:"request"
        ~args:
          [ ("id", string_of_int i);
            ("server", Testbed.name server);
            ("ok", if ok then "yes" else "no");
            ("retries", string_of_int !retries) ]
        ~dur_ns:d span_name;
    t.records.(i) <-
      Some
        {
          rq_id = i;
          rq_scheduled_ns = scheduled;
          rq_first_byte_ns = fb;
          rq_complete_ns = finish;
          rq_retries = !retries;
          rq_ok = ok;
        }
  in
  let main th = Fun.protect ~finally:(fun () -> incr t.finished) (fun () -> request th) in
  for i = 0 to requests - 1 do
    let pid = K.spawn_at kernel ~arrival ~name:("load-" ^ string_of_int i) ~entry:"main" ~main () in
    if i = 0 then first_pid := pid;
    assert (pid = !first_pid + i)
  done;
  base := K.clock_ns kernel;
  t

let drive ?max_s t = ignore (Client.drive ?max_s t.kernel (fun () -> !(t.finished) = t.total))

let issued t = !(t.issued)
let completed t = !(t.completed)
let errored t = !(t.errored)
let refused_retries t = !(t.refused_retries)

(* Open-loop concurrency: a request is outstanding from its *scheduled*
   arrival (the client-perceived submit) until completion, regardless of
   when the scheduler got around to running its thread — the same
   no-coordinated-omission rule the latency stamps follow. Classic
   max-overlap sweep over the completed records; requests still on the
   wire count from their schedule to now. An event is one int, [2 * time]
   for an arrival and [2 * time + 1] for a completion, so one sort of an
   int array puts them in time order, arrivals first at equal times. *)
let peak_in_flight t =
  let now = K.clock_ns t.kernel in
  let events = Array.make (2 * Array.length t.records) max_int in
  let n = ref 0 in
  let add time d =
    events.(!n) <- (2 * time) + d;
    incr n
  in
  Array.iteri
    (fun i r ->
      match r with
      | Some r ->
          add r.rq_scheduled_ns 0;
          add r.rq_complete_ns 1
      | None ->
          (* still on the wire: outstanding from its schedule until now *)
          let sched = !(t.base) + t.offsets.(i) in
          if sched <= now then begin
            add sched 0;
            add now 1
          end)
    t.records;
  Array.sort Int.compare events;
  let cur = ref 0 and peak = ref 0 in
  for i = 0 to !n - 1 do
    cur := !cur + if events.(i) land 1 = 0 then 1 else -1;
    if !cur > !peak then peak := !cur
  done;
  !peak

let summary t = Stats.hist_summary t.latency

(* Exact (unbucketed) percentile over the per-request records — the
   bucketed histograms bound relative error at the bucket width, which
   can tie two genuinely different tails; comparisons gate on this. *)
let exact_percentile t p =
  if p < 0. || p > 100. then invalid_arg "Loadgen.exact_percentile";
  let n = Array.fold_left (fun n r -> if Option.is_some r then n + 1 else n) 0 t.records in
  if n = 0 then 0
  else begin
    let ds = Array.make n 0 and k = ref 0 in
    Array.iter
      (function
        | Some r ->
            ds.(!k) <- r.rq_complete_ns - r.rq_scheduled_ns;
            incr k
        | None -> ())
      t.records;
    Array.sort Int.compare ds;
    let rank = max 1 (int_of_float (ceil (p /. 100. *. float_of_int n))) in
    ds.(min (n - 1) (rank - 1))
  end

let records t =
  Array.fold_right (fun r acc -> match r with Some r -> r :: acc | None -> acc) t.records []

(* The per-request stamps in mcr-postmortem's --requests dialect: feed this
   plus the update's flight record to [Postmortem.render_client_impact] to
   see which waterfall segment stalled which requests. *)
let requests_json t =
  Mcr_obs.Client_impact.reqs_to_json ~server:(Testbed.name t.server)
    (Array.fold_right
       (fun r acc ->
         match r with
         | Some r ->
             {
               Mcr_obs.Client_impact.q_id = r.rq_id;
               q_scheduled_ns = r.rq_scheduled_ns;
               q_first_byte_ns = r.rq_first_byte_ns;
               q_complete_ns = r.rq_complete_ns;
               q_retries = r.rq_retries;
               q_ok = r.rq_ok;
             }
             :: acc
         | None -> acc)
       t.records [])

let total t = t.total
