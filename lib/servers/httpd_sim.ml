module S = Mcr_simos.Sysdefs
module Ty = Mcr_types.Ty
module P = Mcr_program.Progdef
module Api = Mcr_program.Api
module Addr = Mcr_vmem.Addr

let port = 8082
let servers = 2
let workers_per_server = 2
let doc_root = "/www"
let config_path = "/etc/httpd.conf"
let pidfile = "/var/run/httpd.pid"
let max_held = 128

let meta = Table_meta.httpd

(* ------------------------------------------------------------------ *)
(* Types *)

let conf_t =
  Ty.Struct
    {
      sname = "ap_conf_t";
      fields =
        [
          ("workers", Ty.Int);
          ("listen_fd", Ty.Int);
          ("conn_buf_words", Ty.Int);
          ("root", Ty.Void_ptr);
        ];
    }

let vhost_t ~final =
  let fields =
    [ ("name", Ty.Void_ptr); ("hits", Ty.Int); ("next", Ty.Ptr (Ty.Named "ap_vhost_t")) ]
    @ if final then [ ("bytes", Ty.Int) ] else []
  in
  Ty.Struct { sname = "ap_vhost_t"; fields }

let request_t =
  Ty.Struct { sname = "ap_request_t"; fields = [ ("uri", Ty.Void_ptr); ("len", Ty.Int) ] }

let env ~final =
  let e = Ty.env_create () in
  Ty.env_add e "ap_conf_t" conf_t;
  Ty.env_add e "ap_vhost_t" (vhost_t ~final);
  Ty.env_add e "ap_request_t" request_t;
  e

(* ------------------------------------------------------------------ *)
(* Request handling *)

let serve_file t path =
  let full = if String.length path > 0 && path.[0] = '/' then doc_root ^ path else path in
  match Api.sys t (S.Open { path = full; create = false }) with
  | S.Ok_fd fd ->
      let data =
        match Api.sys t (S.Read { fd; max = 65536; nonblock = false }) with
        | S.Ok_data d -> d
        | _ -> ""
      in
      ignore (Api.sys t (S.Close { fd }));
      data
  | _ -> "404 not found"

let bump_vhost t path len =
  let head_addr = Api.global t "ap_vhost_head" in
  let key_buf name =
    let b = Api.malloc_opaque t ~site:"ap_vhost:name" 4 in
    Api.write_bytes t b name;
    b
  in
  let rec find addr =
    if addr = 0 then None
    else if Api.read_string t (Api.load_field t addr "ap_vhost_t" "name") = path then Some addr
    else find (Api.load_field t addr "ap_vhost_t" "next")
  in
  match find (Api.load t head_addr) with
  | Some v ->
      Api.store_field t v "ap_vhost_t" "hits" (Api.load_field t v "ap_vhost_t" "hits" + 1)
  | None ->
      let v = Api.malloc t ~site:"ap_vhost_insert:entry" "ap_vhost_t" in
      Api.store_field t v "ap_vhost_t" "name" (key_buf path);
      Api.store_field t v "ap_vhost_t" "hits" 1;
      Api.store_field t v "ap_vhost_t" "next" (Api.load t head_addr);
      Api.store t head_addr v;
      ignore len

(* ------------------------------------------------------------------ *)
(* Worker threads *)

(* claim the first held-but-unclaimed scoreboard slot; returns its fd and
   the slot index so the hold worker can park per-connection state (the
   request buffer) there, or [(0, -1)] when every held fd is claimed *)
let claim_held t =
  let held = Api.global t "ap_held_fds" in
  let claimed = Api.global t "ap_held_claimed" in
  let rec from i =
    let i = Srvutil.find_slot t held ~capacity:max_held ~from:i (fun v -> v <> 0) in
    if i < 0 then (0, -1)
    else if Api.load t (Addr.add_words claimed i) <> 0 then from (i + 1)
    else begin
      Api.store t (Addr.add_words claimed i) 1;
      (Api.load t (Addr.add_words held i), i)
    end
  in
  from 0

let unheld t fd =
  let held = Api.global t "ap_held_fds" in
  let claimed = Api.global t "ap_held_claimed" in
  let bufs = Api.global t "ap_held_bufs" in
  let rec from i =
    let i = Srvutil.find_slot t held ~capacity:max_held ~from:i (fun v -> v = fd) in
    if i >= 0 then begin
      Api.store t (Addr.add_words held i) 0;
      Api.store t (Addr.add_words claimed i) 0;
      let b = Api.load t (Addr.add_words bufs i) in
      if b <> 0 then begin
        Api.free t b;
        Api.store t (Addr.add_words bufs i) 0
      end;
      from (i + 1)
    end
  in
  from 0

let respond_get t ~slot conn path =
  let body = serve_file t path in
  (* per-request state in a nested region: a child pool of the process
     pool, destroyed when the request completes (apr semantics) *)
  let root_pool = Api.find_pool t "ap_root_pool" in
  let rpool = Api.subpool t ~parent:root_pool "ap_req_pool" in
  let req = Api.palloc t rpool ~site:"ap_process_request:req" "ap_request_t" in
  let uri = Api.palloc_bytes t rpool path in
  Api.store t req uri;
  (* the access log lives in the long-lived root pool (apr-style): a linked
     list of pool records whose head hides in a pointer-sized integer —
     uninstrumented pool state, the dominant source of likely pointers in
     Table 2 *)
  let entry = Api.palloc t root_pool ~site:"ap_log:entry" "ap_request_t" in
  let n_now = Api.load t (Api.global t "ap_requests") in
  (* method literals alternate with pool-copied uris: pool-resident likely
     pointers into both static strings and dynamic memory, as in Table 2 *)
  Api.store t entry
    (if n_now mod 2 = 0 then Api.string_lit t "GET" else Api.palloc_bytes t root_pool path);
  Api.store t (Mcr_vmem.Addr.add_words entry 1) (Api.load t (Api.global t "ap_log_head"));
  Api.store t (Api.global t "ap_log_head") entry;
  (* bucket-brigade buffers: transient heap allocations per response, the
     instrumented-malloc traffic behind httpd's Table 3 overhead *)
  let brigade = List.init 6 (fun _ -> Api.malloc_opaque t ~site:"ap_brigade:bucket" 8) in
  List.iter (fun b -> Api.free t b) brigade;
  bump_vhost t path (String.length body);
  let sb = Api.global t "ap_scoreboard" in
  Api.store t (Addr.add_words sb slot) (Api.load t (Addr.add_words sb slot) + 1);
  Api.store t (Api.global t "ap_requests") (Api.load t (Api.global t "ap_requests") + 1);
  Api.app_work t 1;
  let n = Api.load t (Api.global t "ap_requests") in
  Srvutil.reply t conn (Srvutil.ok_reply n body);
  Api.pool_destroy t rpool

let hold_worker_body t =
  Api.fn t "ap_hold_worker" @@ fun () ->
  (* find our connection: first held-but-unclaimed fd *)
  let fd, slot = claim_held t in
  if fd <> 0 then begin
    let state = Api.stack_var t "hold_state" "ap_hold_state_t" in
    (* per-connection request buffer: heap state that grows with held
       connections (Figure 3), sized by the ConnBufferWords directive and
       parked in ap_held_bufs so it stays reachable (and transferable)
       for the connection's whole lifetime; respawned hold workers after
       an update find the transferred buffer already in the slot *)
    let bufs = Api.global t "ap_held_bufs" in
    if Api.load t (Addr.add_words bufs slot) = 0 then begin
      let conf = Api.load t (Api.global t "ap_conf") in
      let buf_words =
        let n = Api.load_field t conf "ap_conf_t" "conn_buf_words" in
        if n <= 0 then 256 else n
      in
      Api.store t (Addr.add_words bufs slot)
        (Api.malloc_opaque t ~site:"ap_hold_worker:buf" buf_words)
    end;
    let rec serve () =
      match Api.blocking t ~qpoint:"ap_hold_read" (S.Read { fd; max = 4096; nonblock = false }) with
      | S.Ok_data "" ->
          unheld t fd;
          ignore (Api.sys t (S.Close { fd }))
      | S.Ok_data req -> begin
          match Srvutil.parse_get req with
          | Some path ->
              Api.store t state (Api.load t state + 1);
              respond_get t ~slot:0 fd path;
              unheld t fd;
              ignore (Api.sys t (S.Close { fd }))
          | None -> serve ()
        end
      | S.Err S.EINTR -> serve ()
      | _ -> unheld t fd
    in
    serve ()
  end

let worker_body t =
  Api.fn t "ap_worker_thread" @@ fun () ->
  let slot_counter = Api.global t "ap_next_slot" in
  let slot = Api.load t slot_counter in
  Api.store t slot_counter (slot + 1);
  let conf = Api.load t (Api.global t "ap_conf") in
  let listen_fd = Api.load_field t conf "ap_conf_t" "listen_fd" in
  Api.loop t "ap_worker_loop" (fun () ->
      match
        Api.blocking t ~qpoint:"ap_worker_accept" (S.Accept { fd = listen_fd; nonblock = false })
      with
      | S.Ok_fd conn -> begin
          match Api.sys t (S.Read { fd = conn; max = 4096; nonblock = false }) with
          | S.Ok_data req -> begin
              match Srvutil.parse_get req with
              | Some path ->
                  respond_get t ~slot conn path;
                  ignore (Api.sys t (S.Close { fd = conn }));
                  true
              | None ->
                  if Srvutil.command req = "HOLD" then begin
                    ignore (Srvutil.array_add t ~global_arr:"ap_held_fds" ~capacity:max_held conn);
                    ignore (Api.sys t (S.Thread_create { entry = "ap_hold_worker" }));
                    true
                  end
                  else begin
                    Srvutil.reply t conn "400";
                    ignore (Api.sys t (S.Close { fd = conn }));
                    true
                  end
            end
          | _ ->
              ignore (Api.sys t (S.Close { fd = conn }));
              true
        end
      | _ -> true)

(* ------------------------------------------------------------------ *)
(* Server (child) processes and master *)

let server_body t =
  Api.fn t "ap_child_main" @@ fun () ->
  for _ = 1 to workers_per_server do
    ignore (Api.sys t (S.Thread_create { entry = "ap_worker" }))
  done;
  Api.loop t "ap_child_wait" (fun () ->
      ignore
        (Api.blocking t ~qpoint:"ap_child_wait"
           (S.Sem_wait { name = "ap.child.signal"; timeout_ns = None }));
      true)

let master_body ~prepared ~step t =
  Api.fn t "main" @@ fun () ->
  Api.fn t "ap_read_config" (fun () ->
      let conf = Api.malloc t ~site:"ap_read_config:conf" "ap_conf_t" in
      Api.store t (Api.global t "ap_conf") conf;
      let cfd = Api.sys_fd_exn t (S.Open { path = config_path; create = false }) in
      let raw =
        match Api.sys t (S.Read { fd = cfd; max = 512; nonblock = false }) with
        | S.Ok_data d -> d
        | _ -> ""
      in
      Api.sys_unit_exn t (S.Close { fd = cfd });
      let root_buf = Api.malloc_opaque t ~site:"ap_read_config:root" 4 in
      Api.write_bytes t root_buf doc_root;
      Api.store_field t conf "ap_conf_t" "workers" (servers * workers_per_server);
      Api.store_field t conf "ap_conf_t" "conn_buf_words"
        (Srvutil.config_int raw ~key:"ConnBufferWords" ~default:256);
      (* startup-time configuration tables (mime types, host maps, parsed
         directives): the bulk of a real server's state, initialized once
         and re-created by the new version's own startup — what soft-dirty
         tracking excludes from transfer *)
      let cfg_table = Api.malloc_opaque t ~site:"ap_read_config:cfg_table" 1024 in
      Api.store t (Api.global t "ap_cfg_table") cfg_table;
      Api.store_field t conf "ap_conf_t" "root" root_buf;
      (* module handler table: function pointers into the text section *)
      let handlers = Api.global t "ap_handlers" in
      List.iteri
        (fun i fname -> Api.store t (Mcr_vmem.Addr.add_words handlers i) (Api.func_ptr t fname))
        [ "ap_read_config"; "ap_pidfile_check"; "ap_worker_thread"; "ap_hold_worker" ];
      if step > 0 then Api.store t (Api.global t (Printf.sprintf "ap_stat_%d" step)) step);
  Api.fn t "ap_pidfile_check" (fun () ->
      (* detect a running instance: unprepared builds abort here when the
         pidfile holds another pid — the paper's 8-LOC preparation *)
      let pfd = Api.sys_fd_exn t (S.Open { path = pidfile; create = true }) in
      let content =
        match Api.sys t (S.Read { fd = pfd; max = 64; nonblock = false }) with
        | S.Ok_data d -> d
        | _ -> ""
      in
      let mypid =
        match Api.sys t S.Getpid with S.Ok_pid p -> string_of_int p | _ -> "?"
      in
      (* a non-empty pidfile means another (or a previous) instance: the
         unprepared build aborts — under MCR the old version is of course
         still running, so every unprepared update rolls back *)
      if content <> "" && not prepared then Api.exit t 1;
      if content = "" then ignore (Api.sys t (S.Write { fd = pfd; data = mypid }));
      Api.sys_unit_exn t (S.Close { fd = pfd }));
  let conf = Api.load t (Api.global t "ap_conf") in
  let sock = Api.sys_fd_exn t S.Socket in
  Api.sys_unit_exn t (S.Bind { fd = sock; port });
  Api.sys_unit_exn t (S.Listen { fd = sock; backlog = 256 });
  Api.store_field t conf "ap_conf_t" "listen_fd" sock;
  ignore (Api.pool t ~chunk_words:512 "ap_root_pool");
  (* short-lived startup helpers: daemonization and init tasks (Table 1's
     two short-lived thread classes for httpd) *)
  ignore (Api.sys t (S.Thread_create { entry = "ap_daemonize" }));
  ignore (Api.sys t (S.Thread_create { entry = "ap_init_task" }));
  for _ = 1 to servers do
    ignore (Api.sys t (S.Fork { entry = "ap_server" }))
  done;
  Api.loop t "ap_master" (fun () ->
      ignore
        (Api.blocking t ~qpoint:"ap_master"
           (S.Sem_wait { name = "ap.master.signal"; timeout_ns = None }));
      true)

(* re-create hold-handler threads for held connections after an update (the
   volatile quiescent points; httpd's largest control-migration annotation) *)
let respawn_hold_workers t =
  let held = Api.global t "ap_held_fds" in
  let claimed = Api.global t "ap_held_claimed" in
  for i = 0 to max_held - 1 do
    if Api.load t (Addr.add_words held i) <> 0 then begin
      Api.store t (Addr.add_words claimed i) 0;
      ignore (Api.sys t (S.Thread_create { entry = "ap_hold_worker" }))
    end
  done

(* ------------------------------------------------------------------ *)
(* Versions *)

let globals ~step =
  [
    ("ap_conf", Ty.Ptr (Ty.Named "ap_conf_t"));
    ("ap_scoreboard", Ty.Array (Ty.Int, 16));
    ("ap_next_slot", Ty.Int);
    ("ap_requests", Ty.Int);
    ("ap_vhost_head", Ty.Ptr (Ty.Named "ap_vhost_t"));
    ("ap_held_fds", Ty.Array (Ty.Int, max_held));
    ("ap_held_claimed", Ty.Array (Ty.Int, max_held));
    ("ap_held_bufs", Ty.Array (Ty.Void_ptr, max_held));
    (* access-log head stored as a pointer-sized integer: opaque, so the
       whole pool-resident log is found only by conservative scanning *)
    ("ap_log_head", Ty.Word);
    ("ap_handlers", Ty.Array (Ty.Func_ptr, 4));
    ("ap_cfg_table", Ty.Void_ptr);
  ]
  @ List.init step (fun i -> (Printf.sprintf "ap_stat_%d" (i + 1), Ty.Int))

let funcs ~step =
  [
    "main";
    "ap_read_config";
    "ap_pidfile_check";
    "ap_master";
    "ap_child_main";
    "ap_worker_thread";
    "ap_hold_worker";
    "ap_vhost_insert";
  ]
  @ List.concat
      (List.init step (fun i ->
           [ Printf.sprintf "ap_fix_%d" (i + 1); Printf.sprintf "ap_mod_%d" (i + 1) ]))

let strings = [ "httpd"; "GET"; "HOLD"; "200"; "400"; "404 not found"; doc_root; pidfile ]

let qpoints =
  [
    ("ap_master", "sem_wait");
    ("ap_child_wait", "sem_wait");
    ("ap_worker_accept", "accept");
    ("ap_hold_read", "read");
  ]

let helper_body name t =
  Api.fn t name @@ fun () -> ignore (Api.sys t (S.Nanosleep { ns = 1_000 }))

let version_of_step ?heap_words ~step ~final ~prepared ~tag () =
  let e = env ~final in
  Ty.env_add e "ap_hold_state_t" Ty.Int;
  P.make_version ~prog:"httpd" ~version_tag:tag ~layout_bias:(step * 1024) ?heap_words ~tyenv:e
    ~globals:(globals ~step) ~funcs:(funcs ~step) ~strings
    ~entries:
      [
        ("main", master_body ~prepared ~step);
        ("ap_server", server_body);
        ("ap_worker", worker_body);
        ("ap_hold_worker", hold_worker_body);
        ("ap_daemonize", helper_body "ap_daemonize");
        ("ap_init_task", helper_body "ap_init_task");
      ]
    ~qpoints
    ~annotations:
      [ P.Reinit_handler { name = "ap_respawn_hold_workers"; run = respawn_hold_workers } ]
    ()

let versions () =
  List.init (meta.Table_meta.num_updates + 1) (fun step ->
      let final = step = meta.Table_meta.num_updates in
      let tag =
        if step = 0 then "2.2.23" else if final then "2.3.8" else Printf.sprintf "2.2.23+u%d" step
      in
      version_of_step ~step ~final ~prepared:true ~tag ())

let base ?heap_words () =
  version_of_step ?heap_words ~step:0 ~final:false ~prepared:true ~tag:"2.2.23" ()

let final ?heap_words () =
  version_of_step ?heap_words ~step:meta.Table_meta.num_updates ~final:true ~prepared:true
    ~tag:"2.3.8" ()

let unprepared () =
  version_of_step ~step:meta.Table_meta.num_updates ~final:true ~prepared:false ~tag:"2.3.8-raw" ()
