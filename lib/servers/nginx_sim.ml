module S = Mcr_simos.Sysdefs
module Ty = Mcr_types.Ty
module P = Mcr_program.Progdef
module Api = Mcr_program.Api
module Addr = Mcr_vmem.Addr

let port = 8081
let doc_root = "/www"
let config_path = "/etc/nginx.conf"
let max_conns = 128

let meta = Table_meta.nginx

(* ------------------------------------------------------------------ *)
(* Types. [step] indexes the update series; cumulative structural changes
   make consecutive versions differ the way upstream point releases do. *)

let connection_t =
  Ty.Struct
    {
      sname = "ngx_connection_t";
      fields =
        [
          ("fd", Ty.Int);
          ("state", Ty.Int);
          ("bytes_sent", Ty.Int);
          (* the pointer-encoding idiom: request pointer with flag bits in
             the low 2 bits; Encoded_ptr is the paper's 22-LOC annotation *)
          ("request", Ty.Encoded_ptr { target = Ty.Named "ngx_request_t"; mask = 3 });
        ];
    }

let request_t ~step =
  let extra =
    (* every 5th update extends the request structure *)
    List.init (step / 5) (fun i -> (Printf.sprintf "r%d" ((i + 1) * 5), Ty.Int))
  in
  Ty.Struct
    { sname = "ngx_request_t"; fields = [ ("uri", Ty.Void_ptr); ("resp_len", Ty.Int) ] @ extra }

let cache_entry_t ~final =
  let fields =
    [ ("key", Ty.Int); ("hits", Ty.Int); ("next", Ty.Ptr (Ty.Named "ngx_cache_entry_t")) ]
    @ (if final then [ ("ttl", Ty.Int) ] else [])
  in
  Ty.Struct { sname = "ngx_cache_entry_t"; fields }

let conf_t =
  Ty.Struct
    {
      sname = "ngx_conf_t";
      fields =
        [
          ("workers", Ty.Int);
          ("listen_fd", Ty.Int);
          ("conn_buf_words", Ty.Int);
          ("root", Ty.Void_ptr);
        ];
    }

let env ~step ~final =
  let e = Ty.env_create () in
  Ty.env_add e "ngx_conf_t" conf_t;
  Ty.env_add e "ngx_connection_t" connection_t;
  Ty.env_add e "ngx_request_t" (request_t ~step);
  Ty.env_add e "ngx_cache_entry_t" (cache_entry_t ~final);
  e

(* ------------------------------------------------------------------ *)
(* Worker: the single event loop *)

let handle_get t conn path =
  (* per-request header/ctx objects from the cycle pool: cheap bumps when
     uninstrumented, tag-maintaining when region instrumentation is on *)
  let pool = Api.find_pool t "ngx_cycle_pool" in
  for _ = 1 to 24 do
    ignore (Api.palloc t pool ~site:"ngx_http_header:hdr" "ngx_request_t")
  done;
  let full = if String.length path > 0 && path.[0] = '/' then doc_root ^ path else path in
  let body =
    match Api.sys t (S.Open { path = full; create = false }) with
    | S.Ok_fd fd ->
        let data =
          match Api.sys t (S.Read { fd = fd; max = 65536; nonblock = false }) with
          | S.Ok_data d -> d
          | _ -> ""
        in
        ignore (Api.sys t (S.Close { fd }));
        data
    | _ -> "404 not found"
  in
  (* response cache on the instrumented heap: precise, relocatable state *)
  let key = Hashtbl.hash path land 0xFFFFFF in
  let head_addr = Api.global t "ngx_cache_head" in
  let rec lookup addr =
    if addr = 0 then None
    else if Api.load_field t addr "ngx_cache_entry_t" "key" = key then Some addr
    else lookup (Api.load_field t addr "ngx_cache_entry_t" "next")
  in
  (match lookup (Api.load t head_addr) with
  | Some entry ->
      Api.store_field t entry "ngx_cache_entry_t" "hits"
        (Api.load_field t entry "ngx_cache_entry_t" "hits" + 1)
  | None ->
      let entry = Api.malloc t ~site:"ngx_cache_insert:entry" "ngx_cache_entry_t" in
      Api.store_field t entry "ngx_cache_entry_t" "key" key;
      Api.store_field t entry "ngx_cache_entry_t" "hits" 1;
      Api.store_field t entry "ngx_cache_entry_t" "next" (Api.load t head_addr);
      Api.store t head_addr entry);
  Api.app_work t 1;
  Api.store t (Api.global t "ngx_requests") (Api.load t (Api.global t "ngx_requests") + 1);
  Api.store t (Api.global t "ngx_bytes")
    (Api.load t (Api.global t "ngx_bytes") + String.length body);
  let n = Api.load t (Api.global t "ngx_requests") in
  Srvutil.reply t conn (Srvutil.ok_reply n body)

let conn_slot t fd =
  let i = Srvutil.find_slot t (Api.global t "ngx_conn_fds") ~capacity:max_conns (fun v -> v = fd) in
  if i < 0 then None else Some i

let accept_connection t pool listen_fd =
  match Api.sys t (S.Accept { fd = listen_fd; nonblock = true }) with
  | S.Ok_fd conn_fd ->
      (* connection and request objects live in the region pool:
         uninstrumented by default, tagged under nginxreg *)
      let conn = Api.palloc t pool ~site:"ngx_event_accept:conn" "ngx_connection_t" in
      let req = Api.palloc t pool ~site:"ngx_event_accept:req" "ngx_request_t" in
      Api.store_field t conn "ngx_connection_t" "fd" conn_fd;
      Api.store_field t conn "ngx_connection_t" "state" 0;
      Api.store_field t conn "ngx_connection_t" "request" (req lor 1);
      (* the request's uri field initially points at an interned literal:
         pool-resident pointers into static strings (Table 2's dominant
         likely-pointer targets) *)
      Api.store t req (Api.string_lit t "GET");
      let fds = Api.global t "ngx_conn_fds" in
      let free = Srvutil.find_slot t fds ~capacity:max_conns (fun v -> v = 0) in
      if free >= 0 then begin
        Api.store t (Addr.add_words fds free) conn_fd;
        Api.store t (Addr.add_words (Api.global t "ngx_conn_ptrs") free) conn
      end;
      (* the encoded head pointer idiom at global scope too *)
      Api.store t (Api.global t "ngx_head_enc") (conn lor 2);
      (* per-connection read buffer on the instrumented heap: connection
         state that state transfer must move (Figure 3 growth); sized by
         the conn_buffer_words config directive *)
      let conf = Api.load t (Api.global t "ngx_conf") in
      let buf_words =
        let n = Api.load_field t conf "ngx_conf_t" "conn_buf_words" in
        if n <= 0 then 64 else n
      in
      let buf = Api.malloc_opaque t ~site:"ngx_event_accept:buf" buf_words in
      (match conn_slot t conn_fd with
      | Some slot -> Api.store t (Addr.add_words (Api.global t "ngx_conn_bufs") slot) buf
      | None -> Api.free t buf)
  | _ -> ()

let drop_connection t slot =
  let fds = Api.global t "ngx_conn_fds" in
  let ptrs = Api.global t "ngx_conn_ptrs" in
  let bufs = Api.global t "ngx_conn_bufs" in
  let fd = Api.load t (Addr.add_words fds slot) in
  ignore (Api.sys t (S.Close { fd }));
  Api.store t (Addr.add_words fds slot) 0;
  Api.store t (Addr.add_words ptrs slot) 0;
  let buf = Api.load t (Addr.add_words bufs slot) in
  if buf <> 0 then begin
    Api.free t buf;
    Api.store t (Addr.add_words bufs slot) 0
  end

let handle_readable t slab slot =
  let fds = Api.global t "ngx_conn_fds" in
  let fd = Api.load t (Addr.add_words fds slot) in
  match Api.sys t (S.Read { fd; max = 4096; nonblock = true }) with
  | S.Ok_data "" -> drop_connection t slot
  | S.Ok_data req -> begin
      (* churn the shared slab: a token per request, freeing the previous
         one — leaves free-list links in reusable memory *)
      let tok = Api.slab_alloc t slab in
      Api.store t tok (Api.load t (Api.global t "ngx_requests"));
      let prev = Api.load t (Api.global t "ngx_slab_prev") in
      if prev <> 0 then Api.slab_free t slab prev;
      Api.store t (Api.global t "ngx_slab_prev") tok;
      match Srvutil.parse_get req with
      | Some path ->
          handle_get t fd path;
          drop_connection t slot
      | None ->
          if Srvutil.command req = "HOLD" then begin
            let ptrs = Api.global t "ngx_conn_ptrs" in
            let conn = Api.load t (Addr.add_words ptrs slot) in
            if conn <> 0 then Api.store_field t conn "ngx_connection_t" "state" 1
          end
          else begin
            Srvutil.reply t fd "400";
            drop_connection t slot
          end
    end
  | _ -> ()

let worker_body t =
  Api.fn t "ngx_worker_process" @@ fun () ->
  let pool = Api.find_pool t "ngx_cycle_pool" in
  let slab = Api.find_slab t "ngx_shm" in
  let conf = Api.load t (Api.global t "ngx_conf") in
  let listen_fd = Api.load_field t conf "ngx_conf_t" "listen_fd" in
  Api.loop t "ngx_worker_cycle" (fun () ->
      let conn_fds = Srvutil.array_values t ~global_arr:"ngx_conn_fds" ~capacity:max_conns in
      let ready =
        Api.fn t "ngx_process_events" (fun () ->
            Api.blocking t ~qpoint:"ngx_process_events"
              (S.Poll { fds = listen_fd :: conn_fds; timeout_ns = None; nonblock = false }))
      in
      (match ready with
      | S.Ok_ready fds ->
          List.iter
            (fun fd ->
              if fd = listen_fd then accept_connection t pool listen_fd
              else
                match conn_slot t fd with
                | Some slot -> handle_readable t slab slot
                | None -> ())
            fds
      | _ -> ());
      true)

(* ------------------------------------------------------------------ *)
(* Master *)

let master_body ?(workers = 1) ~step t =
  Api.fn t "main" @@ fun () ->
  Api.fn t "ngx_init_cycle" (fun () ->
      let conf = Api.malloc t ~site:"ngx_init_cycle:conf" "ngx_conf_t" in
      Api.store t (Api.global t "ngx_conf") conf;
      let cfd = Api.sys_fd_exn t (S.Open { path = config_path; create = false }) in
      let raw =
        match Api.sys t (S.Read { fd = cfd; max = 512; nonblock = false }) with
        | S.Ok_data d -> d
        | _ -> ""
      in
      Api.sys_unit_exn t (S.Close { fd = cfd });
      let root_buf = Api.malloc_opaque t ~site:"ngx_init_cycle:root" 4 in
      Api.write_bytes t root_buf doc_root;
      Api.store_field t conf "ngx_conf_t" "workers" 1;
      Api.store_field t conf "ngx_conf_t" "conn_buf_words"
        (Srvutil.config_int raw ~key:"conn_buffer_words" ~default:64);
      (* startup-time configuration tables (mime types, host maps, parsed
         directives): the bulk of a real server's state, initialized once
         and re-created by the new version's own startup — what soft-dirty
         tracking excludes from transfer *)
      let cfg_table = Api.malloc_opaque t ~site:"ngx_init_cycle:cfg_table" 8192 in
      Api.store t (Api.global t "ngx_cfg_table") cfg_table;
      Api.store_field t conf "ngx_conf_t" "root" root_buf;
      (* exercise the per-step added functions so the series' diffs are
         "real": later versions touch their stats globals *)
      if step > 0 then begin
        match Mcr_types.Symtab.lookup_opt t.P.image.P.i_symtab (Printf.sprintf "ngx_stat_%d" ((step + 1) / 2)) with
        | Some e -> Api.store t e.Mcr_types.Symtab.addr step
        | None -> ()
      end;
      (* a compiled-regex context from an uninstrumented shared library
         (libpcre): a program pointer into library state (Table 2's
         "Targ lib" column) *)
      let regex_ctx = Api.lib_malloc t 16 in
      Api.store t (Api.global t "ngx_regex_ctx") regex_ctx;
      let sock = Api.sys_fd_exn t S.Socket in
      Api.sys_unit_exn t (S.Bind { fd = sock; port });
      Api.sys_unit_exn t (S.Listen { fd = sock; backlog = 256 });
      Api.store_field t conf "ngx_conf_t" "listen_fd" sock;
      ignore (Api.pool t ~chunk_words:512 "ngx_cycle_pool");
      ignore (Api.slab t "ngx_shm" ~slot_words:2 ~slots_per_chunk:32);
      let handlers = Api.global t "ngx_handlers" in
      List.iteri
        (fun i fname -> Api.store t (Addr.add_words handlers i) (Api.func_ptr t fname))
        [ "ngx_init_cycle"; "ngx_worker_process"; "ngx_process_events"; "ngx_event_accept" ]);
  (* short-lived helper thread (the daemonization class in Table 1) *)
  ignore (Api.sys t (S.Thread_create { entry = "ngx_init_helper" }));
  for _ = 1 to workers do
    ignore (Api.sys t (S.Fork { entry = "ngx_worker" }))
  done;
  Api.loop t "ngx_master_cycle" (fun () ->
      ignore
        (Api.blocking t ~qpoint:"ngx_master_cycle"
           (S.Sem_wait { name = "ngx.master.signal"; timeout_ns = None }));
      true)

let helper_body t =
  Api.fn t "ngx_init_helper" @@ fun () ->
  ignore (Api.sys t (S.Nanosleep { ns = 1_000 }))

(* ------------------------------------------------------------------ *)
(* The version series *)

let globals ~step =
  [
    ("ngx_conf", Ty.Ptr (Ty.Named "ngx_conf_t"));
    ("ngx_conn_fds", Ty.Array (Ty.Int, max_conns));
    ("ngx_conn_ptrs", Ty.Array (Ty.Ptr (Ty.Named "ngx_connection_t"), max_conns));
    ("ngx_conn_bufs", Ty.Array (Ty.Void_ptr, max_conns));
    ("ngx_cache_head", Ty.Ptr (Ty.Named "ngx_cache_entry_t"));
    ("ngx_requests", Ty.Int);
    ("ngx_bytes", Ty.Word);
    ("ngx_slab_prev", Ty.Word);
    ("ngx_head_enc", Ty.Encoded_ptr { target = Ty.Named "ngx_connection_t"; mask = 3 });
    ("ngx_handlers", Ty.Array (Ty.Func_ptr, 4));
    ("ngx_cfg_table", Ty.Void_ptr);
    ("ngx_regex_ctx", Ty.Void_ptr);
  ]
  (* every 2nd update adds a stats global *)
  @ List.init (step / 2) (fun i -> (Printf.sprintf "ngx_stat_%d" (i + 1), Ty.Int))

let funcs ~step =
  [
    "main";
    "ngx_init_cycle";
    "ngx_master_cycle";
    "ngx_worker_process";
    "ngx_process_events";
    "ngx_event_accept";
    "ngx_cache_insert";
  ]
  (* each update adds a couple of functions *)
  @ List.concat
      (List.init step (fun i ->
           [ Printf.sprintf "ngx_fix_%d" (i + 1); Printf.sprintf "ngx_helper_%d" (i + 1) ]))

let strings = [ "nginx"; "GET"; "HOLD"; "200"; "400"; "404 not found"; doc_root ]

let qpoints = [ ("ngx_master_cycle", "sem_wait"); ("ngx_process_events", "poll") ]

(* Manual state-transfer code (the paper's "ST LOC" for nginx, which uses
   slabs): tokens handed out by the old version's uninstrumented slab live
   in pinned memory the new slab does not own, so the cross-version
   free-list reference must be dropped after transfer. *)
let reset_slab_refs t = Api.store t (Api.global t "ngx_slab_prev") 0

let version_of_step ?workers ?heap_words ~step ~final ~tag () =
  P.make_version ~prog:"nginx" ~version_tag:tag ~layout_bias:(step * 1024) ?heap_words
    ~tyenv:(env ~step ~final) ~globals:(globals ~step) ~funcs:(funcs ~step) ~strings
    ~entries:
      [
        ("main", master_body ?workers ~step);
        ("ngx_worker", worker_body);
        ("ngx_init_helper", helper_body);
      ]
    ~qpoints
    ~annotations:[ P.Reinit_handler { name = "ngx_reset_slab_refs"; run = reset_slab_refs } ]
    ()

let versions () =
  List.init (meta.Table_meta.num_updates + 1) (fun step ->
      let final = step = meta.Table_meta.num_updates in
      let tag = if step = 0 then "0.8.54" else if final then "1.0.15" else Printf.sprintf "0.8.54+u%d" step in
      version_of_step ~step ~final ~tag ())

let base ?heap_words () = version_of_step ?heap_words ~step:0 ~final:false ~tag:"0.8.54" ()

(* a nondeterministic-process-model update (Section 7): the new version
   forks a different number of workers than the recorded startup *)
let final_with_workers n =
  version_of_step ~workers:n ~step:meta.Table_meta.num_updates ~final:true ~tag:"1.0.15" ()

let final ?heap_words () =
  version_of_step ?heap_words ~step:meta.Table_meta.num_updates ~final:true ~tag:"1.0.15" ()
