module S = Mcr_simos.Sysdefs
module Ty = Mcr_types.Ty
module P = Mcr_program.Progdef
module Api = Mcr_program.Api
module Addr = Mcr_vmem.Addr

let port = 2222
let config_path = "/etc/sshd_config"
let max_sessions = 128

let meta = Table_meta.sshd

(* ------------------------------------------------------------------ *)
(* Types *)

let conf_t =
  Ty.Struct
    {
      sname = "ssh_conf_t";
      fields = [ ("listen_fd", Ty.Int); ("banner", Ty.Void_ptr); ("sess_buf_words", Ty.Int) ];
    }

let session_t ~final =
  let fields =
    [
      ("conn", Ty.Int);
      ("authed", Ty.Int);
      ("cmds", Ty.Int);
      ("user", Ty.Void_ptr);
      ("buf", Ty.Void_ptr);
    ]
    @ if final then [ ("uid", Ty.Int) ] else []
  in
  Ty.Struct { sname = "ssh_session_t"; fields }

let env ~final =
  let e = Ty.env_create () in
  Ty.env_add e "ssh_conf_t" conf_t;
  Ty.env_add e "ssh_session_t" (session_t ~final);
  e

(* ------------------------------------------------------------------ *)
(* Session process *)

let helper_body t =
  Api.fn t "ssh_exec_helper" @@ fun () ->
  (* the short-lived exec'ed helper: a bit of work, then exit *)
  Api.app_work t 1;
  ignore (Api.sys t (S.Nanosleep { ns = 10_000 }))

let session_body ~final t =
  Api.fn t "ssh_session_main" @@ fun () ->
  let conn = Api.load t (Api.global t "ssh_cur_conn") in
  let sess = Api.malloc t ~site:"ssh_session_main:session" "ssh_session_t" in
  Api.store t (Api.global t "ssh_session") sess;
  Api.store_field t sess "ssh_session_t" "conn" conn;
  (* per-session transfer ballast: an opaque packet buffer sized by the
     session_buffer_words directive (0 = none). Large sizes are
     page-segregated, so state transfer can remap them page-for-page.
     AUTH stores a template built once per size, a blit per page. *)
  let conf = Api.load t (Api.global t "ssh_conf") in
  let buf_words = Api.load_field t conf "ssh_conf_t" "sess_buf_words" in
  if buf_words > 0 then
    Api.store_field t sess "ssh_session_t" "buf"
      (Api.malloc_opaque t ~site:"ssh_session_main:buf" buf_words);
  Srvutil.reply t conn "SSH-2.0-mcr_sshd";
  Api.loop t "ssh_session_loop" (fun () ->
      match
        Api.blocking t ~qpoint:"ssh_session_read" (S.Read { fd = conn; max = 512; nonblock = false })
      with
      | S.Ok_data "" -> Api.exit t 0
      | S.Err S.EINTR -> true
      | S.Err _ -> Api.exit t 0
      | S.Ok_data cmdline -> begin
          Api.store_field t sess "ssh_session_t" "cmds"
            (Api.load_field t sess "ssh_session_t" "cmds" + 1);
          Api.app_work t 1;
          (match (Srvutil.command cmdline, Srvutil.arg cmdline) with
          | "AUTH", Some user ->
              (* authentication initialises the session's packet buffer:
                 the writes land after first quiesce, so its pages are
                 dirty and must travel with every state transfer (the
                 remap pass can share them frame-for-frame when congruent) *)
              if buf_words > 0 then
                Api.store_words t
                  (Api.load_field t sess "ssh_session_t" "buf")
                  (Srvutil.buffer_template 0x73_73_68 buf_words);
              (* privilege-separation helper: fork, let it run, reap it *)
              (match Api.sys t (S.Fork { entry = "ssh_exec_helper" }) with
              | S.Ok_pid pid -> ignore (Api.sys t (S.Waitpid { pid }))
              | _ -> ());
              let buf = Api.malloc_opaque t ~site:"ssh_auth:user" 4 in
              Api.write_bytes t buf user;
              Api.store_field t sess "ssh_session_t" "user" buf;
              (* type-unsafe idiom: a copy of the buffer pointer kept as a
                 plain integer — a likely pointer to data whose (absent)
                 type no update ever changes, so no annotation is needed *)
              Api.store t (Api.global t "ssh_sess_shadow") buf;
              Api.store_field t sess "ssh_session_t" "authed" 1;
              if final then Api.store_field t sess "ssh_session_t" "uid" 1000;
              Srvutil.reply t conn "auth-ok"
          | "RUN", Some cmd ->
              if Api.load_field t sess "ssh_session_t" "authed" = 1 then
                Srvutil.reply t conn
                  (Printf.sprintf "out:%s#%d" cmd
                     (Api.load_field t sess "ssh_session_t" "cmds"))
              else Srvutil.reply t conn "denied"
          | "EXIT", _ ->
              Srvutil.reply t conn "bye";
              ignore (Api.sys t (S.Close { fd = conn }));
              Api.exit t 0
          | _, _ -> Srvutil.reply t conn "unknown");
          true
        end
      | _ -> true)

(* ------------------------------------------------------------------ *)
(* Master *)

let master_body t =
  Api.fn t "main" @@ fun () ->
  Api.fn t "ssh_init" (fun () ->
      let conf = Api.malloc t ~site:"ssh_init:conf" "ssh_conf_t" in
      Api.store t (Api.global t "ssh_conf") conf;
      let cfd = Api.sys_fd_exn t (S.Open { path = config_path; create = false }) in
      let raw =
        match Api.sys t (S.Read { fd = cfd; max = 512; nonblock = false }) with
        | S.Ok_data d -> d
        | _ -> ""
      in
      Api.sys_unit_exn t (S.Close { fd = cfd });
      Api.store_field t conf "ssh_conf_t" "sess_buf_words"
        (Srvutil.config_int raw ~key:"session_buffer_words" ~default:0);
      let banner = Api.malloc_opaque t ~site:"ssh_init:banner" 4 in
      Api.write_bytes t banner "mcr_sshd";
      Api.store_field t conf "ssh_conf_t" "banner" banner;
      (* startup-time configuration tables (mime types, host maps, parsed
         directives): the bulk of a real server's state, initialized once
         and re-created by the new version's own startup — what soft-dirty
         tracking excludes from transfer *)
      let cfg_table = Api.malloc_opaque t ~site:"ssh_init:cfg_table" 1024 in
      Api.store t (Api.global t "ssh_cfg_table") cfg_table;
      (* a libcrypto context: program pointers into shared-library state *)
      let crypto_ctx = Api.lib_malloc t 32 in
      Api.store t (Api.global t "ssh_crypto_ctx") crypto_ctx;
      let sock = Api.sys_fd_exn t S.Socket in
      Api.sys_unit_exn t (S.Bind { fd = sock; port });
      Api.sys_unit_exn t (S.Listen { fd = sock; backlog = 256 });
      Api.store_field t conf "ssh_conf_t" "listen_fd" sock);
  let conf = Api.load t (Api.global t "ssh_conf") in
  let listen_fd = Api.load_field t conf "ssh_conf_t" "listen_fd" in
  Api.fn t "ssh_server_loop" @@ fun () ->
  Api.loop t "ssh_accept_loop" (fun () ->
      match
        Api.blocking t ~qpoint:"ssh_server_loop" (S.Accept { fd = listen_fd; nonblock = false })
      with
      | S.Ok_fd conn ->
          Api.store t (Api.global t "ssh_cur_conn") conn;
          ignore (Srvutil.array_add t ~global_arr:"ssh_sessions" ~capacity:max_sessions conn);
          ignore (Api.sys t (S.Fork { entry = "ssh_session" }));
          ignore (Api.sys t (S.Close { fd = conn }));
          true
      | _ -> true)

(* volatile-session control migration (OpenSSH's 49-LOC analog) *)
let respawn_sessions t =
  let is_master = match Api.sys t S.Getppid with S.Ok_pid 0 -> true | _ -> false in
  if is_master then begin
    let held = Srvutil.array_values t ~global_arr:"ssh_sessions" ~capacity:max_sessions in
    List.iter
      (fun conn ->
        Api.store t (Api.global t "ssh_cur_conn") conn;
        Api.masquerade t ~frames:[ "ssh_server_loop"; "main"; "main" ] (fun () ->
            ignore (Api.sys t (S.Fork { entry = "ssh_session" }))))
      held
  end

(* ------------------------------------------------------------------ *)
(* Versions *)

let globals ~step =
  [
    ("ssh_conf", Ty.Ptr (Ty.Named "ssh_conf_t"));
    ("ssh_sessions", Ty.Array (Ty.Int, max_sessions));
    ("ssh_cur_conn", Ty.Int);
    ("ssh_session", Ty.Ptr (Ty.Named "ssh_session_t"));
    ("ssh_sess_shadow", Ty.Word);
    ("ssh_cfg_table", Ty.Void_ptr);
    ("ssh_crypto_ctx", Ty.Void_ptr);
  ]
  @ List.init step (fun i -> (Printf.sprintf "ssh_stat_%d" (i + 1), Ty.Int))

let funcs ~step =
  [ "main"; "ssh_init"; "ssh_server_loop"; "ssh_session_main"; "ssh_auth"; "ssh_exec_helper" ]
  @ List.concat
      (List.init step (fun i ->
           [ Printf.sprintf "ssh_fix_%d" (i + 1); Printf.sprintf "ssh_cve_%d" (i + 1) ]))

let strings = [ "sshd"; "AUTH"; "RUN"; "EXIT"; "SSH-2.0-mcr_sshd" ]

let qpoints = [ ("ssh_server_loop", "accept"); ("ssh_session_read", "read") ]

let version_of_step ?heap_words ~step ~final ~tag () =
  P.make_version ~prog:"sshd" ~version_tag:tag ~layout_bias:(step * 1024) ?heap_words
    ~tyenv:(env ~final)
    ~globals:(globals ~step) ~funcs:(funcs ~step) ~strings
    ~entries:
      [
        ("main", master_body);
        ("ssh_session", session_body ~final);
        ("ssh_exec_helper", helper_body);
      ]
    ~qpoints
    ~annotations:[ P.Reinit_handler { name = "ssh_respawn_sessions"; run = respawn_sessions } ]
    ()

let versions () =
  List.init (meta.Table_meta.num_updates + 1) (fun step ->
      let final = step = meta.Table_meta.num_updates in
      let tag =
        if step = 0 then "3.5p1" else if final then "3.8p1" else Printf.sprintf "3.5p1+u%d" step
      in
      version_of_step ~step ~final ~tag ())

let base ?heap_words () = version_of_step ?heap_words ~step:0 ~final:false ~tag:"3.5p1" ()

let final ?heap_words () =
  version_of_step ?heap_words ~step:meta.Table_meta.num_updates ~final:true ~tag:"3.8p1" ()
