module S = Mcr_simos.Sysdefs
module Ty = Mcr_types.Ty
module P = Mcr_program.Progdef
module Api = Mcr_program.Api
module Addr = Mcr_vmem.Addr

let port = 2121
let ftp_root = "/srv/ftp"
let config_path = "/etc/vsftpd.conf"
let max_sessions = 128

let meta = Table_meta.vsftpd

(* ------------------------------------------------------------------ *)
(* Types *)

let conf_t =
  Ty.Struct
    {
      sname = "vsf_conf_t";
      fields = [ ("listen_fd", Ty.Int); ("root", Ty.Void_ptr); ("sess_buf_words", Ty.Int) ];
    }

let session_t ~final =
  let fields =
    [
      ("conn", Ty.Int);
      ("state", Ty.Int);
      ("cmds", Ty.Int);
      ("user", Ty.Void_ptr);
      ("buf", Ty.Void_ptr);
    ]
    @ if final then [ ("bytes_sent", Ty.Int) ] else []
  in
  Ty.Struct { sname = "vsf_session_t"; fields }

let env ~final =
  let e = Ty.env_create () in
  Ty.env_add e "vsf_conf_t" conf_t;
  Ty.env_add e "vsf_session_t" (session_t ~final);
  e

(* ------------------------------------------------------------------ *)
(* Session process (one per control connection) *)

let session_body ~final t =
  Api.fn t "vsf_session_main" @@ fun () ->
  let conn = Api.load t (Api.global t "vsf_cur_conn") in
  let sess = Api.malloc t ~site:"vsf_session_main:session" "vsf_session_t" in
  Api.store t (Api.global t "vsf_session") sess;
  Api.store_field t sess "vsf_session_t" "conn" conn;
  (* per-session transfer ballast: an opaque command/data buffer sized by
     the session_buffer_words directive (0 = none). Large sizes are
     page-segregated, so state transfer can remap them page-for-page.
     USER stores a template built once per size, a blit per page. *)
  let conf = Api.load t (Api.global t "vsf_conf") in
  let buf_words = Api.load_field t conf "vsf_conf_t" "sess_buf_words" in
  if buf_words > 0 then
    Api.store_field t sess "vsf_session_t" "buf"
      (Api.malloc_opaque t ~site:"vsf_session_main:buf" buf_words);
  Srvutil.reply t conn "220 vsftpd ready";
  let bump () =
    Api.store_field t sess "vsf_session_t" "cmds"
      (Api.load_field t sess "vsf_session_t" "cmds" + 1)
  in
  Api.loop t "vsf_session_loop" (fun () ->
      match
        Api.blocking t ~qpoint:"vsf_session_read" (S.Read { fd = conn; max = 512; nonblock = false })
      with
      | S.Ok_data "" -> Api.exit t 0
      | S.Err S.EINTR -> true
      | S.Err _ -> Api.exit t 0
      | S.Ok_data cmdline -> begin
          bump ();
          Api.app_work t 1;
          (match (Srvutil.command cmdline, Srvutil.arg cmdline) with
          | "USER", Some u ->
              (* login initialises the session's command/data buffer: the
                 writes land after first quiesce, so its pages are dirty
                 and must travel with every state transfer (the remap
                 pass can share them frame-for-frame when congruent) *)
              if buf_words > 0 then
                Api.store_words t
                  (Api.load_field t sess "vsf_session_t" "buf")
                  (Srvutil.buffer_template 0x76_73_66 buf_words);
              let buf = Api.malloc_opaque t ~site:"vsf_user:name" 4 in
              Api.write_bytes t buf u;
              Api.store_field t sess "vsf_session_t" "user" buf;
              (* type-unsafe idiom: a copy of the buffer pointer kept as a
                 plain integer — a likely pointer to data whose (absent)
                 type no update ever changes, so no annotation is needed *)
              Api.store t (Api.global t "vsf_sess_shadow") buf;
              Api.store_field t sess "vsf_session_t" "state" 1;
              Srvutil.reply t conn "331 password please"
          | "PASS", _ ->
              if Api.load_field t sess "vsf_session_t" "state" >= 1 then begin
                Api.store_field t sess "vsf_session_t" "state" 2;
                Srvutil.reply t conn "230 logged in"
              end
              else Srvutil.reply t conn "503 login first"
          | "RETR", Some path ->
              if Api.load_field t sess "vsf_session_t" "state" < 2 then
                Srvutil.reply t conn "530 not logged in"
              else begin
                let full = ftp_root ^ "/" ^ path in
                match Api.sys t (S.Open { path = full; create = false }) with
                | S.Ok_fd fd ->
                    (* stream the file in 64 KB chunks: each chunk moves
                       through a transient heap buffer and a (potentially
                       unblockified) write — the real transfer loop shape *)
                    Srvutil.reply t conn "150 ";
                    let rec stream total =
                      match Api.sys t (S.Read { fd; max = 1 lsl 16; nonblock = false }) with
                      | S.Ok_data "" -> total
                      | S.Ok_data chunk ->
                          let buf = Api.malloc_opaque t ~site:"vsf_retr:buf" 16 in
                          (* the data write is wrapped (unblockified) but is
                             deliberately NOT a quiescent point: a thread
                             parked mid-transfer has no equivalent restart
                             state in the new version (Section 7's
                             mismatched-quiescent-state caveat), so
                             quiescence drains active transfers instead *)
                          ignore
                            (Api.blocking t ~qpoint:"vsf_data_write"
                               (S.Write { fd = conn; data = chunk }));
                          Api.free t buf;
                          stream (total + String.length chunk)
                      | _ -> total
                    in
                    let sent = stream 0 in
                    ignore (Api.sys t (S.Close { fd }));
                    if final then
                      Api.store_field t sess "vsf_session_t" "bytes_sent"
                        (Api.load_field t sess "vsf_session_t" "bytes_sent" + sent);
                    Srvutil.reply t conn "226 done"
                | _ -> Srvutil.reply t conn "550 no such file"
              end
          | "STAT", _ ->
              Srvutil.reply t conn
                (Printf.sprintf "211 cmds=%d state=%d"
                   (Api.load_field t sess "vsf_session_t" "cmds")
                   (Api.load_field t sess "vsf_session_t" "state"))
          | "QUIT", _ ->
              Srvutil.reply t conn "221 bye";
              ignore (Api.sys t (S.Close { fd = conn }));
              Api.exit t 0
          | _, _ -> Srvutil.reply t conn "500 unknown command");
          true
        end
      | _ -> true)

(* ------------------------------------------------------------------ *)
(* Master ("standalone") process *)

let fork_session t conn =
  Api.store t (Api.global t "vsf_cur_conn") conn;
  ignore (Srvutil.array_add t ~global_arr:"vsf_sessions" ~capacity:max_sessions conn);
  Api.store t (Api.global t "vsf_total_sessions")
    (Api.load t (Api.global t "vsf_total_sessions") + 1);
  ignore (Api.sys t (S.Fork { entry = "vsf_session" }));
  (* parent closes its copy of the connection *)
  ignore (Api.sys t (S.Close { fd = conn }))

let master_body t =
  Api.fn t "main" @@ fun () ->
  Api.fn t "vsf_init" (fun () ->
      let conf = Api.malloc t ~site:"vsf_init:conf" "vsf_conf_t" in
      Api.store t (Api.global t "vsf_conf") conf;
      let cfd = Api.sys_fd_exn t (S.Open { path = config_path; create = false }) in
      let raw =
        match Api.sys t (S.Read { fd = cfd; max = 512; nonblock = false }) with
        | S.Ok_data d -> d
        | _ -> ""
      in
      Api.sys_unit_exn t (S.Close { fd = cfd });
      Api.store_field t conf "vsf_conf_t" "sess_buf_words"
        (Srvutil.config_int raw ~key:"session_buffer_words" ~default:0);
      let root_buf = Api.malloc_opaque t ~site:"vsf_init:root" 4 in
      Api.write_bytes t root_buf ftp_root;
      Api.store_field t conf "vsf_conf_t" "root" root_buf;
      (* startup-time configuration tables (mime types, host maps, parsed
         directives): the bulk of a real server's state, initialized once
         and re-created by the new version's own startup — what soft-dirty
         tracking excludes from transfer *)
      let cfg_table = Api.malloc_opaque t ~site:"vsf_init:cfg_table" 1024 in
      Api.store t (Api.global t "vsf_cfg_table") cfg_table;
      let sock = Api.sys_fd_exn t S.Socket in
      Api.sys_unit_exn t (S.Bind { fd = sock; port });
      Api.sys_unit_exn t (S.Listen { fd = sock; backlog = 256 });
      Api.store_field t conf "vsf_conf_t" "listen_fd" sock);
  let conf = Api.load t (Api.global t "vsf_conf") in
  let listen_fd = Api.load_field t conf "vsf_conf_t" "listen_fd" in
  Api.fn t "vsf_standalone_main" @@ fun () ->
  Api.loop t "vsf_accept_loop" (fun () ->
      match
        Api.blocking t ~qpoint:"vsf_standalone_main"
          (S.Accept { fd = listen_fd; nonblock = false })
      with
      | S.Ok_fd conn ->
          fork_session t conn;
          true
      | _ -> true)

(* Control migration for the volatile per-session quiescent points: after an
   update, re-fork a session process for every control connection in the
   table, at the original fork site's call-stack identity (the paper's 82
   LOC for vsftpd). *)
let respawn_sessions t =
  let is_master = match Api.sys t S.Getppid with S.Ok_pid 0 -> true | _ -> false in
  if is_master then begin
    let held = Srvutil.array_values t ~global_arr:"vsf_sessions" ~capacity:max_sessions in
    List.iter
      (fun conn ->
        Api.store t (Api.global t "vsf_cur_conn") conn;
        Api.masquerade t ~frames:[ "vsf_standalone_main"; "main"; "main" ] (fun () ->
            ignore (Api.sys t (S.Fork { entry = "vsf_session" }))))
      held
  end

(* ------------------------------------------------------------------ *)
(* Versions *)

let globals ~step =
  [
    ("vsf_conf", Ty.Ptr (Ty.Named "vsf_conf_t"));
    ("vsf_sessions", Ty.Array (Ty.Int, max_sessions));
    ("vsf_cur_conn", Ty.Int);
    ("vsf_total_sessions", Ty.Int);
    ("vsf_session", Ty.Ptr (Ty.Named "vsf_session_t"));
    ("vsf_sess_shadow", Ty.Word);
    ("vsf_cfg_table", Ty.Void_ptr);
  ]
  @ List.init step (fun i -> (Printf.sprintf "vsf_stat_%d" (i + 1), Ty.Int))

let funcs ~step =
  [ "main"; "vsf_init"; "vsf_standalone_main"; "vsf_session_main"; "vsf_user" ]
  @ List.concat
      (List.init step (fun i ->
           [ Printf.sprintf "vsf_fix_%d" (i + 1); Printf.sprintf "vsf_sec_%d" (i + 1) ]))

let strings = [ "vsftpd"; "USER"; "PASS"; "RETR"; "STAT"; "QUIT"; ftp_root ]

let qpoints = [ ("vsf_standalone_main", "accept"); ("vsf_session_read", "read") ]

let version_of_step ?heap_words ~step ~final ~tag () =
  P.make_version ~prog:"vsftpd" ~version_tag:tag ~layout_bias:(step * 1024) ?heap_words
    ~tyenv:(env ~final) ~globals:(globals ~step) ~funcs:(funcs ~step) ~strings
    ~entries:[ ("main", master_body); ("vsf_session", session_body ~final) ]
    ~qpoints
    ~annotations:[ P.Reinit_handler { name = "vsf_respawn_sessions"; run = respawn_sessions } ]
    ()

let versions () =
  List.init (meta.Table_meta.num_updates + 1) (fun step ->
      let final = step = meta.Table_meta.num_updates in
      let tag =
        if step = 0 then "1.1.0" else if final then "2.0.2" else Printf.sprintf "1.1.0+u%d" step
      in
      version_of_step ~step ~final ~tag ())

let base ?heap_words () = version_of_step ?heap_words ~step:0 ~final:false ~tag:"1.1.0" ()

let final ?heap_words () =
  version_of_step ?heap_words ~step:meta.Table_meta.num_updates ~final:true ~tag:"2.0.2" ()
