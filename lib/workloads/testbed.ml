module K = Mcr_simos.Kernel
module Manager = Mcr_core.Manager
module P = Mcr_program.Progdef
module Nginx = Mcr_servers.Nginx_sim
module Httpd = Mcr_servers.Httpd_sim
module Vsftpd = Mcr_servers.Vsftpd_sim
module Sshd = Mcr_servers.Sshd_sim

type server = Nginx | Httpd | Vsftpd | Sshd

let all = [ Httpd; Nginx; Vsftpd; Sshd ]

let name = function
  | Nginx -> "nginx"
  | Httpd -> "Apache httpd"
  | Vsftpd -> "vsftpd"
  | Sshd -> "OpenSSH"

let port = function
  | Nginx -> Nginx.port
  | Httpd -> Httpd.port
  | Vsftpd -> Vsftpd.port
  | Sshd -> Sshd.port

let base_version = function
  | Nginx -> Nginx.base ()
  | Httpd -> Httpd.base ()
  | Vsftpd -> Vsftpd.base ()
  | Sshd -> Sshd.base ()

let final_version = function
  | Nginx -> Nginx.final ()
  | Httpd -> Httpd.final ()
  | Vsftpd -> Vsftpd.final ()
  | Sshd -> Sshd.final ()

let version_series = function
  | Nginx -> Nginx.versions ()
  | Httpd -> Httpd.versions ()
  | Vsftpd -> Vsftpd.versions ()
  | Sshd -> Sshd.versions ()

let meta = function
  | Nginx -> Nginx.meta
  | Httpd -> Httpd.meta
  | Vsftpd -> Vsftpd.meta
  | Sshd -> Sshd.meta

let html_1k = String.concat "" (List.init 16 (fun _ -> String.make 63 'x' ^ "\n"))
let mb_1 = String.make (1 lsl 20) 'd'

let prepare_fs ?config kernel server =
  let conf default = Option.value config ~default in
  match server with
  | Nginx ->
      K.fs_write kernel ~path:"/etc/nginx.conf" (conf "worker_processes 1;");
      K.fs_write kernel ~path:"/www/index.html" html_1k;
      K.fs_write kernel ~path:"/www/big.bin" mb_1
  | Httpd ->
      K.fs_write kernel ~path:"/etc/httpd.conf" (conf "ServerLimit 2\nThreadsPerChild 2");
      K.fs_write kernel ~path:"/www/index.html" html_1k;
      K.fs_write kernel ~path:"/www/big.bin" mb_1
  | Vsftpd ->
      K.fs_write kernel ~path:"/etc/vsftpd.conf" (conf "anonymous_enable=NO");
      K.fs_write kernel ~path:(Vsftpd.ftp_root ^ "/big.bin") mb_1
  | Sshd -> K.fs_write kernel ~path:"/etc/sshd_config" (conf "PermitRootLogin no")

let expected_procs = function
  | Nginx -> 2 (* master + worker *)
  | Httpd -> 1 + Httpd.servers
  | Vsftpd | Sshd -> 1

let launch ?instr ?profiler ?version ?trace ?config kernel server =
  prepare_fs ?config kernel server;
  let version = Option.value version ~default:(base_version server) in
  let m = Manager.launch kernel ?instr ?profiler ?trace version in
  (* With quiescence instrumentation on, startup completion is observable;
     baseline/profiling runs just advance time until the tree settles. *)
  ignore
    (K.run_until kernel
       ~max_ns:(K.clock_ns kernel + 5_000_000_000)
       (fun () -> P.Tree.count (Manager.root_image m).P.i_tree >= expected_procs server));
  ignore (K.run_until kernel ~max_ns:(K.clock_ns kernel + 200_000_000) (fun () -> false));
  m

let benchmark kernel server ?(scale = 100) () =
  match server with
  | Nginx ->
      Http_bench.run kernel ~port:Nginx.port ~requests:(max 1 (100_000 / scale))
        ~path:"/index.html" ()
  | Httpd ->
      Http_bench.run kernel ~port:Httpd.port ~requests:(max 1 (100_000 / scale))
        ~path:"/index.html" ()
  | Vsftpd ->
      Ftp_bench.run kernel ~port:Vsftpd.port ~users:(max 1 (100 / max 1 (scale / 25)))
        ~file:"big.bin" ()
  | Sshd -> Ssh_bench.run kernel ~port:Sshd.port ~sessions:8 ~commands:4 ()

let open_holders kernel server ~n =
  let h =
    match server with
    | Nginx -> Holders.open_http kernel ~port:Nginx.port ~n
    | Httpd -> Holders.open_http kernel ~port:Httpd.port ~n
    | Vsftpd -> Holders.open_ftp kernel ~port:Vsftpd.port ~n
    | Sshd -> Holders.open_ssh kernel ~port:Sshd.port ~n
  in
  ignore (Client.drive kernel (fun () -> Holders.connected h >= n));
  (* client-side connects land in the backlog; give the server time to
     accept and register every held connection *)
  K.run_for kernel 100_000_000;
  h

let profiling_workload kernel server =
  let transient = open_holders kernel server ~n:2 in
  let persistent = open_holders kernel server ~n:2 in
  (match server with
  | Nginx -> ignore (Http_bench.run kernel ~port:Nginx.port ~requests:3 ~path:"/big.bin" ())
  | Httpd -> ignore (Http_bench.run kernel ~port:Httpd.port ~requests:3 ~path:"/big.bin" ())
  | Vsftpd ->
      ignore (Ftp_bench.run kernel ~port:Vsftpd.port ~users:2 ~file:"big.bin" ())
  | Sshd -> ignore (Ssh_bench.run kernel ~port:Sshd.port ~sessions:2 ~commands:2 ()));
  (* closing one group resumes (and thereby profiles) the blocked handler
     threads/processes; the other group keeps those classes long-lived *)
  Holders.close_all transient;
  ignore (Client.drive kernel (fun () -> Holders.all_done transient));
  persistent
