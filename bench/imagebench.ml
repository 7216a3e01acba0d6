(* The image experiment: persistent-checkpoint cost versus state size
   across the four servers. Each cell loads a server with the paper
   benchmark at a given scale, saves a checkpoint image to disk, reads it
   back and restores it into a brand-new kernel, measuring:

   - image_bytes: encoded on-disk size (sections + hashes + trailer)
   - words / regions / procs: how much state the image carries
   - save_quiesce_ns: virtual time the save spent reaching the quiescent
     point (the only downtime a live save costs the server)
   - restore_settle_ns: virtual time the fresh kernel spent launching and
     settling before the instant install

   Hard assertions (exit 1 on violation): the round-trip is lossless
   (read-back fingerprint and re-encoded bytes identical) and the
   restored instance answers the same benchmark with zero errors.

   $MCR_IMAGE_JSON: write every cell as JSON (the committed
   BENCH_image.json baseline is this file from a smoke run, and [family]
   lets `bench check` re-measure every cell against it).

   $MCR_IMAGE_DIR: keep the .mcrimg files in that directory (one per
   cell) instead of deleting them — CI uploads these as artifacts. *)

module K = Mcr_simos.Kernel
module Manager = Mcr_core.Manager
module Policy = Mcr_core.Policy
module Image = Mcr_image.Image
module Testbed = Mcr_workloads.Testbed
module Bench_result = Mcr_workloads.Bench_result
module Timetravel = Mcr_workloads.Timetravel
module C = Bench_cell

let fms = C.fms

type scenario = { server : Testbed.server; scale : int }

let smoke_scenarios =
  [
    { server = Testbed.Nginx; scale = 4_000 };
    { server = Testbed.Httpd; scale = 4_000 };
  ]

let full_scenarios =
  List.concat_map
    (fun server -> [ { server; scale = 4_000 }; { server; scale = 1_000 } ])
    Testbed.all

let label sc = Printf.sprintf "%s scale=%d" (Testbed.name sc.server) sc.scale

type cell = {
  image_bytes : int;
  words : int;
  regions : int;
  procs : int;
  save_quiesce_ns : int;
  restore_settle_ns : int;
}

let fail sc fmt =
  Printf.ksprintf
    (fun msg ->
      Printf.printf "!! %s: %s\n" (label sc) msg;
      exit 1)
    fmt

let image_path sc =
  let file =
    Printf.sprintf "image_%s_s%d.mcrimg"
      (String.map (fun c -> if c = ' ' then '-' else c) (Testbed.name sc.server))
      sc.scale
  in
  match Sys.getenv_opt "MCR_IMAGE_DIR" with
  | Some dir ->
      C.ensure_dir dir;
      (Filename.concat dir file, false)
  | None -> (Filename.concat (Filename.get_temp_dir_name ()) file, true)

let measure sc =
  let kernel = K.create () in
  let m = Testbed.launch kernel sc.server in
  ignore (Testbed.benchmark kernel sc.server ~scale:sc.scale ());
  let path, ephemeral = image_path sc in
  let t0 = K.clock_ns kernel in
  let img =
    match Manager.save_image m ~path with
    | Ok img -> img
    | Error e -> fail sc "save: %s" e
  in
  let save_quiesce_ns = K.clock_ns kernel - t0 in
  let on_disk =
    match Image.read ~path with
    | Ok on_disk -> on_disk
    | Error e -> fail sc "read back: %s" (Image.error_to_string e)
  in
  (* determinism: decode of the on-disk bytes re-encodes byte-identically *)
  if Image.encode on_disk <> Image.encode img then
    fail sc "file round-trip is not byte-identical";
  if Image.fingerprint on_disk <> Image.fingerprint img then
    fail sc "fingerprint lost in the file round-trip";
  let k2, m2 =
    match Timetravel.restore on_disk with
    | Ok (k2, m2, _report) -> (k2, m2)
    | Error e -> fail sc "restore: %s" e
  in
  let restore_settle_ns = K.clock_ns k2 in
  let fp =
    Image.aspace_fingerprint ~prog:(Image.prog on_disk)
      (K.aspace (Manager.root_proc m2))
  in
  if fp <> Image.fingerprint on_disk then
    fail sc "restored fingerprint %d differs from the image's %d" fp
      (Image.fingerprint on_disk);
  let r = Testbed.benchmark k2 sc.server ~scale:sc.scale () in
  if r.Bench_result.errors <> 0 then
    fail sc "restored instance answered %d request(s) with errors"
      r.Bench_result.errors;
  let image_bytes = String.length (Image.encode img) in
  if ephemeral then Sys.remove path;
  {
    image_bytes;
    words = Image.total_words img;
    regions = Image.region_count img;
    procs = Image.proc_count img;
    save_quiesce_ns;
    restore_settle_ns;
  }

(* ------------------------------------------------------------------ *)
(* The cell: a scenario's server and scale, then what its image carried
   and cost. The gate fails when the image grows or its save/restore
   virtual time regresses past the tolerance, or when it carries fewer
   processes. *)

let image =
  C.spec ~sweep:"image"
    ~key:(fun cell ->
      let ( let* ) = Result.bind in
      let* server = C.server_key cell in
      let* scale = C.int_key "scale" cell in
      Ok { server; scale })
    ~label ~measure:(List.map measure)
    ~row:(fun sc c ->
      [
        C.server sc.server;
        ("scale", `Int sc.scale);
        ("image_bytes", `Int c.image_bytes);
        ("words", `Int c.words);
        ("regions", `Int c.regions);
        ("procs", `Int c.procs);
        ("save_quiesce_ns", `Int c.save_quiesce_ns);
        ("restore_settle_ns", `Int c.restore_settle_ns);
      ])
    [
      C.metric ~what:"image bytes" "image_bytes" C.Ceiling_pct C.Count;
      C.metric ~what:"procs" "procs" C.At_least C.Count;
      C.metric ~what:"save quiesce" "save_quiesce_ns" C.Ceiling_pct C.Ms;
      C.metric ~what:"restore settle" "restore_settle_ns" C.Ceiling_pct C.Ms;
    ]

let family = { C.family = "image"; sweeps = [ C.Sweep image ]; finish = ignore }

let run ?(smoke = false) () =
  let scenarios = if smoke then smoke_scenarios else full_scenarios in
  Printf.printf "\n== image%s: checkpoint save/restore cost vs state size ==\n"
    (if smoke then " (smoke)" else "");
  Printf.printf "%-14s %6s %10s %9s %8s %6s %10s %11s\n" "server" "scale" "bytes"
    "words" "regions" "procs" "save(ms)" "settle(ms)";
  let json = ref [] in
  List.iter
    (fun sc ->
      let c = measure sc in
      json := C.line image sc c :: !json;
      Printf.printf "%-14s %6d %10d %9d %8d %6d %10s %11s\n" (Testbed.name sc.server)
        sc.scale c.image_bytes c.words c.regions c.procs (fms c.save_quiesce_ns)
        (fms c.restore_settle_ns))
    scenarios;
  C.write_cells ~family:"image" ~env:"MCR_IMAGE_JSON" (List.rev !json);
  Printf.printf
    "\nimage: %d scenario(s) ok — every save round-tripped byte-identically and every \
     restored instance served cleanly\n"
    (List.length scenarios)
