(* The repository benchmark. Run it through benchmark/run.sh from the root
   of a source tree:

     bash benchmark/run.sh --workload NAME [--seed N] [--seconds S] [--trace 0|1]
     bash benchmark/run.sh compare BASE.jsonl NEW.jsonl

   A run repeats the workload, each repetition in a fresh process and one
   at a time, until [--seconds] have passed (and at least [distinct_seeds]
   times). Host-clock metrics are medians over all repetitions.
   Repetition [i] drives its arrival stream from sub-seed [i mod
   distinct_seeds], so the virtual-clock metrics are medians over that many
   seeded streams, and every later repetition must reproduce its
   sub-seed's virtual metrics exactly.

   The last line of standard output is one JSON object: [correct],
   [attempted], [failed] and [metrics] — the end-to-end metrics, or with
   [--trace 1] the per-layer ones. A traced run adds one repetition with
   host-clock spans around every call into a layer and the program's own
   virtual-clock spans on, writes their Chrome traces and prints the self
   time per layer. Every run appends a record with all repetition samples
   to benchmark/_out/runs.jsonl, the input of [compare]. Exits 1 when a
   correctness check fails. *)

module Stats = Mcr_util.Stats

let out_dir = Filename.concat "benchmark" "_out"
let runs_file = Filename.concat out_dir "runs.jsonl"
let distinct_seeds = 5
let sub_seed seed j = (seed * 1000) + j

let unit_of name =
  let ends s = String.ends_with ~suffix:s name in
  if ends "_per_s" then "MB/s"
  else if ends "_per_proc" then "us"
  else if ends "_ms" then "ms"
  else if ends "_ns" then "ns"
  else if ends "_s" then "s"
  else if ends "_mb" || ends ".mb" then "MB"
  else if ends "_mw" then "Mwords"
  else if ends "_frac" || ends "_ratio" || ends "_reuse" then "ratio"
  else if ends "words" then "words"
  else "count"

(* ------------------------------------------------------------------ *)
(* Repetitions: each one a fresh process running [rep]. *)

let spawn_rep ~workload ~seed ~traced =
  let args =
    [| Sys.executable_name; "rep"; workload; string_of_int seed; (if traced then "1" else "0") |]
  in
  let ic = Unix.open_process_args_in Sys.executable_name args in
  let sample =
    match (Marshal.from_channel ic : Workload.sample) with
    | s -> Some s
    | exception (End_of_file | Failure _) -> None
  in
  match (Unix.close_process_in ic, sample) with
  | Unix.WEXITED 0, Some s -> Ok s
  | Unix.WEXITED n, _ -> Error (Printf.sprintf "exited with code %d" n)
  | (Unix.WSIGNALED n | Unix.WSTOPPED n), _ -> Error (Printf.sprintf "killed by signal %d" n)

(* The child: marshal the sample onto the original stdout, and send
   anything else the libraries print to stderr. *)
let rep workload seed traced =
  let result = Unix.dup Unix.stdout in
  Unix.dup2 Unix.stderr Unix.stdout;
  let s = Workload.run_rep workload ~seed ~traced ~out_dir in
  let oc = Unix.out_channel_of_descr result in
  Marshal.to_channel oc s [];
  close_out oc

(* ------------------------------------------------------------------ *)

let median xs = Stats.median xs
let quartiles xs = (Stats.percentile 25. xs, Stats.percentile 75. xs)

type metric = { name : string; unit : string; value : float; samples : float list }

let metric name samples =
  { name; unit = unit_of name; value = median samples; samples }

let record_json ~workload ~seed ~trace ~reps ~correct metrics =
  Jsonv.Obj
    [ ("workload", Jsonv.Str workload);
      ("seed", Jsonv.Int seed);
      ("trace", Jsonv.Int (if trace then 1 else 0));
      ("reps", Jsonv.Int reps);
      ("correct", Jsonv.Bool correct);
      ( "metrics",
        Jsonv.Obj
          (List.map
             (fun m ->
               ( m.name,
                 Jsonv.Obj
                   [ ("value", Jsonv.Num m.value);
                     ("unit", Jsonv.Str m.unit);
                     ("samples", Jsonv.List (List.map (fun v -> Jsonv.Num v) m.samples)) ] ))
             metrics) ) ]

let result_json ~correct ~attempted ~failed metrics =
  Jsonv.Obj
    [ ("correct", Jsonv.Bool correct);
      ("attempted", Jsonv.Int attempted);
      ("failed", Jsonv.Int failed);
      ( "metrics",
        Jsonv.Obj
          (List.map
             (fun m -> (m.name, Jsonv.Obj [ ("value", Jsonv.Num m.value); ("unit", Jsonv.Str m.unit) ]))
             metrics) ) ]

let print_table title metrics =
  Printf.printf "\n%-30s %14s %-7s %14s %14s %5s\n" title "median" "unit" "q1" "q3" "n";
  List.iter
    (fun m ->
      let q1, q3 = quartiles m.samples in
      Printf.printf "%-30s %14.6g %-7s %14.6g %14.6g %5d\n" m.name m.value m.unit q1 q3
        (List.length m.samples))
    metrics

let print_self_time (s : Workload.sample) =
  Printf.printf "\n%-12s %8s %12s %12s %14s\n" "layer" "calls" "self ms" "total ms" "minor Mwords";
  List.iter
    (fun (layer, calls, self_ns, total_ns, words) ->
      Printf.printf "%-12s %8d %12.3f %12.3f %14.3f\n" layer calls
        (float_of_int self_ns /. 1e6) (float_of_int total_ns /. 1e6) (words /. 1e6))
    s.Workload.self_time

let run ~workload ~seed ~seconds ~trace =
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
  let start = Span.now_ns () in
  let elapsed () = float_of_int (Span.now_ns () - start) /. 1e9 in
  let violations = ref [] in
  let violate fmt = Printf.ksprintf (fun m -> violations := m :: !violations) fmt in
  let reps = ref [] and crashed = ref 0 in
  let i = ref 0 in
  while !i < distinct_seeds || elapsed () < float_of_int seconds do
    let j = !i mod distinct_seeds in
    (match spawn_rep ~workload ~seed:(sub_seed seed j) ~traced:false with
    | Ok s -> reps := (!i, s) :: !reps
    | Error e ->
        incr crashed;
        violate "repetition %d %s" !i e);
    incr i
  done;
  let reps = List.rev !reps in
  let samples = List.map snd reps in
  List.iter
    (fun (i, (s : Workload.sample)) ->
      List.iter (fun v -> violate "repetition %d: %s" i v) s.Workload.violations)
    reps;
  (* one repetition per sub-seed gives the virtual metrics; the later
     ones must repeat them exactly *)
  let first = List.filter (fun (i, _) -> i < distinct_seeds) reps in
  List.iter
    (fun (i, (s : Workload.sample)) ->
      match List.assoc_opt (i mod distinct_seeds) first with
      | Some f when f.Workload.virt <> s.Workload.virt ->
          violate "repetition %d: virtual metrics differ from repetition %d's" i
            (i mod distinct_seeds)
      | _ -> ())
    reps;
  let traced =
    if not trace then None
    else
      match spawn_rep ~workload ~seed:(sub_seed seed 0) ~traced:true with
      | Error e ->
          incr crashed;
          violate "traced repetition %s" e;
          None
      | Ok s ->
          List.iter (fun v -> violate "traced repetition: %s" v) s.Workload.violations;
          (match List.assoc_opt 0 first with
          | Some f when f.Workload.virt <> s.Workload.virt ->
              violate "traced repetition: virtual metrics differ from the untraced run's"
          | _ -> ());
          Some s
  in
  let all_samples = samples @ Option.to_list traced in
  let attempted = List.fold_left (fun a (s : Workload.sample) -> a + s.Workload.attempted) 0 all_samples in
  let failed =
    !crashed + List.fold_left (fun a (s : Workload.sample) -> a + s.Workload.failed) 0 all_samples
  in
  let correct = !violations = [] && samples <> [] in
  let host f = List.map f samples in
  let e2e =
    match first with
    | [] -> []
    | (_, f) :: _ ->
        [ metric "setup_s" (host (fun s -> s.Workload.setup_s));
          metric "wall_s" (host (fun s -> s.Workload.wall_s));
          metric "peak_rss_mb" (host (fun s -> s.Workload.peak_rss_mb)) ]
        @ List.map
            (fun (name, _) ->
              metric name (List.map (fun (_, s) -> List.assoc name s.Workload.virt) first))
            f.Workload.virt
  in
  let layers =
    match (samples, traced) with
    | s0 :: _, Some t ->
        let wall = median (host (fun s -> s.Workload.wall_s)) in
        List.map
          (fun (name, _) ->
            if List.mem name Workload.traced_only then
              metric name [ List.assoc name t.Workload.layers ]
            else metric name (host (fun s -> List.assoc name s.Workload.layers)))
          s0.Workload.layers
        @ [ metric "obs.trace_overhead_frac" [ (t.Workload.wall_s /. wall) -. 1. ] ]
    | _ -> []
  in
  Printf.printf "== %s: seed %d, %d repetition(s)%s, %.1f s ==\n" workload seed
    (List.length samples) (if trace then " + 1 traced" else "") (elapsed ());
  print_table "end-to-end" e2e;
  (match samples with
  | s :: _ ->
      let n = List.assoc "workloads.latency_samples" s.Workload.layers in
      Printf.printf
        "client percentiles: %.0f samples per stream (%.0f beyond p50, %.0f beyond p99, %.0f \
         beyond p99.9)\n"
        n (n /. 2.) (n /. 100.) (n /. 1000.)
  | [] -> ());
  (match traced with
  | Some t ->
      print_table "per-layer" layers;
      Printf.printf "\nself time per layer, traced repetition (host clock):";
      print_self_time t;
      List.iter (Printf.printf "trace: %s\n") t.Workload.files
  | None -> ());
  List.iter (Printf.printf "!! %s\n") (List.rev !violations);
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 runs_file in
  output_string oc
    (Jsonv.to_string (record_json ~workload ~seed ~trace ~reps:(List.length samples) ~correct (e2e @ layers)));
  output_char oc '\n';
  close_out oc;
  print_endline
    (Jsonv.to_string (result_json ~correct ~attempted ~failed (if trace then layers else e2e)));
  if not correct then exit 1

(* ------------------------------------------------------------------ *)

let usage () =
  prerr_endline
    "usage: main.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]\n\
    \       main.exe compare BASE.jsonl NEW.jsonl\n\
     workloads: ";
  prerr_endline ("  " ^ String.concat ", " Workload.names);
  exit 2

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [ "rep"; workload; seed; traced ] -> rep workload (int_of_string seed) (traced = "1")
  | [ "compare"; base; next ] -> exit (Compare.run ~bench:"BENCHMARK.json" ~base ~next)
  | args ->
      let rec parse (w, seed, secs, trace) = function
        | "--workload" :: v :: rest -> parse (Some v, seed, secs, trace) rest
        | "--seed" :: v :: rest -> parse (w, int_of_string v, secs, trace) rest
        | "--seconds" :: v :: rest -> parse (w, seed, int_of_string v, trace) rest
        | "--trace" :: ("0" | "1" as v) :: rest -> parse (w, seed, secs, v = "1") rest
        | [] -> (w, seed, secs, trace)
        | _ -> usage ()
      in
      match parse (None, 11, 20, false) args with
      | Some workload, seed, seconds, trace when List.mem workload Workload.names ->
          run ~workload ~seed ~seconds ~trace
      | _ -> usage ()
      | exception Failure _ -> usage ()
