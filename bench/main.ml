(* The benchmark harness: regenerates every table and figure of the paper
   (see DESIGN.md section 4 for the experiment index).

   Usage:
     dune exec bench/main.exe            # everything
     dune exec bench/main.exe -- table3  # one experiment
   Experiments: table1 table2 table3 fig3 quiescence control-migration
                update-time memory spec dirty-reduction ablation micro
                fault-matrix downtime fleet image (the last four accept
                --smoke: reduced deterministic subset; downtime also
                accepts --workers N,N,... for the transfer worker-pool
                sweep)
   Some micro cases:
     dune exec bench/main.exe -- micro:clone  # the cases whose name contains "clone"
   Regression gate:
     dune exec bench/main.exe -- check --against BENCH_downtime.json \
       --against BENCH_fleet.json --tolerance 15%
   --against is repeatable. Every cell's "sweep" field picks its family
   from the table below (downtime, fleet, image, latency); each cell is
   re-measured and each metric field gated under its rule (see
   bench_cell.ml). Exit 0 when every gate holds, 1 when any regresses,
   and 2 when a baseline is malformed: unreadable, zero cells, an
   unknown sweep, a key that does not parse or a missing metric field.
   Every baseline is validated before anything is measured. *)

let smoke = ref false
let workers = ref [ 1; 2; 4; 8 ]

let experiments =
  [
    ("table1", fun () -> Experiments.table1 ());
    ("table2", fun () -> Experiments.table2 ());
    ("table3", fun () -> Experiments.table3 ());
    ("fig3", fun () -> ignore (Experiments.fig3 ()));
    ("quiescence", fun () -> Experiments.quiescence ());
    ("control-migration", fun () -> Experiments.control_migration ());
    ("update-time", fun () -> Experiments.update_time ());
    ("memory", fun () -> Experiments.memory ());
    ("cpu", fun () -> Experiments.cpu ());
    ("spec", fun () -> Experiments.spec ());
    ("dirty-reduction", fun () -> Experiments.dirty_reduction ());
    ("ablation", fun () -> Experiments.ablation ());
    ("micro", fun () -> ignore (Micro.run ()));
    ("fault-matrix", fun () -> Faultbench.run ~smoke:!smoke ());
    ("downtime", fun () -> Downtime.run ~smoke:!smoke ~workers:!workers ());
    ("fleet", fun () -> Fleetbench.run ~smoke:!smoke ());
    ("image", fun () -> Imagebench.run ~smoke:!smoke ());
    ("latency", fun () -> Latencybench.run ~smoke:!smoke ());
  ]

let usage () =
  print_endline "usage: main.exe [experiment...]";
  print_endline "experiments:";
  List.iter (fun (name, _) -> print_endline ("  " ^ name)) experiments;
  print_endline "  micro:<substring> (the micro cases whose name contains it)";
  print_endline "  all (default)";
  print_endline "  check [--against <baseline.json>]... --tolerance <pct>%"

let against = ref []
let tolerance_pct = ref 15

let parse_tolerance s =
  let s = String.trim s in
  let s =
    if String.length s > 0 && s.[String.length s - 1] = '%' then
      String.sub s 0 (String.length s - 1)
    else s
  in
  match int_of_string_opt s with
  | Some n when n >= 0 -> n
  | _ ->
      Printf.printf "bad --tolerance %S (want e.g. 15%%)\n" s;
      exit 1

let parse_workers s =
  match
    List.map
      (fun w -> match int_of_string_opt (String.trim w) with Some n when n >= 1 -> n | _ -> raise Exit)
      (String.split_on_char ',' s)
  with
  | ws -> ws
  | exception Exit ->
      Printf.printf "bad --workers list %S (want e.g. 1,4)\n" s;
      exit 1

let families = [ Downtime.family; Fleetbench.family; Imagebench.family; Latencybench.family ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  smoke := List.mem "--smoke" args;
  let args = List.filter (fun a -> a <> "--smoke") args in
  let rec strip_workers = function
    | "--workers" :: spec :: rest ->
        workers := parse_workers spec;
        strip_workers rest
    | "--against" :: path :: rest ->
        against := path :: !against;
        strip_workers rest
    | "--tolerance" :: spec :: rest ->
        tolerance_pct := parse_tolerance spec;
        strip_workers rest
    | a :: rest -> a :: strip_workers rest
    | [] -> []
  in
  let args = strip_workers args in
  match args with
  | [ "check" ] ->
      let baselines =
        List.map (Bench_cell.load families)
          (match List.rev !against with [] -> [ "BENCH_downtime.json" ] | l -> l)
      in
      let code =
        List.fold_left
          (fun code b -> max code (Bench_cell.check ~tolerance_pct:!tolerance_pct b))
          0 baselines
      in
      if code <> 0 then exit code
  | [] | [ "all" ] ->
      print_endline "MCR reproduction harness: all experiments";
      List.iter (fun (_, f) -> f ()) experiments
  | [ "help" ] | [ "--help" ] -> usage ()
  | names ->
      List.iter
        (fun name ->
          match List.assoc_opt name experiments with
          | Some f -> f ()
          | None when String.starts_with ~prefix:"micro:" name ->
              let only = String.sub name 6 (String.length name - 6) in
              if not (Micro.run ~only ()) then begin
                Printf.printf "no micro case matches %S\n" only;
                exit 1
              end
          | None ->
              Printf.printf "unknown experiment %S\n" name;
              usage ();
              exit 1)
        names
