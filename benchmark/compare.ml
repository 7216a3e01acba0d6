(* [compare BASE NEW]: judge two sets of runs against the bounds in
   BENCHMARK.json.

   BASE and NEW are files of run records (benchmark/_out/runs.jsonl
   lines). For each workload present in both and each end-to-end metric,
   the values compared are the runs' medians when a side has at least
   three runs of the workload, and otherwise the repetition samples inside
   its runs. A metric regresses when NEW's median is worse than BASE's by
   more than its bound. When BASE's own spread (quartile distance over the
   median) is wider than the bound, the metric is "unresolved" rather than
   unchanged — unless every NEW value beats every BASE value. Each cell
   gives the ratio NEW/BASE together with the base it is taken of. Returns
   the exit code: 1 if any metric regressed, 2 if an input is unusable. *)

module Stats = Mcr_util.Stats

type bound = { name : string; unit : string; lower_is_better : bool; bound : float }

let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> really_input_string ic (in_channel_length ic))

let load_bounds path =
  let j = match Jsonv.parse (read_file path) with Ok j -> j | Error e -> failwith (path ^ ": " ^ e) in
  Option.value ~default:[] (Jsonv.list_field "end_to_end" j)
  |> List.filter_map (fun m ->
         match
           ( Jsonv.str_field "name" m,
             Jsonv.str_field "unit" m,
             Jsonv.str_field "better" m,
             Jsonv.float_field "bound" m )
         with
         | Some name, Some unit, Some better, Some bound ->
             Some { name; unit; lower_is_better = better = "lower"; bound }
         | _ -> None)

(* workload -> list of runs, each run a list of (metric, (value, samples)) *)
let load_runs path =
  String.split_on_char '\n' (read_file path)
  |> List.filter (fun l -> String.trim l <> "")
  |> List.filter_map (fun line ->
         match Jsonv.parse line with
         | Error e ->
             Printf.eprintf "compare: %s: skipping a line: %s\n" path e;
             None
         | Ok r -> (
             match (Jsonv.str_field "workload" r, Jsonv.member "metrics" r) with
             | Some w, Some (Jsonv.Obj ms) ->
                 let metric (name, m) =
                   match Jsonv.float_field "value" m with
                   | Some v ->
                       let samples =
                         Option.value ~default:[] (Jsonv.list_field "samples" m)
                         |> List.filter_map Jsonv.to_float
                       in
                       Some (name, (v, if samples = [] then [ v ] else samples))
                   | None -> None
                 in
                 Some (w, List.filter_map metric ms)
             | _ -> None))

let values runs name =
  let present = List.filter_map (List.assoc_opt name) runs in
  if List.length present >= 3 then List.map fst present else List.concat_map snd present

let judge b base next =
  let bm = Stats.median base and nm = Stats.median next in
  let spread = (Stats.percentile 75. base -. Stats.percentile 25. base) /. bm in
  let ratio = nm /. bm in
  let worse = if b.lower_is_better then ratio > 1. +. b.bound else ratio < 1. -. b.bound in
  let gained = if b.lower_is_better then ratio < 1. -. b.bound else ratio > 1. +. b.bound in
  let fold f = List.fold_left f in
  let all_better =
    if b.lower_is_better then fold max neg_infinity next < fold min infinity base
    else fold min infinity next > fold max neg_infinity base
  in
  let verdict =
    if spread > b.bound then if all_better then "better" else "unresolved"
    else if worse then "REGRESSED"
    else if gained then "better"
    else "ok"
  in
  (Printf.sprintf "%s %.3fx of %.4g %s %s" b.name ratio bm b.unit verdict, verdict = "REGRESSED")

let run ~bench ~base ~next =
  match (load_bounds bench, load_runs base, load_runs next) with
  | exception (Sys_error e | Failure e) ->
      Printf.printf "compare: %s\n" e;
      2
  | [], _, _ ->
      Printf.printf "compare: %s lists no end-to-end metric\n" bench;
      2
  | bounds, base_runs, next_runs ->
      let workloads =
        List.sort_uniq compare (List.map fst base_runs @ List.map fst next_runs)
      in
      let regressions = ref 0 in
      List.iter
        (fun w ->
          let runs side = List.filter_map (fun (w', r) -> if w' = w then Some r else None) side in
          let b = runs base_runs and n = runs next_runs in
          if b = [] || n = [] then
            Printf.printf "%-18s only in %s\n" w (if b = [] then next else base)
          else
            let cells =
              List.map
                (fun bd ->
                  match (values b bd.name, values n bd.name) with
                  | [], _ | _, [] -> bd.name ^ " n/a"
                  | bv, nv ->
                      let cell, regressed = judge bd bv nv in
                      if regressed then incr regressions;
                      cell)
                bounds
            in
            Printf.printf "%-18s %s\n" w (String.concat " | " cells))
        workloads;
      if !regressions > 0 then begin
        Printf.printf "compare: %d regression(s) beyond their bounds\n" !regressions;
        1
      end
      else 0
