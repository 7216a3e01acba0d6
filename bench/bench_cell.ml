(* Bench cells and the regression gate, shared by the four families that
   commit a BENCH_*.json baseline: downtime, fleet, image and latency.

   A cell is one JSON object on one line: a "sweep" name, the key fields
   that say what to run, and the fields the run measured. Each family
   declares its sweeps as specs. A spec says how to read a cell's key, how
   to measure a list of keys (the run and the gate call the same point
   functions), which row the run emits, and which metric fields the gate
   compares, each under one rule.

   [load] reads a baseline and validates every cell before anything is
   measured; [check] re-measures every cell and gates each metric field.
   Exit codes: 0 every gate holds, 1 a gate regressed, 2 the baseline is
   unreadable or malformed (no cells, an unknown sweep, a key that does
   not parse, a declared metric field missing). *)

module Json = Mcr_obs.Json
module Testbed = Mcr_workloads.Testbed

let fms ns = Printf.sprintf "%.1f" (float_of_int ns /. 1e6)

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let data = really_input_string ic n in
  close_in ic;
  data

let server_of_name name = List.find_opt (fun s -> Testbed.name s = name) Testbed.all
let ensure_dir dir = if not (Sys.file_exists dir) then Sys.mkdir dir 0o755

(* Write [data] to [dir/name], creating [dir] if it is missing; returns
   the path written. *)
let write_file ~dir name data =
  ensure_dir dir;
  let path = Filename.concat dir name in
  let oc = open_out_bin path in
  output_string oc data;
  close_out oc;
  path

(* ------------------------------------------------------------------ *)
(* Cells *)

type value = [ `Int of int | `Bool of bool | `Str of string | `Null ]

let opt = function Some n -> `Int n | None -> `Null
let server s = ("server", `Str (Testbed.name s))

let value_json : value -> string = function
  | `Int n -> string_of_int n
  | `Bool b -> string_of_bool b
  | `Str s -> Printf.sprintf "%S" s
  | `Null -> "null"

type rule =
  | Ceiling_pct  (** measured <= b + b * tol / 100 *)
  | Floor_pct  (** measured >= b * (100 - min 100 tol) / 100 *)
  | At_most  (** measured <= b *)
  | At_least  (** measured >= b *)
  | Same  (** measured = b *)

(* How a metric prints in a gate line; [Flag] metrics are booleans, the
   rest integers. *)
type shown = Ms | Words | Count | Permille | Flag

type metric = { field : string; what : string; rule : rule; shown : shown }

let metric ?(what = "") field rule shown = { field; what; rule; shown }

type ('k, 'm) spec = {
  sweep : string;
  key : Json.t -> ('k, string) result;
  label : 'k -> string;
  measure : 'k list -> 'm list;  (* one measurement per key, in key order *)
  row : 'k -> 'm -> (string * value) list;  (* the cell's fields after "sweep" *)
  metrics : metric list;  (* gated fields; each is also a field of [row] *)
  audit : 'k -> 'm -> int;  (* violations the gate adds on top of the metrics *)
}

let spec ?(audit = fun _ _ -> 0) ~sweep ~key ~label ~measure ~row metrics =
  { sweep; key; label; measure; row; metrics; audit }

type sweep = Sweep : ('k, 'm) spec -> sweep

type family = {
  family : string;
  sweeps : sweep list;
  finish : unit -> unit;  (* after the last gate of a check *)
}

(* One cell as its baseline line. *)
let line spec k m =
  let fields = ("sweep", `Str spec.sweep) :: spec.row k m in
  "    {"
  ^ String.concat ", "
      (List.map (fun (k, v) -> Printf.sprintf "%S: %s" k (value_json v)) fields)
  ^ "}"

(* When [$env] names a file, write the lines there as a JSON array. *)
let write_cells ~family ~env lines =
  Option.iter
    (fun path ->
      ignore
        (write_file ~dir:(Filename.dirname path) (Filename.basename path)
           ("[\n" ^ String.concat ",\n" lines ^ "\n]\n"));
      Printf.printf "%s: wrote %s\n" family path)
    (Sys.getenv_opt env)

(* ------------------------------------------------------------------ *)
(* Key fields *)

let ( let* ) = Result.bind

let field get kind k cell =
  Option.to_result ~none:(Printf.sprintf "missing or non-%s %S" kind k) (get k cell)

let int_key = field Json.int_field "integer"
let bool_key = field Json.bool_field "boolean"

(* A string field that must name one of a fixed set of values. *)
let enum_key k of_string cell =
  let* s = field Json.str_field "string" k cell in
  Option.to_result ~none:(Printf.sprintf "unknown %s %S" k s) (of_string s)

let server_key = enum_key "server" server_of_name

(* ------------------------------------------------------------------ *)
(* Baselines and the gate *)

type group = Group : ('k, 'm) spec * ('k * value list) list -> group

type baseline = { path : string; of_family : family; cells : int; groups : group list }

let baseline_value m cell : value option =
  match (m.shown, Json.member m.field cell) with
  | Flag, Some (Json.Bool b) -> Some (`Bool b)
  | (Ms | Words | Count | Permille), Some (Json.Int n) -> Some (`Int n)
  | _ -> None

let load families path =
  let bad fmt =
    Printf.ksprintf
      (fun msg ->
        Printf.printf "check: %s: %s\n" path msg;
        exit 2)
      fmt
  in
  let data =
    try read_file path
    with Sys_error e ->
      Printf.printf "check: %s\n" e;
      exit 2
  in
  let cells =
    match Json.parse data with
    | Error e -> bad "%s" e
    | Ok j -> (
        match Json.to_list j with
        | Some [] -> bad "zero cells"
        | Some l -> List.mapi (fun i c -> (i, c)) l
        | None -> bad "expected a JSON array of cells")
  in
  let sweep_of (i, cell) =
    match Json.str_field "sweep" cell with
    | None -> bad "cell %d: missing or non-string \"sweep\"" i
    | Some name -> (
        match
          List.find_map
            (fun f ->
              List.find_map
                (fun (Sweep s as sw) -> if s.sweep = name then Some (f, sw) else None)
                f.sweeps)
            families
        with
        | Some found -> found
        | None -> bad "cell %d: unknown sweep %S" i name)
  in
  let swept = List.map (fun c -> (c, sweep_of c)) cells in
  let of_family = fst (snd (List.hd swept)) in
  List.iter
    (fun ((i, _), (f, Sweep s)) ->
      if f.family <> of_family.family then
        bad "cell %d: %s sweep %S in a %s baseline" i f.family s.sweep of_family.family)
    swept;
  let group (Sweep s) =
    let validate ((i, cell), _) =
      let k = match s.key cell with Ok k -> k | Error e -> bad "cell %d: %s" i e in
      let baseline m =
        match baseline_value m cell with
        | Some v -> v
        | None -> bad "cell %d: missing or mistyped metric %S" i m.field
      in
      (k, List.map baseline s.metrics)
    in
    match List.filter (fun (_, (_, Sweep t)) -> t.sweep = s.sweep) swept with
    | [] -> None
    | mine -> Some (Group (s, List.map validate mine))
  in
  let groups = List.filter_map group of_family.sweeps in
  { path; of_family; cells = List.length cells; groups }

let passes ~tolerance_pct rule ~(baseline : value) ~(measured : value) =
  match (rule, baseline, measured) with
  | Ceiling_pct, `Int b, `Int m -> m <= b + (b * tolerance_pct / 100)
  | Floor_pct, `Int b, `Int m -> m >= b * (100 - min 100 tolerance_pct) / 100
  | At_most, `Int b, `Int m -> m <= b
  | At_least, `Int b, `Int m -> m >= b
  | Same, b, m -> b = m
  | _ -> false

let show shown (v : value) =
  match (shown, v) with
  | Ms, `Int n -> fms n ^ " ms"
  | Words, `Int n -> string_of_int n ^ " w"
  | Permille, `Int n -> string_of_int n ^ "/1000"
  | _ -> value_json v

(* Re-measure every cell of a loaded baseline and gate each metric; prints
   one line per gate and a summary, and returns the exit code (0 or 1). *)
let check ~tolerance_pct b =
  let family = b.of_family.family in
  Printf.printf "\n== %s check: %d cell(s) against %s (tolerance %d%%) ==\n" family b.cells
    b.path tolerance_pct;
  let gates = ref 0 and regressed = ref 0 and violations = ref 0 in
  List.iter
    (fun (Group (s, cells)) ->
      let measured = s.measure (List.map fst cells) in
      List.iter2
        (fun (k, baselines) m ->
          violations := !violations + s.audit k m;
          let row = s.row k m in
          List.iter2
            (fun metric baseline ->
              let measured = List.assoc metric.field row in
              let ok = passes ~tolerance_pct metric.rule ~baseline ~measured in
              incr gates;
              if not ok then incr regressed;
              Printf.printf "%-44s %12s -> %-12s %s\n"
                (if metric.what = "" then s.label k else s.label k ^ " " ^ metric.what)
                (show metric.shown baseline) (show metric.shown measured)
                (if ok then "ok" else "REGRESSED"))
            s.metrics baselines)
        cells measured)
    b.groups;
  b.of_family.finish ();
  if !regressed + !violations = 0 then begin
    Printf.printf "\n%s check: all %d gate(s) within %d%% of the baseline\n" family !gates
      tolerance_pct;
    0
  end
  else begin
    Printf.printf "\n%s check: %d of %d gate(s) regressed beyond %d%% of the baseline%s\n"
      family !regressed !gates tolerance_pct
      (if !violations > 0 then Printf.sprintf ", %d audit violation(s)" !violations else "");
    1
  end
