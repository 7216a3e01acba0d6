module Stats = Mcr_util.Stats

type counter = { c_name : string; mutable c_value : int }
type gauge = { g_name : string; mutable g_value : int }
type histogram = { h_name : string; h_hist : Stats.hist }

type instrument = Counter of counter | Gauge of gauge | Histogram of histogram

type t = {
  by_name : (string, instrument) Hashtbl.t;
  mutable order : string list;  (* registration order, reversed *)
}

let create () = { by_name = Hashtbl.create 32; order = [] }

let register t name make match_existing =
  match Hashtbl.find_opt t.by_name name with
  | Some i -> (
      match match_existing i with
      | Some x -> x
      | None -> invalid_arg (Printf.sprintf "Metrics: %s already registered with another kind" name))
  | None ->
      let i, x = make () in
      Hashtbl.replace t.by_name name i;
      t.order <- name :: t.order;
      x

let counter t name =
  register t name
    (fun () ->
      let c = { c_name = name; c_value = 0 } in
      (Counter c, c))
    (function Counter c -> Some c | _ -> None)

let gauge t name =
  register t name
    (fun () ->
      let g = { g_name = name; g_value = 0 } in
      (Gauge g, g))
    (function Gauge g -> Some g | _ -> None)

let histogram t ?(bounds = Stats.default_ns_bounds) name =
  register t name
    (fun () ->
      let h = { h_name = name; h_hist = Stats.hist_create ~bounds } in
      (Histogram h, h))
    (function Histogram h -> Some h | _ -> None)

let incr ?(by = 1) c = c.c_value <- c.c_value + by
let counter_value c = c.c_value
let set g v = g.g_value <- v
let observe h v = Stats.hist_observe h.h_hist v

(* ------------------------------------------------------------------ *)
(* Snapshots *)

type hist_snapshot = {
  bounds : int array;
  counts : int array;
  total : int;
  sum : int;
  vmax : int;
}

type snapshot = {
  counters : (string * int) list;
  gauges : (string * int) list;
  histograms : (string * hist_snapshot) list;
}

let snapshot t =
  let names = List.rev t.order in
  let counters = ref [] and gauges = ref [] and hists = ref [] in
  List.iter
    (fun name ->
      match Hashtbl.find_opt t.by_name name with
      | Some (Counter c) -> counters := (name, c.c_value) :: !counters
      | Some (Gauge g) -> gauges := (name, g.g_value) :: !gauges
      | Some (Histogram h) ->
          hists :=
            ( name,
              {
                bounds = Array.copy h.h_hist.Stats.bounds;
                counts = Array.copy h.h_hist.Stats.counts;
                total = h.h_hist.Stats.total;
                sum = h.h_hist.Stats.sum;
                vmax = h.h_hist.Stats.vmax;
              } )
            :: !hists
      | None -> ())
    names;
  let by_name l = List.sort (fun (a, _) (b, _) -> compare a b) l in
  { counters = by_name !counters; gauges = by_name !gauges; histograms = by_name !hists }

(* latest - earlier: counters and histogram counts subtract (monotonic
   accumulation since the earlier snapshot); gauges keep their latest
   value. Entries absent from [earlier] pass through unchanged. *)
let diff ~latest ~earlier =
  let sub l earlier_l =
    List.map
      (fun (name, v) ->
        match List.assoc_opt name earlier_l with
        | Some e -> (name, v - e)
        | None -> (name, v))
      l
  in
  let sub_hist (name, (h : hist_snapshot)) =
    match List.assoc_opt name earlier.histograms with
    | Some e when e.bounds = h.bounds ->
        ( name,
          {
            h with
            counts = Array.mapi (fun i c -> c - e.counts.(i)) h.counts;
            total = h.total - e.total;
            sum = h.sum - e.sum;
          } )
    | _ -> (name, h)
  in
  {
    counters = sub latest.counters earlier.counters;
    gauges = latest.gauges;
    histograms = List.map sub_hist latest.histograms;
  }

let find_counter s name = List.assoc_opt name s.counters
let find_gauge s name = List.assoc_opt name s.gauges
let find_histogram s name = List.assoc_opt name s.histograms

(* Pointwise sum via Stats.hist_merge, so the bounds check and the merge
   arithmetic live in one place. *)
let hist_snapshot_merge (a : hist_snapshot) (b : hist_snapshot) =
  let to_hist (h : hist_snapshot) =
    { Stats.bounds = h.bounds; counts = h.counts; total = h.total; sum = h.sum; vmax = h.vmax }
  in
  let m = Stats.hist_merge (to_hist a) (to_hist b) in
  {
    bounds = m.Stats.bounds;
    counts = m.Stats.counts;
    total = m.Stats.total;
    sum = m.Stats.sum;
    vmax = m.Stats.vmax;
  }

let hist_snapshot_percentile (h : hist_snapshot) p =
  Stats.hist_percentile
    { Stats.bounds = h.bounds; counts = h.counts; total = h.total; sum = h.sum; vmax = h.vmax }
    p

let hist_snapshot_summary (h : hist_snapshot) =
  Stats.hist_summary
    { Stats.bounds = h.bounds; counts = h.counts; total = h.total; sum = h.sum; vmax = h.vmax }

let render s =
  let module T = Mcr_util.Tablefmt in
  let buf = Buffer.create 512 in
  if s.counters <> [] || s.gauges <> [] then begin
    let t = T.create ~header:[ "metric"; "kind"; "value" ] in
    List.iter (fun (n, v) -> T.add_row t [ n; "counter"; string_of_int v ]) s.counters;
    List.iter (fun (n, v) -> T.add_row t [ n; "gauge"; string_of_int v ]) s.gauges;
    Buffer.add_string buf (T.render t)
  end;
  if s.histograms <> [] then begin
    let t = T.create ~header:[ "histogram"; "count"; "sum"; "p50"; "p90"; "p99"; "p99.9"; "max" ] in
    List.iter
      (fun (n, h) ->
        T.add_row t
          [
            n;
            string_of_int h.total;
            string_of_int h.sum;
            string_of_int (hist_snapshot_percentile h 50.);
            string_of_int (hist_snapshot_percentile h 90.);
            string_of_int (hist_snapshot_percentile h 99.);
            string_of_int (hist_snapshot_percentile h 99.9);
            string_of_int h.vmax;
          ])
      s.histograms;
    Buffer.add_string buf (T.render t)
  end;
  if Buffer.length buf = 0 then Buffer.add_string buf "(no metrics)\n";
  Buffer.contents buf
