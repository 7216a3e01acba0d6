module K = Mcr_simos.Kernel
module S = Mcr_simos.Sysdefs
module Stats = Mcr_util.Stats
module Trace = Mcr_obs.Trace

type block_stat = { mutable ns : int; mutable hits : int }

type loop_rec = { depth : int; mutable entries : int; mutable exits : int }

type trec = {
  cls : string;
  born_ns : int;
  mutable died_ns : int option;
  blocked : (string * string, block_stat) Hashtbl.t;
  blocked_hist : Stats.hist;  (* all blocking durations, any site *)
  loops : (string, loop_rec) Hashtbl.t;
  mutable cur_depth : int;
}

type t = {
  kernel : K.t;
  threads : (int, trec) Hashtbl.t; (* tid -> record *)
  mutable startup_ns : int option;
  mutable main_tid : int option; (* the program's initial thread *)
  mutable attached : bool;
  mutable filter : K.thread -> bool;
  mutable trace : Trace.t option;
}

let create kernel =
  {
    kernel;
    threads = Hashtbl.create 32;
    startup_ns = None;
    main_tid = None;
    attached = false;
    filter = (fun _ -> true);
    trace = None;
  }

let set_filter t f = t.filter <- f
let set_trace t trace = t.trace <- trace

let trec_for t th =
  match Hashtbl.find_opt t.threads (K.tid th) with
  | Some r -> r
  | None ->
      let r =
        {
          cls = K.thread_name th;
          born_ns = K.clock_ns t.kernel;
          died_ns = None;
          blocked = Hashtbl.create 8;
          blocked_hist = Stats.hist_create ~bounds:Stats.default_ns_bounds;
          loops = Hashtbl.create 4;
          cur_depth = 0;
        }
      in
      Hashtbl.replace t.threads (K.tid th) r;
      r

let add_block_stat t th call ns =
  let r = trec_for t th in
  let site = match K.callstack th with frame :: _ -> frame | [] -> K.thread_name th in
  let key = (site, S.call_name call) in
  let stat =
    match Hashtbl.find_opt r.blocked key with
    | Some s -> s
    | None ->
        let s = { ns = 0; hits = 0 } in
        Hashtbl.replace r.blocked key s;
        s
  in
  stat.ns <- stat.ns + ns;
  stat.hits <- stat.hits + 1;
  Stats.hist_observe r.blocked_hist ns

let on_block t th call ~blocked_ns =
  if not (t.filter th) then ()
  else begin
    (* startup completes when the program's initial thread first blocks —
       auxiliary threads (controllers, clients) may block much earlier *)
    if t.startup_ns = None && t.main_tid = Some (K.tid th) then
      t.startup_ns <- Some (K.clock_ns t.kernel - blocked_ns);
    add_block_stat t th call blocked_ns
  end

let attach t =
  t.attached <- true;
  K.set_block_monitor t.kernel (Some (fun th call ~blocked_ns -> on_block t th call ~blocked_ns))

let detach t =
  t.attached <- false;
  K.set_block_monitor t.kernel None

let note_thread_start t th =
  if t.main_tid = None then t.main_tid <- Some (K.tid th);
  Trace.instant t.trace
    ~pid:(K.pid (K.thread_proc th))
    ~tid:(K.tid th) ~cat:"profiler" "thread.start"
    ~args:[ ("class", K.thread_name th) ];
  ignore (trec_for t th)

let note_thread_end t th =
  let r = trec_for t th in
  Trace.instant t.trace
    ~pid:(K.pid (K.thread_proc th))
    ~tid:(K.tid th) ~cat:"profiler" "thread.end"
    ~args:[ ("class", K.thread_name th) ];
  r.died_ns <- Some (K.clock_ns t.kernel)

let note_loop_enter t th name =
  let r = trec_for t th in
  r.cur_depth <- r.cur_depth + 1;
  let l =
    match Hashtbl.find_opt r.loops name with
    | Some l -> l
    | None ->
        let l = { depth = r.cur_depth; entries = 0; exits = 0 } in
        Hashtbl.replace r.loops name l;
        l
  in
  l.entries <- l.entries + 1

let note_loop_exit t th name =
  let r = trec_for t th in
  r.cur_depth <- max 0 (r.cur_depth - 1);
  match Hashtbl.find_opt r.loops name with
  | Some l -> l.exits <- l.exits + 1
  | None -> ()

type qpoint = { site : string; call : string; blocked_ns : int; hits : int }

type thread_class = {
  cls : string;
  instances : int;
  long_lived : bool;
  persistent : bool;
  quiescent_point : qpoint option;
  long_lived_loops : string list;
  blocked_p50_ns : int;
  blocked_p90_ns : int;
  blocked_p99_ns : int;
}

type report = {
  classes : thread_class list;
  short_lived : int;
  long_lived_count : int;
  quiescent_points : int;
  persistent_points : int;
  volatile_points : int;
}

let report t =
  (* sampling view: attribute currently-blocked threads to their blocking
     sites, weighted by how long they have been parked there *)
  let now = K.clock_ns t.kernel in
  List.iter
    (fun proc ->
      List.iter
        (fun th ->
          if t.filter th && K.thread_alive th then begin
            match (K.blocked_in th, K.blocked_since th) with
            | Some call, Some since ->
                (* a main thread parked for good marks the end of startup *)
                if t.startup_ns = None && t.main_tid = Some (K.tid th) then
                  t.startup_ns <- Some since;
                if Hashtbl.mem t.threads (K.tid th) then
                  add_block_stat t th call (max 1 (now - since))
            | _, _ -> ()
          end)
        (K.proc_threads proc))
    (K.procs t.kernel);
  let startup = Option.value t.startup_ns ~default:max_int in
  (* group thread records by class *)
  let by_class : (string, trec list ref) Hashtbl.t = Hashtbl.create 16 in
  Hashtbl.iter
    (fun _ (r : trec) ->
      match Hashtbl.find_opt by_class r.cls with
      | Some l -> l := r :: !l
      | None -> Hashtbl.replace by_class r.cls (ref [ r ]))
    t.threads;
  let classes =
    Hashtbl.fold
      (fun cls recs acc ->
        let recs = !recs in
        let long_lived = List.exists (fun r -> r.died_ns = None) recs in
        let persistent = List.exists (fun r -> r.born_ns <= startup) recs in
        (* merge blocking stats across instances *)
        let merged : (string * string, block_stat) Hashtbl.t = Hashtbl.create 8 in
        List.iter
          (fun r ->
            Hashtbl.iter
              (fun key s ->
                match Hashtbl.find_opt merged key with
                | Some m ->
                    m.ns <- m.ns + s.ns;
                    m.hits <- m.hits + s.hits
                | None -> Hashtbl.replace merged key { ns = s.ns; hits = s.hits })
              r.blocked)
          recs;
        let quiescent_point =
          Hashtbl.fold
            (fun (site, call) s best ->
              match best with
              | Some b when b.blocked_ns >= s.ns -> best
              | _ -> Some { site; call; blocked_ns = s.ns; hits = s.hits })
            merged None
        in
        let quiescent_point = if long_lived then quiescent_point else None in
        (* deepest loops never exited, across instances *)
        let loop_best : (string, int) Hashtbl.t = Hashtbl.create 4 in
        List.iter
          (fun r ->
            Hashtbl.iter
              (fun name l ->
                if l.exits < l.entries then
                  match Hashtbl.find_opt loop_best name with
                  | Some d -> Hashtbl.replace loop_best name (max d l.depth)
                  | None -> Hashtbl.replace loop_best name l.depth)
              r.loops)
          recs;
        let max_depth = Hashtbl.fold (fun _ d m -> max d m) loop_best 0 in
        let long_lived_loops =
          Hashtbl.fold (fun name d acc -> if d = max_depth then name :: acc else acc) loop_best []
          |> List.sort compare
        in
        let class_hist =
          List.fold_left
            (fun acc r -> Stats.hist_merge acc r.blocked_hist)
            (Stats.hist_create ~bounds:Stats.default_ns_bounds)
            recs
        in
        {
          cls;
          instances = List.length recs;
          long_lived;
          persistent;
          quiescent_point;
          long_lived_loops;
          blocked_p50_ns = Stats.hist_percentile class_hist 50.;
          blocked_p90_ns = Stats.hist_percentile class_hist 90.;
          blocked_p99_ns = Stats.hist_percentile class_hist 99.;
        }
        :: acc)
      by_class []
    |> List.sort (fun a b -> compare a.cls b.cls)
  in
  let short_lived = List.length (List.filter (fun c -> not c.long_lived) classes) in
  let long = List.filter (fun c -> c.long_lived) classes in
  let qps = List.filter (fun c -> c.quiescent_point <> None) long in
  let persistent_points = List.length (List.filter (fun c -> c.persistent) qps) in
  {
    classes;
    short_lived;
    long_lived_count = List.length long;
    quiescent_points = List.length qps;
    persistent_points;
    volatile_points = List.length qps - persistent_points;
  }

let suggested_qpoints r =
  List.filter_map
    (fun c -> Option.map (fun q -> (q.site, q.call)) c.quiescent_point)
    r.classes
  |> List.sort_uniq compare

let pp_report ppf r =
  Format.fprintf ppf "@[<v>thread classes: %d (SL %d, LL %d); QP %d (Per %d, Vol %d)@,"
    (List.length r.classes) r.short_lived r.long_lived_count r.quiescent_points
    r.persistent_points r.volatile_points;
  List.iter
    (fun c ->
      Format.fprintf ppf "  %-24s x%d %s%s" c.cls c.instances
        (if c.long_lived then "long-lived" else "short-lived")
        (if c.persistent then " persistent" else "");
      (match c.quiescent_point with
      | Some q ->
          Format.fprintf ppf " qpoint=%s/%s (%.1f ms, %d hits)" q.site q.call
            (float_of_int q.blocked_ns /. 1e6)
            q.hits
      | None -> ());
      if c.blocked_p50_ns > 0 then
        Format.fprintf ppf " blocked p50/p90/p99=%.1f/%.1f/%.1f ms"
          (float_of_int c.blocked_p50_ns /. 1e6)
          (float_of_int c.blocked_p90_ns /. 1e6)
          (float_of_int c.blocked_p99_ns /. 1e6);
      (match c.long_lived_loops with
      | [] -> ()
      | loops -> Format.fprintf ppf " loops=[%s]" (String.concat ";" loops));
      Format.fprintf ppf "@,")
    r.classes;
  Format.fprintf ppf "@]"
