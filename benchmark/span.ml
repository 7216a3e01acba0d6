(* Host-clock timing of the benchmark's own calls into the libraries.

   Every call the benchmark makes into a layer goes through [time], named
   "layer.function" (the layer is a lib/ directory). Each call adds its
   host time, self time (host time minus that of the timed calls nested
   inside it) and minor-heap words to a per-name total, which the
   per-layer metrics read. Nothing inside the program is instrumented:
   the layers are measured from outside, at the boundaries the benchmark
   already crosses.

   In the traced run the same calls also become Begin/End spans in an
   [Mcr_obs.Trace] sink keyed by the host clock, each carrying the
   virtual clock at both ends and the words it allocated. *)

module Trace = Mcr_obs.Trace
module K = Mcr_simos.Kernel

let now_ns () = Int64.to_int (Monotonic_clock.now ())

type total = {
  mutable calls : int;
  mutable total_ns : int;
  mutable self_ns : int;
  mutable minor_words : float;
}

let totals : (string, total) Hashtbl.t = Hashtbl.create 32

(* Host time of the timed calls nested in each open call, innermost
   first: what a call's self time excludes. *)
let open_children : int ref list ref = ref []

let sink : Trace.t option ref = ref None

let enable_sink () =
  let origin = now_ns () in
  let t = Trace.create ~capacity:(1 lsl 16) ~clock:(fun () -> now_ns () - origin) () in
  sink := Some t;
  t

let layer name = match String.index_opt name '.' with Some i -> String.sub name 0 i | None -> name

let total name =
  match Hashtbl.find_opt totals name with
  | Some t -> t
  | None ->
      let t = { calls = 0; total_ns = 0; self_ns = 0; minor_words = 0. } in
      Hashtbl.replace totals name t;
      t

(* [time ?k name f] runs [f] as one call named [name]; [k] is the kernel
   whose virtual clock the span records. *)
let time ?k name f =
  let vnow () = match k with Some k -> K.clock_ns k | None -> -1 in
  let cat = layer name in
  let v0 = vnow () in
  Trace.span_begin !sink ~cat name;
  let children = ref 0 in
  open_children := children :: !open_children;
  let w0 = Gc.minor_words () in
  let t0 = now_ns () in
  let finish () =
    let dt = now_ns () - t0 in
    let dw = Gc.minor_words () -. w0 in
    open_children := List.tl !open_children;
    (match !open_children with parent :: _ -> parent := !parent + dt | [] -> ());
    let t = total name in
    t.calls <- t.calls + 1;
    t.total_ns <- t.total_ns + dt;
    t.self_ns <- t.self_ns + dt - !children;
    t.minor_words <- t.minor_words +. dw;
    Trace.span_end !sink ~cat
      ~args:
        [ ("v_start_ns", string_of_int v0);
          ("v_end_ns", string_of_int (vnow ()));
          ("minor_words", Printf.sprintf "%.0f" dw) ]
      name
  in
  Fun.protect ~finally:finish f

let seconds name = float_of_int (total name).total_ns /. 1e9
let mwords name = (total name).minor_words /. 1e6

(* Per-layer self time, largest first: (layer, calls, self ns, total ns,
   minor words). *)
let self_by_layer () =
  let by = Hashtbl.create 16 in
  Hashtbl.iter
    (fun name t ->
      let l = layer name in
      let c, s, tot, w = Option.value (Hashtbl.find_opt by l) ~default:(0, 0, 0, 0.) in
      Hashtbl.replace by l (c + t.calls, s + t.self_ns, tot + t.total_ns, w +. t.minor_words))
    totals;
  Hashtbl.fold (fun l (c, s, tot, w) acc -> (l, c, s, tot, w) :: acc) by []
  |> List.sort (fun (_, _, a, _, _) (_, _, b, _, _) -> compare b a)
