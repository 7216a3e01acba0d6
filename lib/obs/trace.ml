type phase = Begin | End | Instant | Complete of int

type event = {
  seq : int;
  ts_ns : int;
  pid : int;
  tid : int;
  name : string;
  cat : string;
  phase : phase;
  args : (string * string) list;
}

type t = {
  clock : unit -> int;
  capacity : int;
  buf : event option array;
  mutable next : int;  (* next write slot in the ring *)
  mutable count : int;  (* total events ever emitted; the seq source *)
}

let create ?(capacity = 65536) ~clock () =
  if capacity <= 0 then invalid_arg "Trace.create: capacity must be positive";
  { clock; capacity; buf = Array.make capacity None; next = 0; count = 0 }

let capacity t = t.capacity
let emitted t = t.count
let length t = min t.count t.capacity
let dropped t = max 0 (t.count - t.capacity)

let clear t =
  Array.fill t.buf 0 t.capacity None;
  t.next <- 0;
  t.count <- 0

let emit t ?(pid = 0) ?(tid = 0) ?(cat = "mcr") ?(args = []) phase name =
  let e = { seq = t.count; ts_ns = t.clock (); pid; tid; name; cat; phase; args } in
  t.buf.(t.next) <- Some e;
  t.next <- (t.next + 1) mod t.capacity;
  t.count <- t.count + 1

(* The emitters the instrumented layers call: they take the sink as an
   option so a disabled sink costs one branch and zero virtual time. *)

let span_begin o ?pid ?tid ?cat ?args name =
  match o with None -> () | Some t -> emit t ?pid ?tid ?cat ?args Begin name

let span_end o ?pid ?tid ?cat ?args name =
  match o with None -> () | Some t -> emit t ?pid ?tid ?cat ?args End name

let instant o ?pid ?tid ?cat ?args name =
  match o with None -> () | Some t -> emit t ?pid ?tid ?cat ?args Instant name

let complete o ?pid ?tid ?cat ?args ~dur_ns name =
  match o with None -> () | Some t -> emit t ?pid ?tid ?cat ?args (Complete dur_ns) name

let events t =
  if t.count <= t.capacity then
    List.filter_map Fun.id (Array.to_list (Array.sub t.buf 0 t.next))
  else begin
    (* ring wrapped: oldest surviving event sits at [next] *)
    let out = ref [] in
    for i = t.capacity - 1 downto 0 do
      match t.buf.((t.next + i) mod t.capacity) with
      | Some e -> out := e :: !out
      | None -> ()
    done;
    !out
  end

let phase_name = function
  | Begin -> "B"
  | End -> "E"
  | Instant -> "i"
  | Complete _ -> "X"

