module Addr = Mcr_vmem.Addr

type chunk = {
  base : Addr.t;  (** Payload address of the backing heap block. *)
  words : int;
  micro : Heap.t option;  (** In-band walkable interior when instrumented. *)
  mutable bump : int;  (** Next free word offset (uninstrumented only). *)
}

type stats = {
  mutable pallocs : int;
  mutable tag_words : int;
  mutable chunks_grabbed : int;
}

type t = {
  heap : Heap.t;
  name : string;
  instrument : bool;
  chunk_words : int;
  mutable chunks : chunk list; (* newest first *)
  mutable kids : t list;
  mutable alive : bool;
  stats : stats;
}

let grab_chunk t words =
  let payload = Heap.malloc t.heap words in
  t.stats.chunks_grabbed <- t.stats.chunks_grabbed + 1;
  let micro =
    if t.instrument then begin
      let h =
        Heap.of_region (Heap.aspace t.heap) ~base:payload ~size:(words * Addr.word_size)
          ~instrumented:true
      in
      if not (Heap.in_startup t.heap) then Heap.end_startup h;
      Some h
    end
    else None
  in
  let c = { base = payload; words; micro; bump = 0 } in
  t.chunks <- c :: t.chunks;
  c

let create heap ?parent ?(instrument = false) ?(chunk_words = 1024) ~name () =
  let t =
    {
      heap;
      name;
      instrument;
      chunk_words;
      chunks = [];
      kids = [];
      alive = true;
      stats = { pallocs = 0; tag_words = 0; chunks_grabbed = 0 };
    }
  in
  ignore (grab_chunk t chunk_words);
  (match parent with Some p -> p.kids <- t :: p.kids | None -> ());
  t

let name t = t.name
let is_instrumented t = t.instrument
let stats t = t.stats

let check_alive t = if not t.alive then invalid_arg ("Pool " ^ t.name ^ " is destroyed")

let palloc t ?(ty_id = 0) ?(site = 0) ?(callstack = 0) words =
  check_alive t;
  let words = max 1 words in
  t.stats.pallocs <- t.stats.pallocs + 1;
  if t.instrument then begin
    t.stats.tag_words <- t.stats.tag_words + 2;
    (* In-band tags inside the chunk: delegate to the chunk's micro-heap;
       grab a dedicated chunk when the current one cannot fit the object. *)
    let rec try_chunks = function
      | [] ->
          let c = grab_chunk t (max t.chunk_words (words + 8)) in
          let micro = Option.get c.micro in
          Heap.malloc micro ~ty_id ~site ~callstack words
      | c :: rest -> begin
          match c.micro with
          | None -> try_chunks rest
          | Some micro -> begin
              try Heap.malloc micro ~ty_id ~site ~callstack words
              with Heap.Out_of_memory -> try_chunks rest
            end
        end
    in
    try_chunks t.chunks
  end
  else begin
    let c =
      match t.chunks with
      | c :: _ when c.bump + words <= c.words -> c
      | _ -> grab_chunk t (max t.chunk_words words)
    in
    let addr = Addr.add_words c.base c.bump in
    c.bump <- c.bump + words;
    Mcr_vmem.Aspace.zero_fill (Heap.aspace t.heap) addr ~words;
    addr
  end

let release_chunks t chunks = List.iter (fun c -> Heap.free t.heap c.base) chunks

let rec destroy t =
  check_alive t;
  List.iter destroy t.kids;
  t.kids <- [];
  release_chunks t t.chunks;
  t.chunks <- [];
  t.alive <- false

let reset t =
  check_alive t;
  List.iter destroy t.kids;
  t.kids <- [];
  (match List.rev t.chunks with
  | [] -> ignore (grab_chunk t t.chunk_words)
  | first :: rest ->
      release_chunks t rest;
      first.bump <- 0;
      (match first.micro with
      | Some _ when t.instrument ->
          let micro =
            Heap.of_region (Heap.aspace t.heap) ~base:first.base
              ~size:(first.words * Addr.word_size) ~instrumented:true
          in
          if not (Heap.in_startup t.heap) then Heap.end_startup micro;
          t.chunks <- [ { first with micro = Some micro; bump = 0 } ]
      | _ -> t.chunks <- [ first ]))

let chunk_extents t = List.map (fun c -> (c.base, c.words)) t.chunks

let iter_objects t f =
  List.iter (fun c -> match c.micro with Some h -> Heap.iter_live h f | None -> ()) t.chunks

let children t = t.kids

type chunk_state = {
  cs_base : Addr.t;
  cs_words : int;
  cs_bump : int;
  cs_micro : bool;
}

type state = {
  st_name : string;
  st_instrument : bool;
  st_chunk_words : int;
  st_pallocs : int;
  st_tag_words : int;
  st_chunks_grabbed : int;
  st_chunks : chunk_state list;  (* newest first, like [chunks] *)
  st_kids : state list;
}

let rec export_state t =
  {
    st_name = t.name;
    st_instrument = t.instrument;
    st_chunk_words = t.chunk_words;
    st_pallocs = t.stats.pallocs;
    st_tag_words = t.stats.tag_words;
    st_chunks_grabbed = t.stats.chunks_grabbed;
    st_chunks =
      List.map
        (fun c ->
          { cs_base = c.base; cs_words = c.words; cs_bump = c.bump; cs_micro = c.micro <> None })
        t.chunks;
    st_kids = List.map export_state t.kids;
  }

let ( let* ) = Result.bind

(* [List.map f xs] up to the first [Error]. *)
let rec map_ok f = function
  | [] -> Ok []
  | x :: xs ->
      let* y = f x in
      let* ys = map_ok f xs in
      Ok (y :: ys)

(* Restoring must not touch the backing heap: the chunk blocks named in the
   state already exist in the (re-installed) in-band heap structure, so we
   only rebuild the OCaml-side view over them. Micro heaps are [Heap.attach]ed
   over the restored in-band tags. Nothing is replaced unless every micro
   heap attaches. *)
let rec restore_state t st =
  let aspace = Heap.aspace t.heap in
  let chunk_of_state cs =
    let chunk micro = { base = cs.cs_base; words = cs.cs_words; micro; bump = cs.cs_bump } in
    if not cs.cs_micro then Ok (chunk None)
    else
      match
        Heap.attach aspace ~base:cs.cs_base ~size:(cs.cs_words * Addr.word_size) ~instrumented:true
      with
      | Ok h -> Ok (chunk (Some h))
      | Error e -> Error (Printf.sprintf "pool %s chunk %#x: %s" st.st_name cs.cs_base e)
  in
  let kid_of_state kst =
    let kid =
      {
        heap = t.heap;
        name = kst.st_name;
        instrument = kst.st_instrument;
        chunk_words = kst.st_chunk_words;
        chunks = [];
        kids = [];
        alive = true;
        stats = { pallocs = 0; tag_words = 0; chunks_grabbed = 0 };
      }
    in
    Result.map (fun () -> kid) (restore_state kid kst)
  in
  let* chunks = map_ok chunk_of_state st.st_chunks in
  let* kids = map_ok kid_of_state st.st_kids in
  t.stats.pallocs <- st.st_pallocs;
  t.stats.tag_words <- st.st_tag_words;
  t.stats.chunks_grabbed <- st.st_chunks_grabbed;
  t.chunks <- chunks;
  t.alive <- true;
  t.kids <- kids;
  Ok ()

let rec rebind t heap =
  let rebind_chunk c =
    { c with micro = Option.map (fun m -> Heap.rebind m (Heap.aspace heap)) c.micro }
  in
  {
    t with
    heap;
    chunks = List.map rebind_chunk t.chunks;
    kids = List.map (fun kid -> rebind kid heap) t.kids;
    stats =
      { pallocs = t.stats.pallocs; tag_words = t.stats.tag_words;
        chunks_grabbed = t.stats.chunks_grabbed };
  }
