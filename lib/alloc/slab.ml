module Addr = Mcr_vmem.Addr
module Aspace = Mcr_vmem.Aspace

type t = {
  heap : Heap.t;
  slot_words : int;
  slots_per_chunk : int;
  name : string;
  mutable chunks : Addr.t list;
  mutable free_head : Addr.t; (* 0 = empty; links live in slot word 0 *)
  mutable live : int;
}

let aspace t = Heap.aspace t.heap

let push_free t slot =
  Aspace.write_word (aspace t) slot t.free_head;
  t.free_head <- slot

let grab_chunk t =
  let words = t.slot_words * t.slots_per_chunk in
  let base = Heap.malloc t.heap words in
  t.chunks <- base :: t.chunks;
  (* thread all slots onto the free list, last first so allocation order is
     ascending *)
  for i = t.slots_per_chunk - 1 downto 0 do
    push_free t (Addr.add_words base (i * t.slot_words))
  done

let create heap ~slot_words ~slots_per_chunk ~name =
  assert (slot_words >= 1 && slots_per_chunk >= 1);
  let t =
    { heap; slot_words; slots_per_chunk; name; chunks = []; free_head = Addr.null; live = 0 }
  in
  grab_chunk t;
  t

let alloc t =
  if t.free_head = Addr.null then grab_chunk t;
  let slot = t.free_head in
  t.free_head <- Aspace.read_word (aspace t) slot;
  Aspace.zero_fill (aspace t) slot ~words:t.slot_words;
  t.live <- t.live + 1;
  slot

let owns t addr =
  List.exists
    (fun base -> addr >= base && addr < Addr.add_words base (t.slot_words * t.slots_per_chunk))
    t.chunks

let slot_base t addr =
  let rec find = function
    | [] -> None
    | base :: rest ->
        let limit = Addr.add_words base (t.slot_words * t.slots_per_chunk) in
        if addr >= base && addr < limit then begin
          let off_words = (addr - base) / Addr.word_size in
          Some (Addr.add_words base (off_words / t.slot_words * t.slot_words))
        end
        else find rest
  in
  find t.chunks

let free t addr =
  if not (owns t addr) then
    invalid_arg (Format.asprintf "Slab.free: %a not in slab %s" Addr.pp addr t.name);
  push_free t addr;
  t.live <- t.live - 1

let live_slots t = t.live

let chunk_extents t = List.map (fun base -> (base, t.slot_words * t.slots_per_chunk)) t.chunks

let rebind t heap = { t with heap }

type state = {
  ss_slot_words : int;
  ss_chunks : Addr.t list;  (* newest first, like [chunks] *)
  ss_free_head : Addr.t;
  ss_live : int;
}

let export_state t =
  { ss_slot_words = t.slot_words; ss_chunks = t.chunks; ss_free_head = t.free_head; ss_live = t.live }

let restore_state t st =
  if st.ss_slot_words <> t.slot_words then
    Error
      (Printf.sprintf "slab %s has %d-word slots, the image has %d" t.name t.slot_words
         st.ss_slot_words)
  else begin
    t.chunks <- st.ss_chunks;
    t.free_head <- st.ss_free_head;
    t.live <- st.ss_live;
    Ok ()
  end
