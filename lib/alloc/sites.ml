type site = {
  id : int;
  label : string;
  ty_id : int;
}

type t = {
  mutable next : int;
  by_id : (int, site) Hashtbl.t;
  by_label : (string, int) Hashtbl.t;
}

let create () = { next = 1; by_id = Hashtbl.create 32; by_label = Hashtbl.create 32 }

(* A hit allocates nothing: no option, and no new site unless the type
   changed. *)
let register t ~label ~ty_id =
  match Hashtbl.find t.by_label label with
  | id ->
      if (Hashtbl.find t.by_id id).ty_id <> ty_id then Hashtbl.replace t.by_id id { id; label; ty_id };
      id
  | exception Not_found ->
      let id = t.next in
      t.next <- id + 1;
      Hashtbl.replace t.by_id id { id; label; ty_id };
      Hashtbl.replace t.by_label label id;
      id

let find t id = Hashtbl.find t.by_id id

let count t = Hashtbl.length t.by_id
