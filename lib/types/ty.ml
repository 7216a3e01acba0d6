type t =
  | Int
  | Word
  | Char_array of int
  | Ptr of t
  | Void_ptr
  | Func_ptr
  | Encoded_ptr of { target : t; mask : int }
  | Struct of struct_def
  | Union of (string * t) list
  | Array of t * int
  | Named of string
  | Opaque of int

and struct_def = { sname : string; fields : (string * t) list }

(* [sizes] and [offsets] memoise the layout of named types; any [env_add]
   may change a layout, so it empties both. *)
type env = {
  types : (string, t) Hashtbl.t;
  sizes : (string, int) Hashtbl.t;
  offsets : (string * string, int) Hashtbl.t;
}

let env_create () =
  { types = Hashtbl.create 16; sizes = Hashtbl.create 16; offsets = Hashtbl.create 16 }

let env_add env name ty =
  Hashtbl.replace env.types name ty;
  Hashtbl.reset env.sizes;
  Hashtbl.reset env.offsets

let env_find env name = Hashtbl.find env.types name

let env_names env =
  Hashtbl.fold (fun k _ acc -> k :: acc) env.types [] |> List.sort compare

let resolve env ty =
  let rec go seen = function
    | Named n ->
        if List.mem n seen then
          invalid_arg ("Ty.resolve: cyclic named type " ^ n)
        else go (n :: seen) (env_find env n)
    | ty -> ty
  in
  go [] ty

(* [compute ()], remembered in [tbl] under [key]; a raise stores nothing *)
let memo tbl key compute =
  match Hashtbl.find_opt tbl key with
  | Some v -> v
  | None ->
      let v = compute () in
      Hashtbl.replace tbl key v;
      v

let words_for_bytes n = (n + Mcr_vmem.Addr.word_size - 1) / Mcr_vmem.Addr.word_size

(* A named type's size is memoised only when computed outside every struct:
   inside one, a lookup could answer where the walk's recursion check
   raises. *)
let sizeof_words env ty =
  let rec go visiting ty =
    match ty with
    | Int | Word | Ptr _ | Void_ptr | Func_ptr | Encoded_ptr _ -> 1
    | Char_array n -> max 1 (words_for_bytes n)
    | Opaque n -> max 1 n
    | Array (elt, n) -> n * go visiting elt
    | Struct { sname; fields } ->
        if List.mem sname visiting then
          invalid_arg ("Ty.sizeof_words: unbounded recursive struct " ^ sname)
        else
          List.fold_left (fun acc (_, fty) -> acc + go (sname :: visiting) fty) 0 fields
    | Union members ->
        List.fold_left (fun acc (_, mty) -> max acc (go visiting mty)) 1 members
    | Named n when List.is_empty visiting -> memo env.sizes n (fun () -> go [] (env_find env n))
    | Named n -> go visiting (env_find env n)
  in
  go [] ty

let as_struct env ty =
  match resolve env ty with
  | Struct def -> def
  | _ -> raise Not_found

let field_offset env ty name =
  let compute () =
    let def = as_struct env ty in
    let rec go off = function
      | [] -> raise Not_found
      | (fname, fty) :: rest ->
          if fname = name then off else go (off + sizeof_words env fty) rest
    in
    go 0 def.fields
  in
  match ty with Named n -> memo env.offsets (n, name) compute | _ -> compute ()

let field_ty env ty name =
  let def = as_struct env ty in
  match List.assoc_opt name def.fields with
  | Some fty -> fty
  | None -> raise Not_found

type policy = {
  unions_opaque : bool;
  char_arrays_opaque : bool;
  words_opaque : bool;
}

let default_policy = { unions_opaque = true; char_arrays_opaque = true; words_opaque = true }

type slot =
  | Slot_scalar
  | Slot_ptr of t
  | Slot_void_ptr
  | Slot_func_ptr
  | Slot_encoded_ptr of { target : t; mask : int }
  | Slot_opaque

let slots ?(policy = default_policy) env ty =
  let buf = ref [] in
  let push s = buf := s :: !buf in
  let push_n s n = for _ = 1 to n do push s done in
  let rec go ty =
    match ty with
    | Int -> push Slot_scalar
    | Word -> push (if policy.words_opaque then Slot_opaque else Slot_scalar)
    | Char_array n ->
        push_n (if policy.char_arrays_opaque then Slot_opaque else Slot_scalar)
          (max 1 (words_for_bytes n))
    | Ptr target -> push (Slot_ptr target)
    | Void_ptr -> push Slot_void_ptr
    | Func_ptr -> push Slot_func_ptr
    | Encoded_ptr { target; mask } -> push (Slot_encoded_ptr { target; mask })
    | Struct { fields; _ } -> List.iter (fun (_, fty) -> go fty) fields
    | Union members ->
        let size = sizeof_words env ty in
        if policy.unions_opaque then push_n Slot_opaque size
        else begin
          (* Non-default policy: trust the first member's layout. *)
          (match members with
          | (_, mty) :: _ ->
              go mty;
              push_n Slot_scalar (size - sizeof_words env mty)
          | [] -> push_n Slot_scalar size)
        end
    | Array (elt, n) -> for _ = 1 to n do go elt done
    | Named n -> go (env_find env n)
    | Opaque n -> push_n Slot_opaque (max 1 n)
  in
  go ty;
  Array.of_list (List.rev !buf)

let equal env_a env_b ta tb =
  let rec go seen ta tb =
    match (ta, tb) with
    | Named na, Named nb when List.mem (na, nb) seen -> true
    | Named na, _ -> begin
        match tb with
        | Named nb -> go ((na, nb) :: seen) (env_find env_a na) (env_find env_b nb)
        | _ -> go seen (env_find env_a na) tb
      end
    | _, Named nb -> go seen ta (env_find env_b nb)
    | Int, Int | Word, Word | Void_ptr, Void_ptr | Func_ptr, Func_ptr -> true
    | Char_array a, Char_array b -> a = b
    | Opaque a, Opaque b -> a = b
    | Ptr a, Ptr b -> go seen a b
    | Encoded_ptr a, Encoded_ptr b -> a.mask = b.mask && go seen a.target b.target
    | Array (a, n), Array (b, m) -> n = m && go seen a b
    | Struct a, Struct b ->
        a.sname = b.sname
        && List.length a.fields = List.length b.fields
        && List.for_all2
             (fun (na, fa) (nb, fb) -> na = nb && go seen fa fb)
             a.fields b.fields
    | Union a, Union b ->
        List.length a = List.length b
        && List.for_all2 (fun (na, ma) (nb, mb) -> na = nb && go seen ma mb) a b
    | ( (Int | Word | Char_array _ | Ptr _ | Void_ptr | Func_ptr | Encoded_ptr _
        | Struct _ | Union _ | Array _ | Opaque _),
        _ ) ->
        false
  in
  go [] ta tb

let contains_opaque ?policy env ty =
  Array.exists (function Slot_opaque -> true | _ -> false) (slots ?policy env ty)

let rec pp ppf = function
  | Int -> Format.pp_print_string ppf "int"
  | Word -> Format.pp_print_string ppf "long"
  | Char_array n -> Format.fprintf ppf "char[%d]" n
  | Ptr t -> Format.fprintf ppf "%a*" pp t
  | Void_ptr -> Format.pp_print_string ppf "void*"
  | Func_ptr -> Format.pp_print_string ppf "void(*)()"
  | Encoded_ptr { target; mask } -> Format.fprintf ppf "%a* /*enc:%d*/" pp target mask
  | Struct { sname; _ } -> Format.fprintf ppf "struct %s" sname
  | Union members ->
      Format.fprintf ppf "union{%a}"
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.pp_print_string ppf "; ")
           (fun ppf (n, t) -> Format.fprintf ppf "%s:%a" n pp t))
        members
  | Array (t, n) -> Format.fprintf ppf "%a[%d]" pp t n
  | Named n -> Format.pp_print_string ppf n
  | Opaque n -> Format.fprintf ppf "opaque[%dw]" n

let to_string t = Format.asprintf "%a" pp t
