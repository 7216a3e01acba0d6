(* Tests for Mcr_types: descriptors, layout, slots, transformation plans,
   symbol tables, typed access. *)

open Mcr_types
module Aspace = Mcr_vmem.Aspace
module Addr = Mcr_vmem.Addr
module Region = Mcr_vmem.Region

(* The paper's running example (Listing 1 / Figure 2): a linked list node
   that gains a [new] field in v2. *)
let list_node_v1 =
  Ty.Struct { sname = "l_t"; fields = [ ("value", Ty.Int); ("next", Ty.Ptr (Ty.Named "l_t")) ] }

let list_node_v2 =
  Ty.Struct
    {
      sname = "l_t";
      fields = [ ("value", Ty.Int); ("next", Ty.Ptr (Ty.Named "l_t")); ("new", Ty.Int) ];
    }

let env_v1 () =
  let e = Ty.env_create () in
  Ty.env_add e "l_t" list_node_v1;
  e

let env_v2 () =
  let e = Ty.env_create () in
  Ty.env_add e "l_t" list_node_v2;
  e

(* ------------------------------------------------------------------ *)
(* Ty: sizeof and offsets *)

let test_sizeof_scalars () =
  let env = Ty.env_create () in
  List.iter
    (fun (ty, w) -> Alcotest.(check int) (Ty.to_string ty) w (Ty.sizeof_words env ty))
    [
      (Ty.Int, 1);
      (Ty.Word, 1);
      (Ty.Ptr Ty.Int, 1);
      (Ty.Void_ptr, 1);
      (Ty.Func_ptr, 1);
      (Ty.Char_array 8, 1);
      (Ty.Char_array 9, 2);
      (Ty.Char_array 1, 1);
      (Ty.Opaque 3, 3);
      (Ty.Array (Ty.Int, 10), 10);
    ]

let test_sizeof_struct () =
  let env = env_v1 () in
  Alcotest.(check int) "l_t is 2 words" 2 (Ty.sizeof_words env (Ty.Named "l_t"));
  Alcotest.(check int) "v2 l_t is 3 words" 3 (Ty.sizeof_words (env_v2 ()) list_node_v2)

let test_sizeof_union_max () =
  let env = Ty.env_create () in
  let u = Ty.Union [ ("a", Ty.Int); ("b", Ty.Char_array 24) ] in
  Alcotest.(check int) "union sized to max member" 3 (Ty.sizeof_words env u)

let test_sizeof_recursive_rejected () =
  let env = Ty.env_create () in
  Ty.env_add env "bad" (Ty.Struct { sname = "bad"; fields = [ ("self", Ty.Named "bad") ] });
  Alcotest.check_raises "unbounded recursion rejected"
    (Invalid_argument "Ty.sizeof_words: unbounded recursive struct bad") (fun () ->
      ignore (Ty.sizeof_words env (Ty.Named "bad")));
  Alcotest.check_raises "rejected again: no error is memoised"
    (Invalid_argument "Ty.sizeof_words: unbounded recursive struct bad") (fun () ->
      ignore (Ty.sizeof_words env (Ty.Named "bad")))

(* The layout memo: a redefinition is seen by every later call, including
   through a struct that embeds the redefined one, and an error is raised
   again on every call, never answered from the memo. *)
let test_layout_memo_follows_env_add () =
  let env = env_v1 () in
  let pair = Ty.Named "pair" in
  Ty.env_add env "pair"
    (Ty.Struct { sname = "pair"; fields = [ ("node", Ty.Named "l_t"); ("tag", Ty.Int) ] });
  let layout () =
    ( Ty.sizeof_words env (Ty.Named "l_t"),
      Ty.sizeof_words env pair,
      Ty.field_offset env pair "tag" )
  in
  Alcotest.(check (triple int int int)) "v1 layout" (2, 3, 2) (layout ());
  Alcotest.(check (triple int int int)) "v1 layout again" (2, 3, 2) (layout ());
  Ty.env_add env "l_t" list_node_v2;
  Alcotest.(check (triple int int int)) "v2 layout after env_add" (3, 4, 3) (layout ());
  Alcotest.(check int) "new field offset" 2 (Ty.field_offset env (Ty.Named "l_t") "new");
  for _ = 1 to 2 do
    Alcotest.check_raises "absent field, every call" Not_found (fun () ->
        ignore (Ty.field_offset env pair "missing"))
  done;
  Ty.env_add env "l_t"
    (Ty.Struct { sname = "l_t"; fields = [ ("value", Ty.Int); ("self", Ty.Named "l_t") ] });
  for _ = 1 to 3 do
    Alcotest.check_raises "recursive redefinition rejected every call"
      (Invalid_argument "Ty.sizeof_words: unbounded recursive struct l_t") (fun () ->
        ignore (Ty.sizeof_words env pair));
    Alcotest.check_raises "offset past it rejected every call"
      (Invalid_argument "Ty.sizeof_words: unbounded recursive struct l_t") (fun () ->
        ignore (Ty.field_offset env pair "tag"))
  done;
  Alcotest.(check int) "offset before it still answers" 0 (Ty.field_offset env pair "node")

let test_field_offsets () =
  let env = env_v2 () in
  Alcotest.(check int) "value at 0" 0 (Ty.field_offset env (Ty.Named "l_t") "value");
  Alcotest.(check int) "next at 1" 1 (Ty.field_offset env (Ty.Named "l_t") "next");
  Alcotest.(check int) "new at 2" 2 (Ty.field_offset env (Ty.Named "l_t") "new")

let test_field_ty () =
  let env = env_v1 () in
  match Ty.field_ty env (Ty.Named "l_t") "next" with
  | Ty.Ptr (Ty.Named "l_t") -> ()
  | other -> Alcotest.failf "unexpected field type %s" (Ty.to_string other)

let test_resolve_cycle_rejected () =
  let env = Ty.env_create () in
  Ty.env_add env "a" (Ty.Named "b");
  Ty.env_add env "b" (Ty.Named "a");
  Alcotest.check_raises "pure name cycle rejected"
    (Invalid_argument "Ty.resolve: cyclic named type a") (fun () ->
      ignore (Ty.resolve env (Ty.Named "a")))

(* ------------------------------------------------------------------ *)
(* Ty: slot classification *)

let slot_kind = function
  | Ty.Slot_scalar -> "scalar"
  | Ty.Slot_ptr _ -> "ptr"
  | Ty.Slot_void_ptr -> "voidptr"
  | Ty.Slot_func_ptr -> "funcptr"
  | Ty.Slot_encoded_ptr _ -> "encptr"
  | Ty.Slot_opaque -> "opaque"

let check_slots name env ty expected =
  let got = Array.to_list (Ty.slots env ty) |> List.map slot_kind in
  Alcotest.(check (list string)) name expected got

let test_slots_list_node () =
  check_slots "l_t slots" (env_v1 ()) (Ty.Named "l_t") [ "scalar"; "ptr" ]

let test_slots_char_array_opaque () =
  check_slots "char[16] opaque" (Ty.env_create ()) (Ty.Char_array 16) [ "opaque"; "opaque" ]

let test_slots_word_opaque_by_default () =
  check_slots "long opaque" (Ty.env_create ()) Ty.Word [ "opaque" ]

let test_slots_word_precise_policy () =
  let policy = { Ty.default_policy with words_opaque = false } in
  let got = Ty.slots ~policy (Ty.env_create ()) Ty.Word in
  Alcotest.(check string) "long scalar under relaxed policy" "scalar" (slot_kind got.(0))

let test_slots_union_opaque () =
  let u = Ty.Union [ ("p", Ty.Ptr Ty.Int); ("n", Ty.Word) ] in
  check_slots "union opaque" (Ty.env_create ()) u [ "opaque" ]

let test_slots_nested () =
  let env = env_v1 () in
  let ty =
    Ty.Struct
      {
        sname = "outer";
        fields =
          [ ("node", Ty.Named "l_t"); ("buf", Ty.Char_array 8); ("fp", Ty.Func_ptr) ];
      }
  in
  check_slots "nested struct" env ty [ "scalar"; "ptr"; "opaque"; "funcptr" ]

let test_slots_array_expansion () =
  let env = env_v1 () in
  let ty = Ty.Array (Ty.Named "l_t", 3) in
  check_slots "array of structs" env ty [ "scalar"; "ptr"; "scalar"; "ptr"; "scalar"; "ptr" ]

let test_slots_encoded_ptr () =
  let ty = Ty.Encoded_ptr { target = Ty.Int; mask = 3 } in
  check_slots "encoded ptr slot" (Ty.env_create ()) ty [ "encptr" ]

let test_slots_length_matches_sizeof () =
  let env = env_v2 () in
  let tys =
    [
      Ty.Named "l_t";
      Ty.Array (Ty.Named "l_t", 5);
      Ty.Char_array 100;
      Ty.Union [ ("a", Ty.Char_array 32); ("b", Ty.Int) ];
      Ty.Struct { sname = "s"; fields = [ ("a", Ty.Int); ("b", Ty.Array (Ty.Void_ptr, 4)) ] };
    ]
  in
  List.iter
    (fun ty ->
      Alcotest.(check int)
        ("len = sizeof for " ^ Ty.to_string ty)
        (Ty.sizeof_words env ty)
        (Array.length (Ty.slots env ty)))
    tys

let test_contains_opaque () =
  let env = env_v1 () in
  Alcotest.(check bool) "l_t has no opaque" false (Ty.contains_opaque env (Ty.Named "l_t"));
  Alcotest.(check bool) "char[8] opaque" true (Ty.contains_opaque env (Ty.Char_array 8))

(* ------------------------------------------------------------------ *)
(* Ty: equality across environments *)

let test_equal_same_type () =
  Alcotest.(check bool) "l_t = l_t across same-def envs" true
    (Ty.equal (env_v1 ()) (env_v1 ()) (Ty.Named "l_t") (Ty.Named "l_t"))

let test_equal_detects_added_field () =
  Alcotest.(check bool) "v1 l_t <> v2 l_t" false
    (Ty.equal (env_v1 ()) (env_v2 ()) (Ty.Named "l_t") (Ty.Named "l_t"))

let test_equal_recursive_terminates () =
  (* Recursive struct referencing itself through Ptr must not loop. *)
  Alcotest.(check bool) "recursive equality terminates" true
    (Ty.equal (env_v1 ()) (env_v1 ()) list_node_v1 list_node_v1)

let test_equal_scalar_kinds_differ () =
  let e = Ty.env_create () in
  Alcotest.(check bool) "int <> long" false (Ty.equal e e Ty.Int Ty.Word);
  Alcotest.(check bool) "ptr <> voidptr" false (Ty.equal e e (Ty.Ptr Ty.Int) Ty.Void_ptr)

(* ------------------------------------------------------------------ *)
(* Typlan *)

let test_plan_identity () =
  let env = env_v1 () in
  match Typlan.plan ~src_env:env ~dst_env:env ~src:(Ty.Named "l_t") ~dst:(Ty.Named "l_t") with
  | Ok p ->
      Alcotest.(check bool) "identity" true (Typlan.is_identity p);
      Alcotest.(check int) "words" 2 p.Typlan.dst_words
  | Error e -> Alcotest.fail e

let test_plan_figure2_added_field () =
  (* Figure 2: v2 adds field [new]; values copy, new field zeroes. *)
  match
    Typlan.plan ~src_env:(env_v1 ()) ~dst_env:(env_v2 ()) ~src:(Ty.Named "l_t")
      ~dst:(Ty.Named "l_t")
  with
  | Ok p ->
      Alcotest.(check bool) "not identity" false (Typlan.is_identity p);
      let src = [| 5; 0x9da68e8 |] in
      let dst = Array.make 3 (-1) in
      Typlan.apply p ~read:(fun i -> src.(i)) ~write:(fun i v -> dst.(i) <- v);
      Alcotest.(check (array int)) "value copied, next copied, new zeroed"
        [| 5; 0x9da68e8; 0 |] dst
  | Error e -> Alcotest.fail e

let test_plan_removed_field () =
  match
    Typlan.plan ~src_env:(env_v2 ()) ~dst_env:(env_v1 ()) ~src:(Ty.Named "l_t")
      ~dst:(Ty.Named "l_t")
  with
  | Ok p ->
      let src = [| 7; 0xbeef0; 99 |] in
      let dst = Array.make 2 (-1) in
      Typlan.apply p ~read:(fun i -> src.(i)) ~write:(fun i v -> dst.(i) <- v);
      Alcotest.(check (array int)) "removed field dropped" [| 7; 0xbeef0 |] dst
  | Error e -> Alcotest.fail e

let test_plan_reordered_fields () =
  let src_env = Ty.env_create () and dst_env = Ty.env_create () in
  let src = Ty.Struct { sname = "s"; fields = [ ("a", Ty.Int); ("b", Ty.Int) ] } in
  let dst = Ty.Struct { sname = "s"; fields = [ ("b", Ty.Int); ("a", Ty.Int) ] } in
  match Typlan.plan ~src_env ~dst_env ~src ~dst with
  | Ok p ->
      let sv = [| 1; 2 |] in
      let dv = Array.make 2 0 in
      Typlan.apply p ~read:(fun i -> sv.(i)) ~write:(fun i v -> dv.(i) <- v);
      Alcotest.(check (array int)) "fields follow names" [| 2; 1 |] dv
  | Error e -> Alcotest.fail e

let test_plan_char_array_grow_shrink () =
  let env = Ty.env_create () in
  (match Typlan.plan ~src_env:env ~dst_env:env ~src:(Ty.Char_array 8) ~dst:(Ty.Char_array 24) with
  | Ok p ->
      let sv = [| 0xAA |] in
      let dv = Array.make 3 (-1) in
      Typlan.apply p ~read:(fun i -> sv.(i)) ~write:(fun i v -> dv.(i) <- v);
      Alcotest.(check (array int)) "grow copies prefix, zeroes tail" [| 0xAA; 0; 0 |] dv
  | Error e -> Alcotest.fail e);
  match Typlan.plan ~src_env:env ~dst_env:env ~src:(Ty.Char_array 24) ~dst:(Ty.Char_array 8) with
  | Ok p ->
      let sv = [| 1; 2; 3 |] in
      let dv = Array.make 1 (-1) in
      Typlan.apply p ~read:(fun i -> sv.(i)) ~write:(fun i v -> dv.(i) <- v);
      Alcotest.(check (array int)) "shrink keeps prefix" [| 1 |] dv
  | Error e -> Alcotest.fail e

let test_plan_array_resize_with_elem_transform () =
  let src_env = env_v1 () and dst_env = env_v2 () in
  match
    Typlan.plan ~src_env ~dst_env ~src:(Ty.Array (Ty.Named "l_t", 2))
      ~dst:(Ty.Array (Ty.Named "l_t", 3))
  with
  | Ok p ->
      let sv = [| 1; 100; 2; 200 |] in
      let dv = Array.make 9 (-1) in
      Typlan.apply p ~read:(fun i -> sv.(i)) ~write:(fun i v -> dv.(i) <- v);
      Alcotest.(check (array int)) "elements transformed, tail zeroed"
        [| 1; 100; 0; 2; 200; 0; 0; 0; 0 |] dv
  | Error e -> Alcotest.fail e

let test_plan_scalar_pointer_confusion_rejected () =
  let env = Ty.env_create () in
  match Typlan.plan ~src_env:env ~dst_env:env ~src:Ty.Int ~dst:(Ty.Ptr Ty.Int) with
  | Ok _ -> Alcotest.fail "int -> ptr should be rejected"
  | Error _ -> ()

let test_plan_union_change_rejected () =
  let env = Ty.env_create () in
  let u1 = Ty.Union [ ("a", Ty.Int) ] in
  let u2 = Ty.Union [ ("a", Ty.Int); ("b", Ty.Ptr Ty.Int) ] in
  match Typlan.plan ~src_env:env ~dst_env:env ~src:u1 ~dst:u2 with
  | Ok _ -> Alcotest.fail "changed union should be rejected"
  | Error msg ->
      Alcotest.(check bool) "mentions handler" true
        (String.length msg > 0)

let test_plan_encoded_mask_change_rejected () =
  let env = Ty.env_create () in
  let p1 = Ty.Encoded_ptr { target = Ty.Int; mask = 3 } in
  let p2 = Ty.Encoded_ptr { target = Ty.Int; mask = 1 } in
  match Typlan.plan ~src_env:env ~dst_env:env ~src:p1 ~dst:p2 with
  | Ok _ -> Alcotest.fail "mask change should be rejected"
  | Error _ -> ()

let test_plan_nested_struct_evolution () =
  (* evolving a field that is itself a struct recurses field-by-field *)
  let inner_v1 = Ty.Struct { sname = "in"; fields = [ ("a", Ty.Int); ("b", Ty.Int) ] } in
  let inner_v2 =
    Ty.Struct { sname = "in"; fields = [ ("b", Ty.Int); ("a", Ty.Int); ("c", Ty.Int) ] }
  in
  let outer inner =
    Ty.Struct { sname = "out"; fields = [ ("pre", Ty.Int); ("mid", inner); ("post", Ty.Int) ] }
  in
  let env = Ty.env_create () in
  match Typlan.plan ~src_env:env ~dst_env:env ~src:(outer inner_v1) ~dst:(outer inner_v2) with
  | Ok p ->
      let src = [| 7; 100; 200; 9 |] in
      let dst = Array.make 5 (-1) in
      Typlan.apply p ~read:(Array.get src) ~write:(Array.set dst);
      Alcotest.(check (array int)) "nested fields follow names"
        [| 7; 200; 100; 0; 9 |] dst
  | Error e -> Alcotest.fail e

let test_plan_int_word_interchange () =
  let env = Ty.env_create () in
  match Typlan.plan ~src_env:env ~dst_env:env ~src:Ty.Int ~dst:Ty.Word with
  | Ok p -> Alcotest.(check bool) "int->long ok" true (Typlan.is_identity p)
  | Error e -> Alcotest.fail e

(* Property: for struct-to-struct plans, every word of the destination is
   written exactly once (copies and zeroes partition the destination). *)
let arbitrary_fields =
  let field_ty =
    QCheck.Gen.oneofl [ Ty.Int; Ty.Word; Ty.Ptr Ty.Int; Ty.Char_array 16; Ty.Void_ptr ]
  in
  QCheck.Gen.(
    list_size (int_range 1 8)
      (pair (oneofl [ "a"; "b"; "c"; "d"; "e"; "f"; "g"; "h" ]) field_ty))

let dedup_fields fields =
  let seen = Hashtbl.create 8 in
  List.filter
    (fun (n, _) -> if Hashtbl.mem seen n then false else (Hashtbl.add seen n (); true))
    fields

let prop_plan_covers_destination =
  QCheck.Test.make ~name:"struct plan writes every destination word exactly once" ~count:200
    (QCheck.make (QCheck.Gen.pair arbitrary_fields arbitrary_fields))
    (fun (f1, f2) ->
      let f1 = dedup_fields f1 and f2 = dedup_fields f2 in
      QCheck.assume (f1 <> [] && f2 <> []);
      let env = Ty.env_create () in
      let src = Ty.Struct { sname = "s"; fields = f1 } in
      let dst = Ty.Struct { sname = "s"; fields = f2 } in
      match Typlan.plan ~src_env:env ~dst_env:env ~src ~dst with
      | Error _ -> true (* rejection is fine; we only check accepted plans *)
      | Ok p ->
          let writes = Array.make p.Typlan.dst_words 0 in
          Typlan.apply p
            ~read:(fun _ -> 0)
            ~write:(fun i _ -> writes.(i) <- writes.(i) + 1);
          Array.for_all (( = ) 1) writes)

(* ------------------------------------------------------------------ *)
(* Symtab *)

let build_symtab () =
  let env = env_v1 () in
  let sp = Aspace.create () in
  let st =
    Symtab.build env sp
      ~data:[ ("b", Ty.Char_array 8); ("list", Ty.Named "l_t"); ("conf", Ty.Ptr Ty.Void_ptr) ]
      ~funcs:[ "main"; "server_init"; "server_get_event" ]
      ~strings:[ "welcome"; "config.path" ]
  in
  (env, sp, st)

let test_symtab_layout_order () =
  let _, _, st = build_symtab () in
  let b = Symtab.lookup st "b" in
  let list = Symtab.lookup st "list" in
  let conf = Symtab.lookup st "conf" in
  Alcotest.(check int) "b is 1 word" 1 b.Symtab.words;
  Alcotest.(check int) "list follows b" (Addr.add_words b.Symtab.addr 1) list.Symtab.addr;
  Alcotest.(check int) "conf follows list" (Addr.add_words list.Symtab.addr 2) conf.Symtab.addr

let test_symtab_lookup_missing () =
  let _, _, st = build_symtab () in
  Alcotest.(check bool) "missing is None" true (Symtab.lookup_opt st "nope" = None)

let test_symtab_func_roundtrip () =
  let _, _, st = build_symtab () in
  let a = Symtab.func_addr st "server_init" in
  Alcotest.(check (option string)) "reverse lookup" (Some "server_init")
    (Symtab.func_name_of_addr st a);
  Alcotest.(check bool) "distinct funcs distinct addrs" true
    (Symtab.func_addr st "main" <> Symtab.func_addr st "server_get_event")

let test_symtab_strings_interned () =
  let _, sp, st = build_symtab () in
  let a = Symtab.string_addr st "welcome" in
  Alcotest.(check string) "string readable" "welcome" (Access.read_string sp a)

let test_symtab_find_by_addr () =
  let _, _, st = build_symtab () in
  let list = Symtab.lookup st "list" in
  (match Symtab.find_data_by_addr st (Addr.add_words list.Symtab.addr 1) with
  | Some e -> Alcotest.(check string) "interior addr resolves" "list" e.Symtab.name
  | None -> Alcotest.fail "interior address should resolve");
  Alcotest.(check bool) "unrelated addr" true (Symtab.find_data_by_addr st 0x100 = None)

let test_symtab_regions_are_static () =
  let _, _, st = build_symtab () in
  List.iter
    (fun r -> Alcotest.(check bool) "static kind" true (r.Region.kind = Region.Static))
    [ Symtab.data_region st; Symtab.rodata_region st; Symtab.text_region st ]

(* ------------------------------------------------------------------ *)
(* Access *)

let test_access_field_roundtrip () =
  let env, sp, st = build_symtab () in
  let list = Symtab.lookup st "list" in
  Access.write_field sp env ~base:list.Symtab.addr (Ty.Named "l_t") "value" 42;
  Alcotest.(check int) "field roundtrip" 42
    (Access.read_field sp env ~base:list.Symtab.addr (Ty.Named "l_t") "value")

let test_access_elem_addr () =
  let env = env_v1 () in
  let base = 0x10000 in
  let a2 = Access.elem_addr env ~base (Ty.Array (Ty.Named "l_t", 4)) 2 in
  Alcotest.(check int) "element 2 of 2-word elems" (Addr.add_words base 4) a2

let test_access_write_bytes_tracked () =
  let _, sp, st = build_symtab () in
  let b = Symtab.lookup st "b" in
  Aspace.epoch_reset sp ~name:"startup";
  Access.write_bytes sp b.Symtab.addr "hi";
  Alcotest.(check bool) "server writes dirty the page" true
    (Aspace.epoch_page_dirty sp ~name:"startup" b.Symtab.addr);
  Alcotest.(check string) "bytes readable" "hi" (Access.read_string sp b.Symtab.addr)

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "mcr_types"
    [
      ( "sizeof-offsets",
        [
          Alcotest.test_case "scalars" `Quick test_sizeof_scalars;
          Alcotest.test_case "structs" `Quick test_sizeof_struct;
          Alcotest.test_case "union max" `Quick test_sizeof_union_max;
          Alcotest.test_case "recursion rejected" `Quick test_sizeof_recursive_rejected;
          Alcotest.test_case "layout memo follows env_add" `Quick
            test_layout_memo_follows_env_add;
          Alcotest.test_case "field offsets" `Quick test_field_offsets;
          Alcotest.test_case "field type" `Quick test_field_ty;
          Alcotest.test_case "resolve cycle rejected" `Quick test_resolve_cycle_rejected;
        ] );
      ( "slots",
        [
          Alcotest.test_case "list node" `Quick test_slots_list_node;
          Alcotest.test_case "char array opaque" `Quick test_slots_char_array_opaque;
          Alcotest.test_case "word opaque by default" `Quick test_slots_word_opaque_by_default;
          Alcotest.test_case "word precise under policy" `Quick test_slots_word_precise_policy;
          Alcotest.test_case "union opaque" `Quick test_slots_union_opaque;
          Alcotest.test_case "nested struct" `Quick test_slots_nested;
          Alcotest.test_case "array expansion" `Quick test_slots_array_expansion;
          Alcotest.test_case "encoded pointer" `Quick test_slots_encoded_ptr;
          Alcotest.test_case "length matches sizeof" `Quick test_slots_length_matches_sizeof;
          Alcotest.test_case "contains opaque" `Quick test_contains_opaque;
        ] );
      ( "equality",
        [
          Alcotest.test_case "same type" `Quick test_equal_same_type;
          Alcotest.test_case "added field detected" `Quick test_equal_detects_added_field;
          Alcotest.test_case "recursion terminates" `Quick test_equal_recursive_terminates;
          Alcotest.test_case "scalar kinds differ" `Quick test_equal_scalar_kinds_differ;
        ] );
      ( "typlan",
        [
          Alcotest.test_case "identity" `Quick test_plan_identity;
          Alcotest.test_case "figure 2 added field" `Quick test_plan_figure2_added_field;
          Alcotest.test_case "removed field" `Quick test_plan_removed_field;
          Alcotest.test_case "reordered fields" `Quick test_plan_reordered_fields;
          Alcotest.test_case "char array resize" `Quick test_plan_char_array_grow_shrink;
          Alcotest.test_case "array resize + transform" `Quick test_plan_array_resize_with_elem_transform;
          Alcotest.test_case "scalar/pointer confusion rejected" `Quick
            test_plan_scalar_pointer_confusion_rejected;
          Alcotest.test_case "union change rejected" `Quick test_plan_union_change_rejected;
          Alcotest.test_case "encoded mask change rejected" `Quick
            test_plan_encoded_mask_change_rejected;
          Alcotest.test_case "int/long interchange" `Quick test_plan_int_word_interchange;
          Alcotest.test_case "nested struct evolution" `Quick test_plan_nested_struct_evolution;
          qt prop_plan_covers_destination;
        ] );
      ( "symtab",
        [
          Alcotest.test_case "layout order" `Quick test_symtab_layout_order;
          Alcotest.test_case "missing symbol" `Quick test_symtab_lookup_missing;
          Alcotest.test_case "function roundtrip" `Quick test_symtab_func_roundtrip;
          Alcotest.test_case "strings interned" `Quick test_symtab_strings_interned;
          Alcotest.test_case "find by address" `Quick test_symtab_find_by_addr;
          Alcotest.test_case "regions are static" `Quick test_symtab_regions_are_static;
        ] );
      ( "access",
        [
          Alcotest.test_case "field roundtrip" `Quick test_access_field_roundtrip;
          Alcotest.test_case "element address" `Quick test_access_elem_addr;
          Alcotest.test_case "write bytes tracked" `Quick test_access_write_bytes_tracked;
        ] );
    ]
