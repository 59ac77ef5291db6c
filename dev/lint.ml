(* Typed lint over the .cmt/.cmti files that [dune build @check] writes.

   It reads every compiled unit under lib/, bin/, bench/, perfbench/,
   examples/, dev/ and test/, and matches each use to its declaration
   by the compiler's unique ids, so module aliases ([module E =
   Experiments], [let module S = Cdw_obs.Trace_summary in], [open])
   and labels or constructors that share a name with another type's
   are told apart. Code under test/ is a "test" caller; everything
   else is a "product" caller. Six checks:

   1. Exports: every top-level [val] of lib/*/*.mli has a product
      caller outside its own module.
   2. Labels: every record label declared in lib/ (inline records
      included) is read by product code: a field access [r.l], or a
      record pattern that binds it ([{ l = p }], the pun [{ l }], not
      [{ l = _ }]). Building, [{ r with ... }] and [<-] are writes, and
      so is a read inside the new value of the label being written
      ([r.l <- f r.l]).
   3. Optional arguments: each [?l] of an export is passed by some
      product caller (the module's own calls count), and not always
      with the same constant.
   4. Constructors of lib/'s variants are built by product code.
   5. A constructor that product code builds is matched by name
      somewhere (a pattern, or an [=]/[<>] operand).
   6. Mutable and [Atomic.t] fields are read, not only written: the
      field passed straight to [Atomic.set]/[incr]/[decr] is a write.

   An item that only test/ uses (an export, a label, a constructor, or
   an optional argument that only tests pass) needs the marker
   [Test-only:] and a reason in its doc comment; for an optional
   argument the doc of its function also names [?l].

   Run from the repo root after [dune build @check]:
     dune exec dev/lint.exe
   Prints every list; exits 1 on any finding. *)

open Typedtree

let marker = "Test-only:"
let dirs = [ "lib"; "bin"; "bench"; "perfbench"; "examples"; "dev"; "test" ]
let build = "_build/default"

let rec units dir =
  if not (Sys.file_exists dir && Sys.is_directory dir) then []
  else
    Sys.readdir dir |> Array.to_list |> List.sort compare
    |> List.concat_map (fun f ->
           let p = Filename.concat dir f in
           if Sys.is_directory p then units p
           else if Filename.check_suffix f ".cmt" || Filename.check_suffix f ".cmti" then [ p ]
           else [])

let contains s sub =
  let n = String.length s and k = String.length sub in
  let rec go i = i + k <= n && (String.sub s i k = sub || go (i + 1)) in
  go 0

let doc_text (attrs : Parsetree.attributes) =
  List.filter_map
    (fun (a : Parsetree.attribute) ->
      match (a.attr_name.txt, a.attr_payload) with
      | ( "ocaml.doc",
          PStr
            [
              {
                pstr_desc =
                  Pstr_eval ({ pexp_desc = Pexp_constant (Pconst_string (s, _, _)); _ }, _);
                _;
              };
            ] ) ->
          Some s
      | _ -> None)
    attrs
  |> String.concat "\n"

(* ---- declarations ---- *)

type kind = Value of string list (* its optional labels *) | Label of bool (* mutable *) | Ctor

(* One declared item, keyed "Module.name", "Module.type.label",
   "Module.type.Ctor" or "Module.type.Ctor.label". An .ml and its .mli
   declare a type once each: both map to one item, docs merged. *)
type item = { key : string; kind : kind; file : string; line : int; mutable doc : string }

let items : (string, item) Hashtbl.t = Hashtbl.create 2048
(* An .ml and its .mli number their uids apart, from 0 each: a uid is
   looked up with whether it came from an interface. *)
let key_of_uid : (bool * Shape.Uid.t, string) Hashtbl.t = Hashtbl.create 4096
let interfaces : (string, unit) Hashtbl.t = Hashtbl.create 128

let declare ~intf uid key kind (loc : Location.t) doc =
  Hashtbl.replace key_of_uid (intf, uid) key;
  match Hashtbl.find_opt items key with
  | Some it -> it.doc <- it.doc ^ "\n" ^ doc
  | None ->
      Hashtbl.replace items key
        { key; kind; file = loc.loc_start.pos_fname; line = loc.loc_start.pos_lnum; doc }

let rec optionals ty =
  match Types.get_desc ty with
  | Tarrow (Optional l, _, r, _) -> l :: optionals r
  | Tarrow (_, _, r, _) -> optionals r
  | _ -> []

(* [Atomic.t] reads as [Stdlib__Atomic.t] or [Stdlib.Atomic.t]. *)
let in_atomic = function
  | Path.Pdot (m, _) -> String.ends_with ~suffix:"Atomic" (Path.name m)
  | _ -> false

(* A label's type comes wrapped in [Ttyp_poly]. *)
let rec is_atomic (ct : core_type) =
  match ct.ctyp_desc with
  | Ttyp_constr (p, _, _) -> in_atomic p
  | Ttyp_poly (_, ct) -> is_atomic ct
  | _ -> false

(* Typedtree declarations carry the docs, [Types] ones the uids. *)
let declare_type ~intf prefix (td : type_declaration) =
  let owner = prefix ^ "." ^ td.typ_name.txt in
  let labels owner lds (tlds : Types.label_declaration list) =
    List.iter2
      (fun (ld : label_declaration) (tld : Types.label_declaration) ->
        declare ~intf tld.ld_uid (owner ^ "." ^ ld.ld_name.txt)
          (Label (ld.ld_mutable = Mutable || is_atomic ld.ld_type))
          ld.ld_loc (doc_text ld.ld_attributes))
      lds tlds
  in
  match (td.typ_kind, td.typ_type.type_kind) with
  | Ttype_record lds, Type_record (tlds, _) -> labels owner lds tlds
  | Ttype_variant cds, Type_variant (tcds, _) ->
      List.iter2
        (fun (cd : constructor_declaration) (tcd : Types.constructor_declaration) ->
          let key = owner ^ "." ^ cd.cd_name.txt in
          declare ~intf tcd.cd_uid key Ctor cd.cd_loc (doc_text cd.cd_attributes);
          match (cd.cd_args, tcd.cd_args) with
          | Cstr_record lds, Cstr_record tlds -> labels key lds tlds
          | _ -> ())
        cds tcds
  | _ -> ()

let rec declare_sig prefix ~top (sg : signature) =
  List.iter
    (fun (si : signature_item) ->
      match si.sig_desc with
      | Tsig_value vd when top ->
          declare ~intf:true vd.val_val.val_uid (prefix ^ "." ^ vd.val_name.txt)
            (Value (optionals vd.val_val.val_type))
            vd.val_loc (doc_text vd.val_attributes)
      | Tsig_type (_, tds) -> List.iter (declare_type ~intf:true prefix) tds
      | Tsig_module
          { md_name = { txt = Some m; _ }; md_type = { mty_desc = Tmty_signature sg; _ }; _ } ->
          declare_sig (prefix ^ "." ^ m) ~top:false sg
      | _ -> ())
    sg.sig_items

let rec declare_str prefix (str : structure) =
  List.iter
    (fun (si : structure_item) ->
      match si.str_desc with
      | Tstr_type (_, tds) -> List.iter (declare_type ~intf:false prefix) tds
      | Tstr_module { mb_name = { txt = Some m; _ }; mb_expr; _ } ->
          let rec body me =
            match me.mod_desc with
            | Tmod_structure s -> declare_str (prefix ^ "." ^ m) s
            | Tmod_constraint (me, _, _, _) | Tmod_functor (_, me) -> body me
            | _ -> ()
          in
          body mb_expr
      | _ -> ())
    str.str_items

(* ---- uses ---- *)

(* "what:key" -> used by product code / by tests. *)
let prod : (string, unit) Hashtbl.t = Hashtbl.create 4096
let test : (string, unit) Hashtbl.t = Hashtbl.create 4096

(* "Module.f?l" -> what each product use of [f] passes as [?l]: the
   printed constant, "" for anything else, or None when omitted. *)
let passes : (string, string option) Hashtbl.t = Hashtbl.create 256

let rec constant e =
  match e.exp_desc with
  | Texp_constant _ -> true
  | Texp_construct (_, _, args) | Texp_tuple args -> List.for_all constant args
  | _ -> false

let scan_unit ~is_test ~self ~unit_name (str : structure) =
  let mark what key = Hashtbl.replace (if is_test then test else prod) (what ^ ":" ^ key) () in
  (* The unit's own top-level values, for its calls to its own exports. *)
  let own = Hashtbl.create 64 in
  Option.iter
    (fun m ->
      List.iter
        (fun (si : structure_item) ->
          match si.str_desc with
          | Tstr_value (_, vbs) ->
              List.iter
                (fun vb ->
                  match vb.vb_pat.pat_desc with
                  | Tpat_var (id, { txt; _ }) -> Hashtbl.replace own id (m ^ "." ^ txt)
                  | _ -> ())
                vbs
          | _ -> ())
        str.str_items)
    self;
  let uid_key (uid : Shape.Uid.t) =
    match uid with
    | Item { comp_unit; _ } ->
        let intf = comp_unit <> unit_name && Hashtbl.mem interfaces comp_unit in
        Hashtbl.find_opt key_of_uid (intf, uid)
    | _ -> None
  in
  let value_key path (vd : Types.value_description) =
    match (path, uid_key vd.val_uid) with
    | _, Some k -> Some (k, false)
    | Path.Pident id, None -> Option.map (fun k -> (k, true)) (Hashtbl.find_opt own id)
    | _ -> None
  in
  let module_of key = String.sub key 0 (String.index key '.') in
  (* A use of the value [key] that passes [args]. *)
  let call (key, inside) args =
    if not inside && Some (module_of key) <> self then mark "v" key;
    match Hashtbl.find_opt items key with
    | Some { kind = Value labels; _ } ->
        List.iter
          (fun l ->
            let passed =
              List.find_map
                (fun (lab, a) ->
                  match (lab, a) with
                  | Asttypes.Optional l', Some e when l' = l && e.exp_loc <> Location.none ->
                      Some
                        (if constant e then
                           Pprintast.string_of_expression (Untypeast.untype_expression e)
                         else "")
                  | _ -> None)
                args
            in
            if passed <> None then mark "o" (key ^ "?" ^ l);
            if not is_test then Hashtbl.add passes (key ^ "?" ^ l) passed)
          labels
    | _ -> ()
  in
  let writing = ref [] in
  let label what (lbl : Types.label_description) =
    match uid_key lbl.lbl_uid with
    | Some k when not (what = "r" && List.mem k !writing) -> mark what k
    | _ -> ()
  in
  let ctor what (cd : Types.constructor_description) =
    Option.iter (mark what) (uid_key cd.cstr_uid)
  in
  let super = Tast_iterator.default_iterator in
  let writing_into self lbl e =
    let saved = !writing in
    Option.iter (fun k -> writing := k :: saved) (uid_key lbl.Types.lbl_uid);
    self.Tast_iterator.expr self e;
    writing := saved
  in
  let expr (self : Tast_iterator.iterator) e =
    match e.exp_desc with
    | Texp_ident (path, _, vd) -> Option.iter (fun k -> call k []) (value_key path vd)
    | Texp_apply ({ exp_desc = Texp_ident (path, _, vd); _ }, args) ->
        Option.iter (fun k -> call k args) (value_key path vd);
        let args = List.filter_map snd args in
        (match (Path.name path, args) with
        | _, { exp_desc = Texp_field (r, _, lbl); _ } :: rest
          when in_atomic path && List.mem (Path.last path) [ "set"; "incr"; "decr" ] ->
            label "w" lbl;
            List.iter (self.expr self) (r :: rest)
        | ("Stdlib.=" | "Stdlib.<>"), _ ->
            List.iter
              (fun a ->
                match a.exp_desc with Texp_construct (_, cd, []) -> ctor "m" cd | _ -> ())
              args;
            List.iter (self.expr self) args
        | _ -> List.iter (self.expr self) args)
    | Texp_field (r, _, lbl) ->
        label "r" lbl;
        self.expr self r
    | Texp_setfield (r, _, lbl, v) ->
        self.expr self r;
        writing_into self lbl v
    | Texp_record { fields; extended_expression; _ } ->
        Option.iter (self.expr self) extended_expression;
        Array.iter
          (fun (lbl, def) ->
            match def with Overridden (_, v) -> writing_into self lbl v | Kept _ -> ())
          fields
    | Texp_construct (_, cd, args) ->
        ctor "b" cd;
        List.iter (self.expr self) args
    | _ -> super.expr self e
  in
  let pat (type k) (self : Tast_iterator.iterator) (p : k general_pattern) =
    (match p.pat_desc with
    | Tpat_record (fields, _) ->
        List.iter
          (fun (_, lbl, (q : pattern)) -> if q.pat_desc <> Tpat_any then label "r" lbl)
          fields
    | Tpat_construct (_, cd, _, _) -> ctor "m" cd
    | _ -> ());
    super.pat self p
  in
  let it = { super with expr; pat } in
  it.structure it str

(* ---- report ---- *)

let () =
  let files = List.concat_map (fun d -> units (Filename.concat build d)) dirs in
  if not (List.exists (fun f -> Filename.check_suffix f ".cmti") files) then
    failwith "no .cmti files: run `dune build @check` from the repo root first";
  let cmts = List.map (fun f -> (f, Cmt_format.read_cmt f)) files in
  (* lib/'s units are "Cdw_lib__Module"; its wrappers have no "__". *)
  let lib_module (f, (c : Cmt_format.cmt_infos)) =
    let m = c.cmt_modname in
    let rec split i =
      if i + 2 > String.length m then None
      else if m.[i] = '_' && m.[i + 1] = '_' then
        Some (String.sub m (i + 2) (String.length m - i - 2))
      else split (i + 1)
    in
    if String.starts_with ~prefix:(build ^ "/lib/") f then split 0 else None
  in
  (* Interfaces first: an item is reported at its .mli line. *)
  List.iter
    (fun ((_, (c : Cmt_format.cmt_infos)) as u) ->
      match (lib_module u, c.cmt_annots) with
      | Some m, Interface sg ->
          Hashtbl.replace interfaces c.cmt_modname ();
          declare_sig m ~top:true sg
      | _ -> ())
    cmts;
  List.iter
    (fun ((_, (c : Cmt_format.cmt_infos)) as u) ->
      match (lib_module u, c.cmt_annots) with
      | Some m, Implementation str -> declare_str m str
      | _ -> ())
    cmts;
  List.iter
    (fun ((f, (c : Cmt_format.cmt_infos)) as u) ->
      match c.cmt_annots with
      | Implementation str ->
          scan_unit
            ~is_test:(String.starts_with ~prefix:(build ^ "/test/") f)
            ~self:(lib_module u) ~unit_name:c.cmt_modname str
      | _ -> ())
    cmts;
  let all = Hashtbl.fold (fun _ it acc -> it :: acc) items [] |> List.sort compare in
  let used tbl what key = Hashtbl.mem tbl (what ^ ":" ^ key) in
  let reason it = contains it.doc marker in
  let findings = ref 0 in
  (* Every item listed is a finding, unless [reasoned] says it has its
     Test-only: reason. *)
  let section title ?reasoned list =
    Printf.printf "%s (%d):\n" title (List.length list);
    List.iter
      (fun (it, what) ->
        let ok = match reasoned with Some r -> r it what | None -> false in
        if not ok then incr findings;
        Printf.printf "  %s:%d  %s%s%s\n" it.file it.line it.key what
          (if reasoned <> None && not ok then "    <- no \"Test-only:\" reason" else ""))
      list
  in
  (* Items that product code does not use through [what]: (unused, test-only). *)
  let split what pred =
    List.filter (fun it -> pred it.kind && not (used prod what it.key)) all
    |> List.partition (fun it -> not (used test what it.key))
  in
  let plain = List.map (fun it -> (it, "")) in
  let reasoned it _ = reason it in
  let is_value = function Value _ -> true | _ -> false in
  let dead, test_only = split "v" is_value in
  section "dead exports" (plain dead);
  section "test-only exports" ~reasoned (plain test_only);
  let unread, test_read = split "r" (function Label m -> not m | _ -> false) in
  section "unread labels" (plain unread);
  section "test-only labels" ~reasoned (plain test_read);
  let write_only, test_read_fields = split "r" (function Label m -> m | _ -> false) in
  section "write-only fields" (plain write_only);
  section "test-only fields" ~reasoned (plain test_read_fields);
  let args =
    List.concat_map
      (fun it -> match it.kind with Value ls -> List.map (fun l -> (it, "?" ^ l)) ls | _ -> [])
      all
  in
  let arg_used tbl (it, l) = used tbl "o" (it.key ^ l) in
  let unpassed = List.filter (fun a -> not (arg_used prod a)) args in
  section "never-passed optional arguments" (List.filter (fun a -> not (arg_used test a)) unpassed);
  section "test-only optional arguments"
    ~reasoned:(fun it l -> reason it && contains it.doc l)
    (List.filter (arg_used test) unpassed);
  section "optional arguments always passed one constant"
    (List.filter_map
       (fun (it, l) ->
         match Hashtbl.find_all passes (it.key ^ l) with
         | Some v :: rest when v <> "" && List.for_all (( = ) (Some v)) rest ->
             Some (it, l ^ " = " ^ v)
         | _ -> None)
       (List.filter (arg_used prod) args));
  let unbuilt, test_built = split "b" (( = ) Ctor) in
  section "never-built constructors" (plain unbuilt);
  section "test-only constructors" ~reasoned (plain test_built);
  section "built but never matched constructors"
    (plain
       (List.filter
          (fun it ->
            it.kind = Ctor && used prod "b" it.key
            && not (used prod "m" it.key || used test "m" it.key))
          all));
  let count p = List.length (List.filter p all) in
  Printf.printf "%d exported values (%d optional arguments), %d record labels, %d constructors\n"
    (count (fun it -> is_value it.kind))
    (List.length args)
    (count (fun it -> match it.kind with Label _ -> true | _ -> false))
    (count (fun it -> it.kind = Ctor));
  if !findings > 0 then (
    Printf.printf "%d finding(s)\n" !findings;
    exit 1)
