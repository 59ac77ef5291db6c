(* Export lint: every top-level [val] in [lib/*/*.mli] must have a caller.

   A caller is code outside the defining module: another module of
   [lib/], or [bin/], [bench/], [perfbench/], [examples/] or [dev/].
   A value reached only from [test/] is "test-only" and must say why in
   its doc comment, with the grep-able marker [Test-only:] (a test
   oracle, a fault-injection hook, ...). A value with no caller at all
   is "dead".

   References are resolved on the parsed AST, not by grep:
   [module X = Cdw_lib.M] aliases, [open M] / [M.( ... )] /
   [let open M in] / [include M] (unqualified names count against every
   module the file opens). A signature that re-exports another module
   ([include module type of M]) is not followed: the values it
   re-exports show up as dead.

   Record labels: every label declared in [lib/] (a record type's, or
   an inline record's of a constructor) must be read: a field access
   [r.l], or a record pattern that binds it ([{ l = p }] or the pun
   [{ l }], not [{ l = _ }]). Reads count from the same callers as
   values; a label read only from [test/] needs a [Test-only:] reason
   in its doc comment, and a label read nowhere is "unread". Building
   a record, copying one with [{ r with ... }] and assigning with [<-]
   are writes, and so is a read inside the new value of the label
   being written ([r.l <- f r.l], [{ r with l = f r.l }]). Labels are
   matched by name, untyped: a label whose name some other record reads
   passes, so the check can miss a dead label but never invents one.

   Run from the repo root:  dune exec dev/export_lint.exe
   Prints the dead, test-only and unread lists; exits 1 if any value or
   label is dead (unread) or test-only without a reason. *)

let caller_dirs = [ "bin"; "bench"; "perfbench"; "examples"; "dev" ]
let marker = "Test-only:"

let files_in dir ext =
  if Sys.file_exists dir && Sys.is_directory dir then
    Sys.readdir dir |> Array.to_list |> List.sort compare
    |> List.filter (fun f -> Filename.check_suffix f ext)
    |> List.map (Filename.concat dir)
  else []

let lib_dirs () = List.filter Sys.is_directory (files_in "lib" "")

let module_of path =
  String.capitalize_ascii (Filename.remove_extension (Filename.basename path))

let parse parser path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let lexbuf = Lexing.from_channel ic in
      Location.init lexbuf path;
      parser lexbuf)

(* ---- exports ---- *)

type export = { m : string; name : string; file : string; line : int; reason : bool }

let doc_text (attrs : Parsetree.attributes) =
  List.filter_map
    (fun (a : Parsetree.attribute) ->
      match (a.attr_name.txt, a.attr_payload) with
      | ( "ocaml.doc",
          PStr
            [
              {
                pstr_desc =
                  Pstr_eval
                    ({ pexp_desc = Pexp_constant (Pconst_string (s, _, _)); _ }, _);
                _;
              };
            ] ) ->
          Some s
      | _ -> None)
    attrs
  |> String.concat "\n"

let contains s sub =
  let n = String.length s and k = String.length sub in
  let rec go i = i + k <= n && (String.sub s i k = sub || go (i + 1)) in
  go 0

let read_interface path =
  let m = module_of path in
  let sg = parse Parse.interface path in
  List.filter_map
    (fun (item : Parsetree.signature_item) ->
      match item.psig_desc with
      | Psig_value vd ->
          Some
            {
              m;
              name = vd.pval_name.txt;
              file = path;
              line = vd.pval_loc.loc_start.pos_lnum;
              reason = contains (doc_text vd.pval_attributes) marker;
            }
      | _ -> None)
    sg

(* ---- references ---- *)

(* Module name -> its exported value names. *)
let exported : (string, (string, unit) Hashtbl.t) Hashtbl.t = Hashtbl.create 64

(* The (module, value) pairs one file refers to, its own module excluded. *)
let references ~self path =
  let str = parse Parse.implementation path in
  let aliases = Hashtbl.create 16 in
  let opened = ref [] in
  let qualified = ref [] in
  let bare = Hashtbl.create 256 in
  let resolve lid =
    let last = Longident.last lid in
    Option.value ~default:last (Hashtbl.find_opt aliases last)
  in
  let alias name (me : Parsetree.module_expr) =
    match (name, me.pmod_desc) with
    | Some n, Pmod_ident { txt; _ } -> Hashtbl.replace aliases n (resolve txt)
    | _ -> ()
  in
  let open_ (me : Parsetree.module_expr) =
    match me.pmod_desc with
    | Pmod_ident { txt; _ } -> opened := resolve txt :: !opened
    | _ -> ()
  in
  let super = Ast_iterator.default_iterator in
  let it =
    {
      super with
      structure_item =
        (fun self item ->
          (match item.pstr_desc with
          | Pstr_module mb -> alias mb.pmb_name.txt mb.pmb_expr
          | Pstr_open od -> open_ od.popen_expr
          | Pstr_include incl -> open_ incl.pincl_mod
          | _ -> ());
          super.structure_item self item);
      expr =
        (fun self e ->
          (match e.pexp_desc with
          | Pexp_ident { txt = Ldot (p, v); _ } -> qualified := (resolve p, v) :: !qualified
          | Pexp_ident { txt = Lident v; _ } -> Hashtbl.replace bare v ()
          | Pexp_letmodule ({ txt; _ }, me, _) -> alias txt me
          | Pexp_open (od, _) -> open_ od.popen_expr
          | _ -> ());
          super.expr self e);
    }
  in
  it.structure it str;
  let from_opens =
    List.concat_map
      (fun m -> Hashtbl.fold (fun v () acc -> (m, v) :: acc) bare [])
      !opened
  in
  List.filter_map
    (fun (m, v) ->
      match Hashtbl.find_opt exported m with
      | Some vals when Hashtbl.mem vals v && Some m <> self -> Some (m, v)
      | _ -> None)
    (!qualified @ from_opens)

(* ---- record labels ---- *)

type label = {
  l_owner : string;
  l_name : string;
  l_file : string;
  l_line : int;
  l_reason : bool;
}

(* Every label one file of [lib/] declares, owner = Module.type (or
   Module.type.Constructor for an inline record). *)
let declared_labels path =
  let m = module_of path in
  let out = ref [] in
  let add owner (ld : Parsetree.label_declaration) =
    out :=
      {
        l_owner = owner;
        l_name = ld.pld_name.txt;
        l_file = path;
        l_line = ld.pld_loc.loc_start.pos_lnum;
        l_reason = contains (doc_text ld.pld_attributes) marker;
      }
      :: !out
  in
  let super = Ast_iterator.default_iterator in
  let it =
    {
      super with
      type_declaration =
        (fun self td ->
          let owner = m ^ "." ^ td.ptype_name.txt in
          (match td.ptype_kind with
          | Ptype_record lds -> List.iter (add owner) lds
          | Ptype_variant cds ->
              List.iter
                (fun (cd : Parsetree.constructor_declaration) ->
                  match cd.pcd_args with
                  | Pcstr_record lds ->
                      List.iter (add (owner ^ "." ^ cd.pcd_name.txt)) lds
                  | Pcstr_tuple _ -> ())
                cds
          | Ptype_abstract | Ptype_open -> ());
          super.type_declaration self td);
    }
  in
  if Filename.check_suffix path ".mli" then it.signature it (parse Parse.interface path)
  else it.structure it (parse Parse.implementation path);
  !out

(* The label names one file reads, into [tbl]. *)
let read_labels tbl path =
  let writing = ref [] in
  let read lid =
    let l = Longident.last lid in
    if not (List.mem l !writing) then Hashtbl.replace tbl l ()
  in
  let super = Ast_iterator.default_iterator in
  (* [e] is the new value of label [lid]: reads of that label in it are
     part of the write. *)
  let writing_into self lid e =
    let saved = !writing in
    writing := Longident.last lid :: saved;
    self.Ast_iterator.expr self e;
    writing := saved
  in
  let it =
    {
      super with
      expr =
        (fun self e ->
          match e.pexp_desc with
          | Pexp_field (r, { txt; _ }) ->
              read txt;
              self.expr self r
          | Pexp_setfield (r, { txt; _ }, v) ->
              self.expr self r;
              writing_into self txt v
          | Pexp_record (fields, base) ->
              Option.iter (self.expr self) base;
              List.iter (fun ({ Location.txt; _ }, v) -> writing_into self txt v) fields
          | _ -> super.expr self e);
      pat =
        (fun self p ->
          (match p.ppat_desc with
          | Ppat_record (fields, _) ->
              List.iter
                (fun ({ Location.txt; _ }, (q : Parsetree.pattern)) ->
                  match q.ppat_desc with Ppat_any -> () | _ -> read txt)
                fields
          | _ -> ());
          super.pat self p);
    }
  in
  it.structure it (parse Parse.implementation path)

let () =
  let interfaces = List.concat_map (fun d -> files_in d ".mli") (lib_dirs ()) in
  if interfaces = [] then failwith "no lib/*/*.mli here: run from the repo root";
  let exports =
    List.concat_map
      (fun path ->
        let vals = read_interface path in
        let tbl = Hashtbl.create 16 in
        List.iter (fun e -> Hashtbl.replace tbl e.name ()) vals;
        Hashtbl.replace exported (module_of path) tbl;
        vals)
      interfaces
  in
  let used_by files =
    let tbl = Hashtbl.create 1024 in
    List.iter
      (fun (path, self) ->
        List.iter (fun r -> Hashtbl.replace tbl r ()) (references ~self path))
      files;
    tbl
  in
  let ml dirs = List.concat_map (fun d -> files_in d ".ml") dirs in
  let prod =
    used_by
      (List.map (fun p -> (p, Some (module_of p))) (ml (lib_dirs ()))
      @ List.map (fun p -> (p, None)) (ml caller_dirs))
  in
  let test = used_by (List.map (fun p -> (p, None)) (ml [ "test" ])) in
  let dead, test_only =
    List.fold_left
      (fun (dead, tonly) e ->
        let k = (e.m, e.name) in
        if Hashtbl.mem prod k then (dead, tonly)
        else if Hashtbl.mem test k then (dead, e :: tonly)
        else (e :: dead, tonly))
      ([], []) exports
  in
  let show e = Printf.printf "  %s:%d  %s.%s\n" e.file e.line e.m e.name in
  let dead = List.rev dead and test_only = List.rev test_only in
  let unreasoned = List.filter (fun e -> not e.reason) test_only in
  Printf.printf "dead (%d):\n" (List.length dead);
  List.iter show dead;
  Printf.printf "test-only (%d, %d without a %S reason):\n" (List.length test_only)
    (List.length unreasoned) marker;
  List.iter
    (fun e ->
      show e;
      if not e.reason then print_endline "    ^ no reason")
    test_only;
  Printf.printf "%d exported values in %d interfaces\n" (List.length exports)
    (List.length interfaces);
  (* A label an .ml and its .mli both declare is one label, with the
     .mli's doc (listed second). *)
  let labels =
    List.concat_map
      (fun d -> List.concat_map declared_labels (files_in d ".ml" @ files_in d ".mli"))
      (lib_dirs ())
    |> List.stable_sort (fun a b -> compare (a.l_owner, a.l_name) (b.l_owner, b.l_name))
    |> List.fold_left
         (fun acc l ->
           match acc with
           | p :: rest when p.l_owner = l.l_owner && p.l_name = l.l_name ->
               { l with l_reason = l.l_reason || p.l_reason } :: rest
           | _ -> l :: acc)
         []
    |> List.rev
  in
  let reads dirs =
    let tbl = Hashtbl.create 1024 in
    List.iter (read_labels tbl) (ml dirs);
    fun l -> Hashtbl.mem tbl l.l_name
  in
  let read_in_prod = reads (lib_dirs () @ caller_dirs) and read_in_test = reads [ "test" ] in
  let test_read, unread =
    List.filter (fun l -> not (read_in_prod l)) labels |> List.partition read_in_test
  in
  let show_label l =
    Printf.printf "  %s:%d  %s.%s\n" l.l_file l.l_line l.l_owner l.l_name
  in
  let unreasoned_labels = List.filter (fun l -> not l.l_reason) test_read in
  Printf.printf "unread record labels (%d):\n" (List.length unread);
  List.iter show_label unread;
  Printf.printf "test-only record labels (%d, %d without a %S reason):\n"
    (List.length test_read) (List.length unreasoned_labels) marker;
  List.iter
    (fun l ->
      show_label l;
      if not l.l_reason then print_endline "    ^ no reason")
    test_read;
  Printf.printf "%d record labels\n" (List.length labels);
  if dead <> [] || unreasoned <> [] || unread <> [] || unreasoned_labels <> [] then
    exit 1
