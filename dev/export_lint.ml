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
   module the file opens), and a signature that re-exports another
   module ([include module type of struct include M end]), so
   [Serving.drain] counts as a use of [Shard_group.drain].

   Run from the repo root:  dune exec dev/export_lint.exe
   Prints the dead and test-only lists; exits 1 if any value is dead or
   test-only without a reason. *)

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

(* [include module type of struct include M end] / [include module type of M] *)
let reexport (incl : Parsetree.include_description) =
  match incl.pincl_mod.pmty_desc with
  | Pmty_typeof { pmod_desc = Pmod_ident { txt; _ }; _ } -> Some (Longident.last txt)
  | Pmty_typeof
      {
        pmod_desc =
          Pmod_structure
            [ { pstr_desc = Pstr_include { pincl_mod = { pmod_desc = Pmod_ident { txt; _ }; _ }; _ }; _ } ];
        _;
      } ->
      Some (Longident.last txt)
  | _ -> None

let read_interface path =
  let m = module_of path in
  let sg = parse Parse.interface path in
  List.fold_left
    (fun (vals, reexports) (item : Parsetree.signature_item) ->
      match item.psig_desc with
      | Psig_value vd ->
          let e =
            {
              m;
              name = vd.pval_name.txt;
              file = path;
              line = vd.pval_loc.loc_start.pos_lnum;
              reason = contains (doc_text vd.pval_attributes) marker;
            }
          in
          (e :: vals, reexports)
      | Psig_include incl -> (
          match reexport incl with
          | Some r -> (vals, r :: reexports)
          | None -> (vals, reexports))
      | _ -> (vals, reexports))
    ([], []) sg
  |> fun (vals, reexports) -> (m, List.rev vals, reexports)

(* ---- references ---- *)

(* Module name -> its exported value names, and the modules it re-exports. *)
let exported : (string, (string, unit) Hashtbl.t) Hashtbl.t = Hashtbl.create 64
let reexports : (string, string list) Hashtbl.t = Hashtbl.create 8

let rec owner m name =
  match Hashtbl.find_opt exported m with
  | None -> None
  | Some vals when Hashtbl.mem vals name -> Some m
  | Some _ ->
      List.find_map (fun r -> owner r name)
        (Option.value ~default:[] (Hashtbl.find_opt reexports m))

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
      match owner m v with Some o when Some o <> self -> Some (o, v) | _ -> None)
    (!qualified @ from_opens)

let () =
  let interfaces = List.concat_map (fun d -> files_in d ".mli") (lib_dirs ()) in
  if interfaces = [] then failwith "no lib/*/*.mli here: run from the repo root";
  let exports =
    List.concat_map
      (fun path ->
        let m, vals, rs = read_interface path in
        let tbl = Hashtbl.create 16 in
        List.iter (fun e -> Hashtbl.replace tbl e.name ()) vals;
        Hashtbl.replace exported m tbl;
        Hashtbl.replace reexports m rs;
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
  if dead <> [] || unreasoned <> [] then exit 1
