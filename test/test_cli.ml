(* In-process tests of the cdw command-line interface. *)

let eval args =
  Cdw_cli.Cli.eval ~argv:(Array.of_list ("cdw" :: args)) ()

let temp_path suffix = Filename.temp_file "cdw_cli" suffix

let read path =
  let ic = open_in path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec loop i = i + m <= n && (String.sub s i m = sub || loop (i + 1)) in
  m = 0 || loop 0

let test_generate_to_file () =
  let path = temp_path ".wf" in
  let code = eval [ "generate"; "-v"; "40"; "-n"; "3"; "--seed"; "5"; "-o"; path ] in
  Alcotest.(check int) "exit 0" 0 code;
  let text = read path in
  Alcotest.(check bool) "has users" true (contains text "user u0");
  Alcotest.(check bool) "has constraints" true (contains text "constraint ");
  (* And it parses back. *)
  (match Cdw_core.Serialize.parse text with
  | Ok (wf, cs) ->
      Alcotest.(check int) "40 vertices" 40 (Cdw_core.Workflow.n_vertices wf);
      Alcotest.(check int) "3 constraints" 3 (Cdw_core.Constraint_set.size cs)
  | Error e -> Alcotest.fail e);
  Sys.remove path

let test_generate_rejects_bad_params () =
  Alcotest.(check bool) "nonzero exit" true
    (eval [ "generate"; "-v"; "3"; "-k"; "5" ] <> 0)

let with_generated f =
  let path = temp_path ".wf" in
  let code = eval [ "generate"; "-v"; "40"; "-n"; "3"; "--seed"; "5"; "-o"; path ] in
  Alcotest.(check int) "generate ok" 0 code;
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let test_show () =
  with_generated (fun path ->
      Alcotest.(check int) "show exits 0" 0 (eval [ "show"; path ]);
      Alcotest.(check int) "show --dot exits 0" 0 (eval [ "show"; "--dot"; path ]))

let test_solve_roundtrip () =
  with_generated (fun path ->
      let out = temp_path ".out" in
      let code =
        eval [ "solve"; path; "-a"; "remove-min-mc"; "-o"; out ]
      in
      Alcotest.(check int) "solve exits 0" 0 code;
      (match Cdw_core.Serialize.load out with
      | Ok (wf, cs) ->
          Alcotest.(check bool) "solved file is consented" true
            (Cdw_core.Constraint_set.satisfied wf cs)
      | Error e -> Alcotest.fail e);
      Sys.remove out)

let test_solve_every_algorithm () =
  with_generated (fun path ->
      List.iter
        (fun name ->
          let algo = Cdw_core.Algorithms.to_string name in
          Alcotest.(check int) (algo ^ " exits 0") 0
            (eval [ "solve"; path; "-a"; algo ]))
        Cdw_core.Algorithms.all_names)

let test_solve_unknown_algorithm () =
  with_generated (fun path ->
      Alcotest.(check bool) "unknown algorithm rejected" true
        (eval [ "solve"; path; "-a"; "magic" ] <> 0))

let test_solve_without_constraints () =
  let path = temp_path ".wf" in
  let oc = open_out path in
  output_string oc "user u\nalgorithm a\npurpose p\nedge u a\nedge a p\n";
  close_out oc;
  Alcotest.(check bool) "no constraints is an error" true
    (eval [ "solve"; path ] <> 0);
  Sys.remove path

let test_json_pipeline () =
  let path = temp_path ".json" in
  let code = eval [ "generate"; "-v"; "40"; "-n"; "3"; "--seed"; "5"; "-o"; path ] in
  Alcotest.(check int) "generate json ok" 0 code;
  Alcotest.(check bool) "file is JSON" true
    (match Cdw_util.Json.parse (read path) with Ok _ -> true | Error _ -> false);
  Alcotest.(check int) "show reads json" 0 (eval [ "show"; path ]);
  let out = temp_path ".json" in
  Alcotest.(check int) "solve json to json" 0
    (eval [ "solve"; path; "-a"; "remove-min-mc"; "-o"; out ]);
  (match Cdw_core.Serialize.load out with
  | Ok (wf, cs) ->
      Alcotest.(check bool) "solved json consented" true
        (Cdw_core.Constraint_set.satisfied wf cs)
  | Error e -> Alcotest.fail e);
  Sys.remove path;
  Sys.remove out

let test_missing_file () =
  Alcotest.(check bool) "missing file errors" true
    (eval [ "show"; "/nonexistent/cdw.wf" ] <> 0)

let test_unknown_experiment () =
  Alcotest.(check bool) "unknown experiment errors" true
    (eval [ "experiment"; "fig99" ] <> 0)

(* Exit code and one output stream of one in-process run. *)
let eval_capturing (fd, ppf, oc) args =
  let path = temp_path ".out" in
  let tmp = Unix.openfile path [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  let saved = Unix.dup fd in
  let flush_all () =
    Format.pp_print_flush ppf ();
    flush oc
  in
  flush_all ();
  Unix.dup2 tmp fd;
  let code =
    Fun.protect
      ~finally:(fun () ->
        flush_all ();
        Unix.dup2 saved fd;
        Unix.close saved;
        Unix.close tmp)
      (fun () -> eval args)
  in
  let out = read path in
  Sys.remove path;
  (code, out)

let eval_stderr = eval_capturing (Unix.stderr, Format.err_formatter, stderr)
let eval_stdout = eval_capturing (Unix.stdout, Format.std_formatter, stdout)

(* [cdw solve] says how its answer was found: the oracle tier names
   itself and its bound; a heuristic has no tier. *)
let test_solve_labels_exact_ilp () =
  with_generated (fun path ->
      let code, out = eval_stdout [ "solve"; path; "-a"; "exact-ilp" ] in
      Alcotest.(check int) "exit 0" 0 code;
      List.iter
        (fun line ->
          if not (contains out line) then Alcotest.failf "no %S in:\n%s" line out)
        [ "tier: exact-ilp\n"; "bound: "; "budget_fallback: false\n" ])

let test_solve_labels_heuristic () =
  with_generated (fun path ->
      let code, out = eval_stdout [ "solve"; path; "-a"; "remove-first-edge" ] in
      Alcotest.(check int) "exit 0" 0 code;
      Alcotest.(check bool) "no tier" false (contains out "tier:");
      Alcotest.(check bool) "no bound" false (contains out "bound:");
      Alcotest.(check bool) "budget_fallback shown" true
        (contains out "budget_fallback: false\n"))

(* A flag the chosen mode would ignore is a usage error, not a run. *)
let rejects args ~says () =
  let code, err = eval_stderr args in
  Alcotest.(check bool) "nonzero exit" true (code <> 0);
  if not (contains err says) then
    Alcotest.failf "stderr lacks %S:\n%s" says err

(* A ledger one engine wrote at the root ([Store.create_for], no
   group.json) goes through every [cdw store] subcommand as shard 0. *)
let test_store_plain_root () =
  let module Engine = Cdw_engine.Engine in
  let module Store = Cdw_store.Store in
  let wf =
    (Cdw_workload.Generator.generate ~seed:29
       Cdw_workload.Gen_params.dataset2_base)
      .Cdw_workload.Generator.workflow
  in
  let root = Filename.temp_dir "cdw_cli" ".ledger" in
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat root f)) (Sys.readdir root);
      Sys.rmdir root)
  @@ fun () ->
  let engine =
    Engine.create ~algorithm:Cdw_core.Algorithms.Remove_first_edge ~seed:29 wf
  in
  let store = Store.create_for ~fsync:Cdw_store.Wal.Never ~dir:root engine in
  Array.iteri
    (fun i pair ->
      if i < 12 then
        Engine.submit engine ~user:(Printf.sprintf "u-%d" (i mod 4))
          (Engine.Add [ pair ]))
    (Cdw_engine.Workbench.connected_pairs wf);
  ignore (Engine.drain engine);
  Store.close store;
  let store_ok args =
    let code, out = eval_stdout ("store" :: args) in
    Alcotest.(check int) (String.concat " " args ^ ": exit 0") 0 code;
    out
  in
  let expect out line =
    if not (contains out line) then Alcotest.failf "no %S in:\n%s" line out
  in
  (* The --state JSON follows the report lines. *)
  let state out =
    match String.index_opt out '{' with
    | Some i -> String.sub out i (String.length out - i)
    | None -> Alcotest.failf "no state in:\n%s" out
  in
  expect (store_ok [ "verify"; root ]) "shard 0:\n";
  let replayed = store_ok [ "replay"; root; "--state" ] in
  expect replayed "shard 0: remove-first-edge (seed 29), generation 0,";
  expect replayed
    (Printf.sprintf "recovered 1 ledger(s) under %s: 13 record(s) replayed" root);
  let compacted = store_ok [ "compact"; root ] in
  expect compacted "shard 0: generation 0 -> 1\n";
  expect compacted (Printf.sprintf "compacted 1 ledger(s) under %s\n" root);
  expect (store_ok [ "verify"; root; "--strict" ]) "shard 0:\n";
  let after = store_ok [ "replay"; root; "--state" ] in
  expect after "shard 0: remove-first-edge (seed 29), generation 1,";
  Alcotest.(check string) "compaction keeps the state" (state replayed)
    (state after);
  expect (state after) "\"u-3\""

let no_server = Filename.concat (Filename.get_temp_dir_name ()) "cdw-no-server.sock"

let suite =
  [
    Alcotest.test_case "generate writes a parseable file" `Quick
      test_generate_to_file;
    Alcotest.test_case "generate rejects bad parameters" `Quick
      test_generate_rejects_bad_params;
    Alcotest.test_case "show (report and dot)" `Quick test_show;
    Alcotest.test_case "solve writes a consented file" `Quick test_solve_roundtrip;
    Alcotest.test_case "solve runs every algorithm" `Quick
      test_solve_every_algorithm;
    Alcotest.test_case "solve rejects unknown algorithm" `Quick
      test_solve_unknown_algorithm;
    Alcotest.test_case "solve without constraints errors" `Quick
      test_solve_without_constraints;
    Alcotest.test_case "solve -a exact-ilp prints its tier and bound" `Quick
      test_solve_labels_exact_ilp;
    Alcotest.test_case "solve with a heuristic prints no tier" `Quick
      test_solve_labels_heuristic;
    Alcotest.test_case "JSON pipeline (generate/show/solve)" `Quick
      test_json_pipeline;
    Alcotest.test_case "missing file errors" `Quick test_missing_file;
    Alcotest.test_case "unknown experiment errors" `Quick test_unknown_experiment;
    Alcotest.test_case "store verify|replay|compact label a plain root shard 0"
      `Quick test_store_plain_root;
    Alcotest.test_case "serve-bench --fsync needs --journal" `Quick
      (rejects
         [ "serve-bench"; "--quick"; "--fsync"; "always" ]
         ~says:"--fsync requires --journal");
    Alcotest.test_case "serve --fsync needs --journal" `Quick
      (rejects
         [ "serve"; "--listen"; no_server; "--fsync"; "always" ]
         ~says:"--fsync requires --journal");
    Alcotest.test_case "serve-bench --connect rejects --journal" `Quick
      (rejects
         [ "serve-bench"; "--connect"; no_server; "--journal"; no_server ^ ".d" ]
         ~says:"in-process only");
    Alcotest.test_case "serve-bench --connect rejects --mem-cap-bytes" `Quick
      (rejects
         [ "serve-bench"; "--connect"; no_server; "--mem-cap-bytes"; "4096" ]
         ~says:"in-process only");
    Alcotest.test_case "serve-bench --connect rejects --prom-out" `Quick
      (rejects
         [ "serve-bench"; "--connect"; no_server; "--prom-out"; no_server ^ ".prom" ]
         ~says:"in-process only");
    Alcotest.test_case "serve-bench --connect rejects --shards" `Quick
      (rejects
         [ "serve-bench"; "--connect"; no_server; "--shards"; "4" ]
         ~says:"--shards is in-process only");
    Alcotest.test_case "serve-bench --connect rejects -v" `Quick
      (rejects
         [ "serve-bench"; "--connect"; no_server; "-v"; "10" ]
         ~says:"in-process only");
    Alcotest.test_case "serve-bench --connect rejects -k" `Quick
      (rejects
         [ "serve-bench"; "--connect"; no_server; "-k"; "3" ]
         ~says:"in-process only");
    Alcotest.test_case "serve-bench --connect rejects -d" `Quick
      (rejects
         [ "serve-bench"; "--connect"; no_server; "-d"; "0.2" ]
         ~says:"in-process only");
  ]
