(* Remaining substrate corners: DOT export, timing, ILP node limit. *)

module Digraph = Cdw_graph.Digraph
module Dot = Cdw_graph.Dot
module Timing = Cdw_util.Timing

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec loop i = i + m <= n && (String.sub s i m = sub || loop (i + 1)) in
  m = 0 || loop 0

let test_dot_basic () =
  let g = Digraph.create () in
  ignore (Digraph.add_vertices g 2);
  let e = Digraph.add_edge g 0 1 in
  let dot =
    Dot.to_dot ~name:"g\"quoted" ~vertex_label:(Printf.sprintf "v%d")
      ~edge_label:(fun _ -> "lbl") g
  in
  Alcotest.(check bool) "quotes escaped" true (contains dot "g\\\"quoted");
  Alcotest.(check bool) "vertex labels" true (contains dot "v1");
  Alcotest.(check bool) "edge with label" true (contains dot "label=\"lbl\"");
  Digraph.remove_edge g e;
  let hidden = Dot.to_dot g in
  Alcotest.(check bool) "removed edge omitted" false (contains hidden "n0 -> n1");
  let shown = Dot.to_dot ~show_removed:true g in
  Alcotest.(check bool) "removed edge dashed when requested" true
    (contains shown "style=dashed")

let test_timing_deadline () =
  let d = Timing.deadline_after_ms 10_000.0 in
  Timing.check_deadline d;
  (* far future: no exception *)
  Alcotest.check_raises "expired" Timing.Timeout (fun () ->
      Timing.check_deadline (Timing.now_ms () -. 1.0));
  Timing.check_deadline infinity

let test_timing_time_f () =
  let x, ms = Timing.time_f (fun () -> 42) in
  Alcotest.(check int) "result" 42 x;
  Alcotest.(check bool) "non-negative elapsed" true (ms >= 0.0)

let test_ilp_node_limit () =
  (* A problem with a fractional relaxation forces branching; node limit
     1 must fire. *)
  let p =
    {
      Cdw_lp.Simplex.objective = [| 1.0; 1.0; 1.0 |];
      constraints =
        [
          ([| 1.0; 1.0; 0.0 |], Cdw_lp.Simplex.Ge, 1.0);
          ([| 0.0; 1.0; 1.0 |], Cdw_lp.Simplex.Ge, 1.0);
          ([| 1.0; 0.0; 1.0 |], Cdw_lp.Simplex.Ge, 1.0);
        ];
    }
  in
  Alcotest.check_raises "node limit" Timing.Timeout (fun () ->
      ignore (Cdw_lp.Ilp.solve ~node_limit:1 p))

let test_simplex_deadline () =
  let p =
    {
      Cdw_lp.Simplex.objective = [| -1.0; -1.0 |];
      constraints = [ ([| 1.0; 2.0 |], Cdw_lp.Simplex.Le, 14.0) ];
    }
  in
  Alcotest.check_raises "expired deadline stops simplex" Timing.Timeout
    (fun () ->
      ignore (Cdw_lp.Simplex.solve ~deadline:(Timing.now_ms () -. 1.0) p))

let suite =
  [
    Alcotest.test_case "DOT export" `Quick test_dot_basic;
    Alcotest.test_case "timing deadlines" `Quick test_timing_deadline;
    Alcotest.test_case "time_f" `Quick test_timing_time_f;
    Alcotest.test_case "ILP node limit" `Quick test_ilp_node_limit;
    Alcotest.test_case "simplex cooperative deadline" `Quick test_simplex_deadline;
  ]
