type series = { label : string; points : (float * float) list }

let palette =
  [| "#1f77b4"; "#d62728"; "#2ca02c"; "#9467bd"; "#ff7f0e"; "#8c564b"; "#17becf" |]

let margin_left = 64.0
let margin_right = 150.0
let margin_top = 40.0
let margin_bottom = 48.0

let nice_ticks lo hi n =
  if hi <= lo then [ lo ]
  else begin
    let span = hi -. lo in
    let raw_step = span /. float_of_int n in
    let mag = 10.0 ** Float.round (log10 raw_step -. 0.5) in
    let step =
      List.find
        (fun s -> s >= raw_step)
        [ mag; 2.0 *. mag; 2.5 *. mag; 5.0 *. mag; 10.0 *. mag; 20.0 *. mag ]
    in
    let first = Float.of_int (int_of_float (ceil (lo /. step))) *. step in
    let rec loop x acc =
      if x > hi +. (1e-9 *. step) then List.rev acc
      else loop (x +. step) (if x >= lo -. (1e-9 *. step) then x :: acc else acc)
    in
    loop first []
  end

let fmt_tick v =
  if Float.abs v >= 10_000.0 || (Float.abs v < 0.01 && v <> 0.0) then
    Printf.sprintf "%.0e" v
  else if Float.is_integer v then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.2f" v

let width = 640
let height = 420

let render ?(log_y = false) ?(x_label = "") ?(y_label = "") ~title series =
  let usable =
    List.filter_map
      (fun s ->
        let pts =
          List.filter
            (fun (_, y) -> Float.is_finite y && ((not log_y) || y > 0.0))
            s.points
        in
        if pts = [] then None else Some { s with points = pts })
      series
  in
  if usable = [] then invalid_arg "Chart.render: nothing to plot";
  let ty y = if log_y then log10 y else y in
  let all = List.concat_map (fun s -> s.points) usable in
  let xs = List.map fst all and ys = List.map (fun (_, y) -> ty y) all in
  let x_lo = List.fold_left Float.min infinity xs in
  let x_hi = List.fold_left Float.max neg_infinity xs in
  let y_lo = List.fold_left Float.min infinity ys in
  let y_hi = List.fold_left Float.max neg_infinity ys in
  let pad v = if v = 0.0 then 1.0 else Float.abs v *. 0.05 in
  let x_lo, x_hi =
    if x_lo = x_hi then (x_lo -. 1.0, x_hi +. 1.0) else (x_lo, x_hi)
  in
  let y_lo, y_hi =
    if y_lo = y_hi then (y_lo -. pad y_lo, y_hi +. pad y_hi) else (y_lo, y_hi)
  in
  let plot_w = float_of_int width -. margin_left -. margin_right in
  let plot_h = float_of_int height -. margin_top -. margin_bottom in
  let sx x = margin_left +. ((x -. x_lo) /. (x_hi -. x_lo) *. plot_w) in
  let sy y = margin_top +. plot_h -. ((ty y -. y_lo) /. (y_hi -. y_lo) *. plot_h) in
  let buf = Buffer.create 4096 in
  let out fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  out
    "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"%d\" height=\"%d\" \
     font-family=\"sans-serif\" font-size=\"11\">\n"
    width height;
  out "<rect width=\"%d\" height=\"%d\" fill=\"white\"/>\n" width height;
  out
    "<text x=\"%f\" y=\"20\" font-size=\"14\" font-weight=\"bold\">%s</text>\n"
    margin_left title;
  (* Axes. *)
  out
    "<rect x=\"%f\" y=\"%f\" width=\"%f\" height=\"%f\" fill=\"none\" \
     stroke=\"#333\"/>\n"
    margin_left margin_top plot_w plot_h;
  (* Ticks. *)
  List.iter
    (fun v ->
      let x = sx v in
      out "<line x1=\"%f\" y1=\"%f\" x2=\"%f\" y2=\"%f\" stroke=\"#333\"/>\n" x
        (margin_top +. plot_h) x
        (margin_top +. plot_h +. 4.0);
      out "<text x=\"%f\" y=\"%f\" text-anchor=\"middle\">%s</text>\n" x
        (margin_top +. plot_h +. 16.0)
        (fmt_tick v))
    (nice_ticks x_lo x_hi 6);
  let y_ticks =
    if log_y then
      (* Powers of ten covering the range. *)
      let lo = int_of_float (Float.round (Float.of_int (int_of_float y_lo))) in
      List.filter_map
        (fun e ->
          let e = float_of_int e in
          if e >= y_lo -. 0.01 && e <= y_hi +. 0.01 then Some e else None)
        (List.init 24 (fun i -> lo - 2 + i))
    else nice_ticks y_lo y_hi 6
  in
  List.iter
    (fun v ->
      let y = margin_top +. plot_h -. ((v -. y_lo) /. (y_hi -. y_lo) *. plot_h) in
      out
        "<line x1=\"%f\" y1=\"%f\" x2=\"%f\" y2=\"%f\" stroke=\"#ddd\"/>\n"
        margin_left y (margin_left +. plot_w) y;
      let label = if log_y then Printf.sprintf "1e%s" (fmt_tick v) else fmt_tick v in
      out "<text x=\"%f\" y=\"%f\" text-anchor=\"end\">%s</text>\n"
        (margin_left -. 6.0) (y +. 4.0) label)
    y_ticks;
  if x_label <> "" then
    out "<text x=\"%f\" y=\"%f\" text-anchor=\"middle\">%s</text>\n"
      (margin_left +. (plot_w /. 2.0))
      (float_of_int height -. 10.0)
      x_label;
  if y_label <> "" then
    out
      "<text x=\"14\" y=\"%f\" text-anchor=\"middle\" transform=\"rotate(-90 \
       14 %f)\">%s</text>\n"
      (margin_top +. (plot_h /. 2.0))
      (margin_top +. (plot_h /. 2.0))
      y_label;
  (* Series. *)
  List.iteri
    (fun i s ->
      let color = palette.(i mod Array.length palette) in
      let sorted = List.sort (fun (a, _) (b, _) -> compare a b) s.points in
      let coords =
        String.concat " "
          (List.map (fun (x, y) -> Printf.sprintf "%f,%f" (sx x) (sy y)) sorted)
      in
      if List.length sorted > 1 then
        out
          "<polyline points=\"%s\" fill=\"none\" stroke=\"%s\" \
           stroke-width=\"1.5\"/>\n"
          coords color;
      List.iter
        (fun (x, y) ->
          out "<circle cx=\"%f\" cy=\"%f\" r=\"2.5\" fill=\"%s\"/>\n" (sx x)
            (sy y) color)
        sorted;
      (* Legend. *)
      let ly = margin_top +. 8.0 +. (float_of_int i *. 16.0) in
      let lx = margin_left +. plot_w +. 10.0 in
      out "<line x1=\"%f\" y1=\"%f\" x2=\"%f\" y2=\"%f\" stroke=\"%s\" \
           stroke-width=\"2\"/>\n"
        lx ly (lx +. 16.0) ly color;
      out "<text x=\"%f\" y=\"%f\">%s</text>\n" (lx +. 20.0) (ly +. 4.0) s.label)
    usable;
  out "</svg>\n";
  Buffer.contents buf

let write ~dir ~name ?log_y ?x_label ?y_label ~title series =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let path = Filename.concat dir (name ^ ".svg") in
  let svg = render ?log_y ?x_label ?y_label ~title series in
  let oc = open_out path in
  output_string oc svg;
  close_out oc;
  path
