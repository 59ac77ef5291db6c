(** Minimal self-contained SVG line/scatter charts.

    The paper presents its evaluation as figures; this renders the
    harness's numeric series into standalone SVG files next to the CSVs
    so the reproduction can be compared against the paper visually. No
    external dependencies — the output is hand-assembled SVG. *)

type series = {
  label : string;
  points : (float * float) list;  (** (x, y); y must be finite *)
}

val render :
  ?log_y:bool ->
  ?x_label:string ->
  ?y_label:string ->
  title:string ->
  series list ->
  string
(** Test-only: the chart test renders a series directly.

    Render series as polylines with markers, axes with ticks, and a
    legend. Empty series are skipped; [log_y] uses a log₁₀ axis and
    drops non-positive values. Raises [Invalid_argument] when nothing
    is plottable. *)

val write :
  dir:string ->
  name:string ->
  ?log_y:bool ->
  ?x_label:string ->
  ?y_label:string ->
  title:string ->
  series list ->
  string
(** Write [dir/name.svg]; returns the path. *)
