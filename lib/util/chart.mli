(** Terminal line charts for the paper's figures.

    Figures 1-3 of the paper plot "number of fail-locks set" against
    "number of transactions" for one to four sites.  This module renders
    such series as a fixed-size character grid with axes, tick labels and
    a per-series legend, so the figure reproductions are visible straight
    from [raid exp 2] and [raid exp 3]. *)

type series = {
  label : string;
  glyph : char;  (** character used to draw this series *)
  points : (float * float) list;  (** (x, y), need not be sorted *)
}

type t

val create : ?width:int -> ?height:int -> title:string -> x_label:string -> y_label:string -> unit -> t
(** [width]/[height] are the plot-area size in characters (defaults 72 and
    20).  @raise Invalid_argument if either is smaller than 2. *)

val add_series : t -> series -> unit
(** Series are drawn in insertion order; later series overwrite earlier
    glyphs on collisions. *)

val render : t -> string
(** Renders grid, axes, tick labels, title and legend.  An empty chart
    (no points at all) renders a frame with a "(no data)" note. *)

val print : t -> unit
