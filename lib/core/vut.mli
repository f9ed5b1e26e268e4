(** The ViewUpdateTable (VUT) of Section 4.1.

    A two-dimensional table: [VUT[i,x]] corresponds to update [U_i] (row)
    and view [V_x] (column). Each entry carries a {e color}:

    - [White]: waiting for the action list for this entry;
    - [Red]: the action list has been received but not yet applied;
    - [Gray]: the action list has just been applied;
    - [Black]: the entry need not be examined (update irrelevant to view).

    The Painting Algorithm additionally uses a per-entry [state] field: when
    a strongly consistent view manager batches updates [U_i .. U_j] into one
    action list [AL^x_j], every covered entry in column [x] records
    [state = j], meaning "this row can only be applied together with row
    [j]" (Section 5.1).

    Rows are created when [REL_i] arrives and purged once fully applied, so
    the live table stays small (the paper's observation at the end of
    Example 3).

    Rows are sparse: a row stores cells only for [REL_i]'s columns (and
    any column later set to a non-default entry); every other column
    reads as [Black] with state 0. {!add_row}, {!purge_row} and the row
    walks cost O(|REL_i|), not O(number of views); {!entry} and
    {!set_color} cost O(log |REL_i|) after the row and view lookups.
    Only {!render} and {!render_row} visit every column. *)

type color = White | Red | Gray | Black

type entry = { color : color; state : int }

type t

exception Protocol_error of string

val create : views:string list -> t
(** Fixed column set: one per view manager in the system ([VM] in the
    paper). @raise Invalid_argument on duplicate view names. *)

val views : t -> string list

val add_row : t -> row:int -> rel:string list -> unit
(** Allocate row [i] upon receipt of [REL_i]: entries for views in [rel]
    are [White] (state 0), all others [Black].
    @raise Protocol_error if the row exists or [rel] mentions an unknown
    view. *)

val has_row : t -> int -> bool

val rows : t -> int list
(** Live (unpurged) row ids, ascending. *)

val row_count : t -> int

val entry : t -> row:int -> view:string -> entry
(** @raise Protocol_error if the row is absent or the view unknown. *)

val set_color : t -> row:int -> view:string -> color -> unit

val set_state : t -> row:int -> view:string -> int -> unit

val white_count : t -> row:int -> int
(** Number of white cells in the row — O(1), maintained incrementally by
    [add_row]/[set_color]. [white_count = 0] is SPA/PA's "no list still
    outstanding for this update" guard without a column scan.
    @raise Protocol_error if the row is absent. *)

val red_count : t -> row:int -> int
(** Number of red cells in the row — O(1). A row with [white_count = 0]
    and [red_count = 0] is fully applied (purgeable).
    @raise Protocol_error if the row is absent. *)

val exists_in_row : t -> row:int -> (string -> entry -> bool) -> bool
(** Whether [f view entry] holds for some entry of the row, in column
    order. Entries that are [Black] with state 0 — every column outside
    the row's REL — are skipped. *)

val fold_row : t -> row:int -> (string -> entry -> 'a -> 'a) -> 'a -> 'a
(** Fold over the row's entries in column order, skipping entries that
    are [Black] with state 0, as {!exists_in_row} does. *)

val earlier_with : t -> row:int -> view:string -> (entry -> bool) -> int list
(** Live rows strictly before [row] whose entry in [view] satisfies the
    predicate, ascending. Linear scan of the live table — the generic
    reference the indexed queries below are property-tested against. *)

val earlier_reds : t -> row:int -> view:string -> int list
(** Indexed equivalent of [earlier_with] with a "red" predicate: live rows
    [< row] whose entry in the column is red, ascending. O(log live + k). *)

val has_earlier_red : t -> row:int -> view:string -> bool
(** Whether some live row [< row] is red in the column. O(log live). *)

val first_earlier_white : t -> row:int -> view:string -> int option
(** Smallest live row [< row] whose entry in the column is white.
    O(log live). *)

val next_red : t -> row:int -> view:string -> int
(** [nextRed(i,x)]: the smallest live row number greater than [row] whose
    entry in column [view] is red; 0 when none (paper convention). Answered
    from the per-column red index in O(log live). *)

(** {2 Row walks}

    One row lookup, then the row's stored cells in column order: the
    per-row loops of SPA and PA, without a row lookup and a view-name
    lookup per cell, and without visiting the row's absent (black)
    columns. Each raises {!Protocol_error} if the row is absent. *)

val has_blocked_red : t -> row:int -> bool
(** Some red cell of the row has a red cell in an earlier live row of
    its column (SPA's Line 2). *)

val gray_reds : t -> row:int -> unit
(** Turn every red cell of the row gray (SPA's Line 3, PA's Line 6). *)

val iter_gray_next_reds : t -> row:int -> (int -> unit) -> unit
(** For each gray cell of the row, in column order, [f] of nextRed in
    its column, computed just before that call; columns whose nextRed
    is 0 are skipped (SPA's Line 5, PA's Line 9 rescan). [f] may change
    other rows, but not this row's cells. *)

val for_all_reds : t -> row:int -> (col:int -> state:int -> bool) -> bool
(** Whether [f ~col ~state] holds for every red cell of the row, in
    column order, stopping at the first [false]. [f] must not change the
    table. *)

val earlier_reds_at : t -> col:int -> row:int -> int list
(** {!earlier_reds} for a column given by its position in {!views}. *)

val purge_row : t -> int -> unit
(** Remove a row. Absent rows are ignored. *)

val purgeable : t -> row:int -> bool
(** All entries black or gray. *)

val white_rows_up_to : t -> view:string -> int -> int list
(** Live rows [i' <= i] whose entry in the column is white, ascending —
    the rows a batched action list [AL^x_i] covers (PA's ProcessAction).
    Answered from the per-column white index. *)

val render_row : t -> ?show_state:bool -> int -> string
(** Compact rendering, e.g. ["U1: V1=w V2=r V3=b"] or with states
    ["U1: V1=(w,0) ..."] — the format the golden tests compare against the
    paper's tables. *)

val render : ?show_state:bool -> t -> string
(** All live rows, one per line. *)
