(** Thorup–Zwick interval routing on trees (centralized construction).

    Every tree vertex gets a O(1)-word table: its DFS interval, its parent
    and its heavy child. The label of a destination [y] is its DFS entry
    time plus the list of light edges on the root→[y] path — at most
    [log2 n] of them, [O(log n)] words total. Forwarding needs only the
    local table and the destination label:

    - if [y]'s entry time is outside my interval, go to my parent;
    - else if [y]'s label names a light edge leaving me, take it;
    - else go to my heavy child.

    The route is the exact tree path. This module is the sequential
    reference ([TZ01b] row of Table 2); the paper's distributed construction
    in {!module:Routing} must produce *identical* tables and labels.

    A scheme stores one table and one label per member of its tree, O(s)
    words for s members beside the tree itself, and answers lookups by
    vertex id ({!table}, {!label}). *)

type table = {
  entry : int;
  exit_ : int;
  parent : int;  (** -1 at the root *)
  heavy : int;  (** -1 at leaves *)
}

type label = {
  target : int;  (** destination vertex id (for convenience/debugging) *)
  target_entry : int;  (** DFS entry time of the destination *)
  lights : (int * int) list;
      (** light edges [(tail vertex, head vertex)] on the root→target path,
          in root-to-target order *)
}

type scheme
(** A tree with one table and one label per member, stored at the member's
    {!Dgraph.Tree.index} and read only through {!table} and {!label}. A
    member may hold none (a distributed run that failed there). *)

val build : Dgraph.Tree.t -> scheme

val of_members :
  Dgraph.Tree.t ->
  table:(int -> table option) ->
  label:(int -> label option) ->
  scheme
(** [of_members tree ~table ~label]: the scheme in which each member [v]
    holds [table v] and [label v] — how a distributed run hands over the
    tables and labels its vertices computed. *)

val table : scheme -> int -> table option
(** [table s v]: [v]'s table, [None] when [v] is outside the tree. *)

val label : scheme -> int -> label option
(** [label s v]: [v]'s label, [None] when [v] is outside the tree. *)

val equal : scheme -> scheme -> bool
(** Same members, and the same table and label at every member. *)

val table_words : table -> int
(** Always 4: the O(1) bound is an equality here. *)

val label_words : label -> int
(** [2 + 2·|lights|]. *)

type step =
  | Arrived
  | Forward of int  (** next-hop vertex id *)

val step : me:int -> table -> label -> step
(** One forwarding decision at vertex [me]. *)

val route : scheme -> src:int -> dst:int -> int list
(** Drive {!step} hop by hop from [src]; returns the traversed vertex path
    (ends at [dst]).
    @raise Invalid_argument if either endpoint is not in the tree
    @raise Failure if forwarding exceeds [2 × size] hops (scheme corrupt) *)
