(** Rooted trees over a (subset of a) graph's vertex set.

    A tree holds only its members: O(s) words for s members, whatever the
    size of the host graph. Every per-vertex field sits in an array indexed
    by the member's rank among the members in increasing id order
    ({!index}), found by binary search, so a lookup by vertex id allocates
    nothing. Trees of this kind appear everywhere in the paper — spanning
    BFS trees used for broadcast, and the cluster trees [C(v)] in which all
    routing ultimately happens; the cluster trees together hold
    Σ|C| = Õ(n^{1+1/k}) members, and storing each at the host's size would
    cost Θ(n) per tree instead. The centralized utilities here (subtree
    sizes, heavy children, DFS intervals) are the ground truth the
    distributed protocols are tested against. *)

type t

(** {1 Construction} *)

val of_parents : root:int -> parent:int array -> wparent:float array -> t
(** [parent.(v)] is [v]'s parent, [-1] for the root, [-2] for vertices not in
    the tree; [wparent.(v)] is the weight of the edge to the parent (ignored
    at the root / absent vertices).
    The arrays span the host's vertex ids; the tree keeps only the members.
    A producer that holds its members in a list builds with {!of_members}
    and needs no array of the host's size.
    @raise Invalid_argument if the structure is not a tree rooted at [root] *)

val of_members : root:int -> (int * int * float) list -> t
(** [of_members ~root members]: the tree whose members are given as
    [(v, parent, w)] triples, in any order — [v]'s parent is [parent] ([-1]
    at [root]) and [w] the weight of the edge to it (ignored at the root).
    It allocates O(s) words for s members, and is the tree {!of_parents}
    builds from the same parent relation.
    @raise Invalid_argument if a vertex is negative or repeated, or the
    structure is not a tree rooted at [root] *)

val of_tree_graph : Graph.t -> root:int -> t
(** Root an acyclic connected graph at [root].
    @raise Invalid_argument if the graph is not a tree *)

val bfs_spanning : Graph.t -> root:int -> t
(** BFS spanning tree (hop-depth = eccentricity of [root]) of the component
    containing [root]. Edge weights are taken from the graph. *)

val shortest_path_tree : Graph.t -> root:int -> t
(** Dijkstra shortest-path tree of the component containing [root]. *)

(** {1 Structure} *)

val root : t -> int
val mem : t -> int -> bool
val size : t -> int

val index : t -> int -> int
(** [index t v]: [v]'s rank among the members in increasing id order, in
    [\[0, size t)], or [-1] when [v] is not a member. Per-member arrays kept
    beside a tree ({!module:Tz.Tree_routing}'s tables, say) use it as their
    index. *)

val vertices : t -> int list
(** All tree vertices, in increasing id order. *)

val parent : t -> int -> int
(** [-1] at the root. @raise Invalid_argument if not in the tree *)

val weight_to_parent : t -> int -> float

val children : t -> int -> int array
(** Children in increasing id order (a stable "port" order). *)

val depth : t -> int -> int
(** Hop depth from the root. *)

val height : t -> int
(** Maximum depth. *)

val subtree_size : t -> int -> int

val heavy_child : t -> int -> int option
(** Child with the largest subtree (smallest id wins ties); [None] at leaves. *)

val is_light_edge : t -> int -> bool
(** [is_light_edge t v]: is the edge from [v] to its parent light, i.e. [v] is
    not the heavy child of its parent? @raise Invalid_argument at the root *)

(** {1 Queries} *)

val lca : t -> int -> int -> int

val path : t -> int -> int -> int list
(** Unique tree path from [u] to [v], inclusive. *)

val dist_hops : t -> int -> int -> int

val dist_weight : t -> int -> int -> float

val interval : t -> int -> int * int
(** [v]'s entry/exit interval from a DFS that visits children heavy child
    first, then by id. Intervals are laid out so that entry times are a
    permutation of [0, size) and descendants nest strictly inside
    ancestors; the width of [v]'s interval is its subtree size.
    @raise Invalid_argument if [v] is not in the tree *)

val light_edges_to_root : t -> int -> (int * int) list
(** The light edges on the path from the root down to [v], in root-to-[v]
    order, as [(parent, child)] pairs. At most [log2 (size t)] of them. *)

val pp : Format.formatter -> t -> unit
