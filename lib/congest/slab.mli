(** Growable off-heap int slab.

    A slab is a flat [Bigarray] of native ints with an append cursor — the
    simulator's message containers. Packing messages as unboxed ints in
    slabs keeps the delivery path allocation-free (append, counting-sort
    permute and drain are all plain loads and stores on preallocated
    storage) and, because Bigarray data lives outside the OCaml heap, slabs
    are never scanned by the GC and can be handed across domains with no
    more synchronization than the scheduler's round barrier.

    All empty slabs share one zero-length backing array; storage is
    allocated on first use and grows by doubling, so a slab that is cleared
    and refilled every round settles into a steady state that allocates
    nothing. *)

type t

val create : ?cap:int -> unit -> t
(** [create ()] is an empty slab. [?cap] preallocates capacity (in ints). *)

val length : t -> int
(** Ints currently stored. *)

val get : t -> int -> int
val set : t -> int -> int -> unit

val alloc : t -> int -> int
(** [alloc t k] appends [k] uninitialised slots and returns the index of
    the first — the record-allocation primitive ([set] the fields next). *)

val push : t -> int -> unit
(** [alloc t 1] + [set]. *)

val clear : t -> unit
(** Forget the contents; capacity is retained. *)

val shift : t -> int -> unit
(** [shift t k] drops the first [k] ints and moves the rest to the front —
    popping a FIFO of records without a head index. *)

val blit : src:t -> src_pos:int -> dst:t -> dst_pos:int -> len:int -> unit
(** Copy [len] ints between slabs (or within one); ranges must be within
    [length] of their slabs. *)

val get_float : t -> int -> float
(** Read a float packed by {!set_float} from two consecutive slots. *)

val set_float : t -> int -> float -> unit
(** [set_float t i x] stores the IEEE-754 bits of [x] in slots [i] and
    [i+1] (an OCaml int holds 63 bits, so a double is split into two 32-bit
    halves). Bit-exact for every float including infinities and NaNs. *)
