(** Monotone bucket ("radix") heap: non-negative float keys, int
    payloads.

    The one priority queue of the simulator's two hot loops: the
    Dijkstra frontier (payload = node id) and the event engine's
    schedule (payload = event ticket, see [Eventsim.Engine]).
    Compared to the general {!Heap}: O(1) amortized add and near-O(1)
    pop, but keys must be {e monotone} — every key added must be >= the
    minimum most recently popped (Dijkstra guarantees this: a
    relaxation pushes [d + w >= d]; so does an engine, whose clock only
    moves forward).

    Equal keys pop in global insertion (FIFO) order, exactly like
    {!Heap}'s sequence-number rule — shortest-path tie-breaking and the
    engine's same-instant execution order are byte-identical under
    either structure. *)

type t

val create : unit -> t
(** An empty heap with floor 0.0 — every key must be >= 0. *)

val add : t -> key:float -> int -> unit
(** @raise Invalid_argument if [key] is NaN, negative, or below the
    monotonicity floor — a lower bound that trails the extracted
    minimum (0.0 initially, advanced opportunistically as buckets are
    redistributed), so an out-of-order add from a buggy caller is
    detected best-effort rather than always. Keys at or above the
    floor are ordered correctly even when below an earlier popped
    key. *)

val image : float -> int
(** Order-preserving native-int image of a non-negative float key (the
    IEEE-754 bit pattern shifted into int range). Small enough for the
    cross-module inliner, so computing it at the call site keeps the
    key out of a boxed float argument. *)

val add_image : t -> int -> int -> unit
(** [add_image t (image key) v] = [add t ~key v] for non-negative,
    non-NaN keys — the allocation-free hot-loop form. NaN images are
    above every finite image rather than rejected, so callers must not
    feed NaNs. @raise Invalid_argument if the image is below the
    floor's. *)

val pop : t -> (float * int) option
(** Minimum-key entry; equal keys in insertion order. *)

val pop_val : t -> int
(** [pop] without the key — the allocation-free form for hot loops
    where the caller already knows the key (Dijkstra: the popped key is
    always [dist.(v)]; the engine: the ticket's slot holds its time).
    @raise Invalid_argument if the heap is empty. *)

val min_image : t -> int
(** Image of the current minimum key without popping it; [max_int] when
    empty (strictly above the image of every float key, +infinity
    included). Allocation-free, and it never moves an entry or advances
    the floor, so a peek that is not followed by a pop leaves every
    legal add legal. *)

val pop_run : t -> int array -> int
(** [pop_run t buf] pops the maximal run of minimum-key entries into
    [buf] (earliest-inserted first), capped by [Array.length buf], and
    returns the count — 0 iff the heap is empty. Every popped key in
    one call is equal; a capped run continues on the next call. Batch
    form of [pop_val] for drain loops whose later adds are all strictly
    above the current minimum (Dijkstra with positive weights): the
    concatenated runs are exactly the per-entry pop sequence. *)

val drain_csr :
  t ->
  off:int array ->
  nbr:int array ->
  eid:int array ->
  wsel:float array ->
  woth:float array ->
  dist:float array ->
  pred:int array ->
  pred_edge:int array ->
  other:float array ->
  unit
(** Run the unfiltered CSR Dijkstra drain to completion: repeatedly pop
    the minimum node, relax its CSR slots ([off]/[nbr]/[eid] topology,
    [wsel] selected / [woth] companion weights), and push improved
    distances — fused with the heap so the hot loop pays no
    per-operation call overhead (the non-flambda compiler does not
    inline across compilation units). Pops and relaxations happen in
    exactly the order a [pop_val]/[add_image] loop would produce, so
    results are byte-identical; a popped entry is recognized as stale
    (node already settled) when its key no longer equals
    [image dist.(x)], so no settled-marker array is needed. The caller
    guarantees array lengths and index ranges (all accesses are
    unchecked) and non-negative finite weights; see
    {!Netgraph.Dijkstra.run}, the owning API. *)

val length : t -> int
val is_empty : t -> bool

val clear : t -> unit
(** Empty the heap and reset the floor to 0.0, retaining the internal
    bucket storage (the workspace-reuse entry point). *)
