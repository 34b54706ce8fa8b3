(* Monotone bucket ("radix") heap over non-negative float keys with int
   payloads — the Dijkstra frontier and the event engine's schedule
   (ticket payloads).

   Exploits the monotonicity of Dijkstra extraction and of simulated
   time: every key added is >= the last extracted minimum, so entries
   can be binned by the position of the highest bit in which their
   key's image differs from the last minimum's. Bucket 0 holds keys
   equal to the floor and pops in O(1); when it drains, the lowest
   non-empty bucket is scanned once for its minimum and redistributed —
   each entry lands in a strictly lower bucket (the classic radix-heap
   argument), so an entry is touched O(63) times over its lifetime.

   Equal keys pop in global FIFO (insertion) order: equal keys always
   compute the same bucket index, appends preserve arrival order, and
   redistribution scans a bucket front-to-back — so the relative order
   of equal keys survives every move. This matches {!Heap}'s seq-number
   tie rule, which Dijkstra's byte-identical tie-breaking contract and
   the engine's same-instant execution order depend on.

   Keys are stored as native-int images, not floats: for non-negative
   floats the IEEE-754 bit pattern is order-isomorphic to the value,
   and subtracting 2^62 shifts the 63-bit pattern range [0, 2^63) into
   the OCaml int range [-2^62, 2^62) while preserving order. All hot
   paths (add, pop_val, redistribute) then run on immediate ints —
   no boxing, no allocation, and bucket occupancy is a single int
   bitmask so the lowest non-empty bucket is found with bit tricks
   instead of a linear scan. *)

type bucket = {
  mutable keys : int array;  (* shifted IEEE-754 images *)
  mutable vals : int array;
  mutable len : int;
}

(* Bucket 0 = image equal to the floor; bucket 1+i = highest differing
   image bit is bit i (i in 0..62). Occupancy bit i of [occ] tracks
   bucket i+1 (bucket 0 never participates in redistribution, and
   1 lsl 62 is the last representable bit). *)
let nbuckets = 64

type t = {
  mutable ifloor : int;  (* image of the last extracted minimum *)
  buckets : bucket array;
  mutable occ : int;  (* bit i set <=> bucket i+1 non-empty *)
  mutable lowbi : int;
      (* index of the lowest non-empty bucket above 0 whenever
         [occ <> 0] (meaningless otherwise) — consecutive pops usually
         drain one bucket, so caching the index skips the occupancy
         bit-scan on all but the first *)
  mutable size : int;
  mutable head : int;  (* read cursor into bucket 0 *)
}

(* Order-preserving 63-bit image of a non-negative float. *)
let image f =
  Int64.to_int (Int64.sub (Int64.bits_of_float f) 0x4000_0000_0000_0000L)

let float_of_image i =
  Int64.float_of_bits (Int64.add (Int64.of_int i) 0x4000_0000_0000_0000L)

let image_zero = image 0.0

(* msb_tbl.[v] = index of the most significant set bit of a byte
   (msb_tbl.[0] unused): a table lookup plus a byte-granular binary
   search keeps [msb63] branch-light and ref-free on the add path.
   [msb63] is kept small enough for the non-flambda inliner — call
   overhead on the place path costs more than the work itself. *)
let msb_tbl =
  String.init 256 (fun v ->
      let rec go n v = if v <= 1 then n else go (n + 1) (v lsr 1) in
      Char.chr (go 0 v))

let msb8 v = Char.code (String.unsafe_get msb_tbl v)

(* Index of the most significant set bit of a value in [1, 2^63). *)
let msb63 v =
  if v lsr 32 <> 0 then
    if v lsr 48 <> 0 then
      if v lsr 56 <> 0 then 56 + msb8 (v lsr 56) else 48 + msb8 (v lsr 48)
    else if v lsr 40 <> 0 then 40 + msb8 (v lsr 40)
    else 32 + msb8 (v lsr 32)
  else if v lsr 16 <> 0 then
    if v lsr 24 <> 0 then 24 + msb8 (v lsr 24) else 16 + msb8 (v lsr 16)
  else if v lsr 8 <> 0 then 8 + msb8 (v lsr 8)
  else msb8 v

let create () =
  {
    ifloor = image_zero;
    buckets =
      Array.init nbuckets (fun _ -> { keys = [||]; vals = [||]; len = 0 });
    occ = 0;
    lowbi = 0;
    size = 0;
    head = 0;
  }

let length t = t.size
let is_empty t = t.size = 0

let grow b =
  let cap = Array.length b.keys in
  let ncap = if cap = 0 then 8 else 2 * cap in
  let keys = Array.make ncap 0 and vals = Array.make ncap 0 in
  Array.blit b.keys 0 keys 0 b.len;
  Array.blit b.vals 0 vals 0 b.len;
  b.keys <- keys;
  b.vals <- vals

(* Monotonicity guard, bucket selection, capacity check and append in
   one flat function: under the non-flambda compiler, layering these as
   separate calls costs more than the work itself. The unsafe stores
   are in range: [b.len < cap] after the grow check, and the bucket
   index is at most 63 — the lxor of two images has bits 0..62 only, so
   the index and its occupancy shift stay in int range. *)
let add_image t ik v =
  if ik < t.ifloor then
    invalid_arg "Radix_heap.add: key below the extracted minimum (or NaN)";
  let d = ik lxor t.ifloor in
  let bi =
    if d = 0 then 0
    else
      1
      +
      if d lsr 32 <> 0 then
        if d lsr 48 <> 0 then
          if d lsr 56 <> 0 then 56 + msb8 (d lsr 56) else 48 + msb8 (d lsr 48)
        else if d lsr 40 <> 0 then 40 + msb8 (d lsr 40)
        else 32 + msb8 (d lsr 32)
      else if d lsr 16 <> 0 then
        if d lsr 24 <> 0 then 24 + msb8 (d lsr 24) else 16 + msb8 (d lsr 16)
      else if d lsr 8 <> 0 then 8 + msb8 (d lsr 8)
      else msb8 d
  in
  let b = Array.unsafe_get t.buckets bi in
  if b.len = Array.length b.keys then grow b;
  Array.unsafe_set b.keys b.len ik;
  Array.unsafe_set b.vals b.len v;
  b.len <- b.len + 1;
  if bi > 0 then begin
    if t.occ = 0 || bi < t.lowbi then t.lowbi <- bi;
    t.occ <- t.occ lor (1 lsl (bi - 1))
  end;
  t.size <- t.size + 1

let add t ~key v =
  if not (key >= 0.0) then
    invalid_arg "Radix_heap.add: key below the extracted minimum (or NaN)";
  add_image t (image key) v


(* Buckets at or below this size are popped by direct min-scan (see
   [pop_val]) instead of being redistributed; only larger buckets pay
   the classic floor-advancing rebin. Keeps the amortized bound while
   eliminating nearly all entry moves on Dijkstra-sized frontiers. *)
let scan_threshold = 16

let redistribute t b low =
  (* Classic floor advance: find the bucket's minimum (the new floor),
     then move every entry — each lands in a strictly lower bucket, and
     equal-to-minimum entries land in bucket 0 in their original
     relative order. Entries in *other* buckets stay correctly binned:
     the new floor agrees with the old one above this bucket's bit. *)
  let keys = b.keys and vals = b.vals in
  let len = b.len in
  let mi = ref 0 in
  for k = 1 to len - 1 do
    if Array.unsafe_get keys k < Array.unsafe_get keys !mi then mi := k
  done;
  let ifloor = Array.unsafe_get keys !mi in
  t.ifloor <- ifloor;
  b.len <- 0;
  let buckets = t.buckets in
  let occ = ref (t.occ lxor low) in
  for k = 0 to len - 1 do
    let ik = Array.unsafe_get keys k in
    let d = ik lxor ifloor in
    let bi =
      if d = 0 then 0
      else
        1
        +
        if d lsr 32 <> 0 then
          if d lsr 48 <> 0 then
            if d lsr 56 <> 0 then 56 + msb8 (d lsr 56)
            else 48 + msb8 (d lsr 48)
          else if d lsr 40 <> 0 then 40 + msb8 (d lsr 40)
          else 32 + msb8 (d lsr 32)
        else if d lsr 16 <> 0 then
          if d lsr 24 <> 0 then 24 + msb8 (d lsr 24) else 16 + msb8 (d lsr 16)
        else if d lsr 8 <> 0 then 8 + msb8 (d lsr 8)
        else msb8 d
    in
    let dst = Array.unsafe_get buckets bi in
    if dst.len = Array.length dst.keys then grow dst;
    Array.unsafe_set dst.keys dst.len ik;
    Array.unsafe_set dst.vals dst.len (Array.unsafe_get vals k);
    dst.len <- dst.len + 1;
    if bi > 0 then occ := !occ lor (1 lsl (bi - 1))
  done;
  t.occ <- !occ;
  if !occ <> 0 then t.lowbi <- 1 + msb63 (!occ land - !occ)

(* Pop from a non-empty heap whose bucket 0 is drained. The global
   minimum lives in the lowest non-empty bucket regardless of how far
   the floor trails it (bucket order is key order for keys >= floor),
   so a small bucket is popped in place: min-scan front to back (the
   first hit is the earliest-inserted among equal keys — the same entry
   classic redistribution would surface), then close the gap with a
   shift so the remaining order survives. Large buckets take the
   classic redistribute-and-advance path, after which bucket 0 holds
   the minimum run. Both paths pop the exact same entry. *)
let pop_slow t =
  let bi = t.lowbi in
  let b = Array.unsafe_get t.buckets bi in
  if b.len > scan_threshold then begin
    redistribute t b (1 lsl (bi - 1));
    let b0 = Array.unsafe_get t.buckets 0 in
    let v = Array.unsafe_get b0.vals 0 in
    t.head <- 1;
    t.size <- t.size - 1;
    if t.head = b0.len then begin
      b0.len <- 0;
      t.head <- 0
    end;
    v
  end
  else begin
    let keys = b.keys and vals = b.vals in
    let len = b.len in
    let mi = ref 0 in
    for k = 1 to len - 1 do
      if Array.unsafe_get keys k < Array.unsafe_get keys !mi then mi := k
    done;
    let v = Array.unsafe_get vals !mi in
    (* Manual shift: at most [scan_threshold - 1] iterations, cheaper
       than the external-call overhead of Array.blit at this size. *)
    for k = !mi to len - 2 do
      Array.unsafe_set keys k (Array.unsafe_get keys (k + 1));
      Array.unsafe_set vals k (Array.unsafe_get vals (k + 1))
    done;
    b.len <- len - 1;
    if b.len = 0 then begin
      t.occ <- t.occ lxor (1 lsl (bi - 1));
      if t.occ <> 0 then t.lowbi <- 1 + msb63 (t.occ land -t.occ)
    end;
    t.size <- t.size - 1;
    v
  end

let pop_val t =
  if t.size = 0 then invalid_arg "Radix_heap.pop_val: heap is empty";
  let b0 = Array.unsafe_get t.buckets 0 in
  if t.head < b0.len then begin
    let v = Array.unsafe_get b0.vals t.head in
    t.head <- t.head + 1;
    t.size <- t.size - 1;
    if t.head = b0.len then begin
      b0.len <- 0;
      t.head <- 0
    end;
    v
  end
  else pop_slow t

(* The maximal FIFO run of minimum-key entries, capped by the buffer.
   Equal keys always compute the same bucket index at any floor, so a
   run lives in a single bucket and is collected in one scan; a capped
   run continues on the next call. One cross-module call then serves a
   whole tie run, and the caller's adds while processing it all carry
   strictly larger keys (Dijkstra: d + w with w > 0), so draining by
   runs reproduces per-entry pop order exactly. *)
let pop_run t buf =
  if t.size = 0 then 0
  else begin
    let cap = Array.length buf in
    let b0 = Array.unsafe_get t.buckets 0 in
    if t.head < b0.len then begin
      (* Bucket 0: every key equals the floor — the remainder is one
         run. *)
      let k = min (b0.len - t.head) cap in
      let vals = b0.vals and head = t.head in
      for i = 0 to k - 1 do
        Array.unsafe_set buf i (Array.unsafe_get vals (head + i))
      done;
      t.head <- head + k;
      t.size <- t.size - k;
      if t.head = b0.len then begin
        b0.len <- 0;
        t.head <- 0
      end;
      k
    end
    else begin
      let bi = t.lowbi in
      let b = Array.unsafe_get t.buckets bi in
      if b.len > scan_threshold then begin
        redistribute t b (1 lsl (bi - 1));
        let b0 = Array.unsafe_get t.buckets 0 in
        let k = min b0.len cap in
        let vals = b0.vals in
        for i = 0 to k - 1 do
          Array.unsafe_set buf i (Array.unsafe_get vals i)
        done;
        t.head <- k;
        t.size <- t.size - k;
        if t.head = b0.len then begin
          b0.len <- 0;
          t.head <- 0
        end;
        k
      end
      else begin
        let keys = b.keys and vals = b.vals in
        let len = b.len in
        let mk = ref (Array.unsafe_get keys 0) in
        for i = 1 to len - 1 do
          let ki = Array.unsafe_get keys i in
          if ki < !mk then mk := ki
        done;
        let mk = !mk in
        (* Collect the run in order; compact survivors in place, so a
           capped run's tail stays at the front for the next call. *)
        let k = ref 0 and w = ref 0 in
        for i = 0 to len - 1 do
          let ki = Array.unsafe_get keys i in
          let vi = Array.unsafe_get vals i in
          if ki = mk && !k < cap then begin
            Array.unsafe_set buf !k vi;
            incr k
          end
          else begin
            Array.unsafe_set keys !w ki;
            Array.unsafe_set vals !w vi;
            incr w
          end
        done;
        b.len <- !w;
        if !w = 0 then begin
          t.occ <- t.occ lxor (1 lsl (bi - 1));
          if t.occ <> 0 then t.lowbi <- 1 + msb63 (t.occ land -t.occ)
        end;
        t.size <- t.size - !k;
        !k
      end
    end
  end

(* The minimum's image without popping it or moving any entry: bucket
   0 holds keys equal to the floor, and otherwise the minimum lives in
   the lowest non-empty bucket, found by a scan. Deliberately never
   advances the floor: a caller that peeks, declines to pop (an engine
   stopping at [run ~until]) and then adds a key between the old floor
   and the peeked minimum must still be accepted. *)
let min_image t =
  if t.size = 0 then max_int
  else if t.head < (Array.unsafe_get t.buckets 0).len then t.ifloor
  else begin
    let b = Array.unsafe_get t.buckets t.lowbi in
    let keys = b.keys in
    let m = ref (Array.unsafe_get keys 0) in
    for k = 1 to b.len - 1 do
      let ik = Array.unsafe_get keys k in
      if ik < !m then m := ik
    done;
    !m
  end

let pop t =
  if t.size = 0 then None
  else begin
    let key = float_of_image (min_image t) in
    Some (key, pop_val t)
  end

(* The unfiltered CSR Dijkstra drain, fused with the heap: pop the
   minimum, relax the popped node's CSR slots, push improved distances
   — until empty. This lives here, not in Netgraph.Dijkstra, because
   the non-flambda compiler never inlines across compilation units: as
   separate calls, the per-operation overhead (call + heap field
   reloads) costs more than the heap work itself. The graph reaches us
   as bare arrays precisely so the hot loop can share the heap's unit;
   Netgraph.Dijkstra remains the owning API (filters, workspaces,
   results) and documents the array contract.

   Caller contract (trusted, all accesses below are unsafe): [off] has
   n+1 offsets; [nbr]/[eid]/[wsel]/[woth] are CSR slot arrays of length
   [off.(n)]; [dist]/[pred]/[pred_edge]/[other] have length n; every
   payload already in the heap and every [nbr] value is in [0, n);
   weights are non-negative and finite. Keys pushed here are
   d + w >= d >= floor, so the monotonicity guard of [add] is
   unnecessary.

   A popped entry for x is fresh (x not yet settled) iff its key still
   equals [image dist.(x)]: a push happens only on a strict improvement,
   so no node ever has two equal-key entries, and any later entry for x
   carries a strictly smaller key and pops first. That makes the key
   itself the settled marker — no stamp array on this path.

   Pops happen one entry at a time in exactly [pop_val] order, and
   relaxations visit slots in CSR (insertion) order — byte-identical
   results to a drain loop built from the public per-op API. *)
let drain_csr t ~off ~nbr ~eid ~wsel ~woth ~dist ~pred ~pred_edge ~other =
  let buckets = t.buckets in
  let b0 = Array.unsafe_get buckets 0 in
  (* Heap state as locals: register-resident across the whole drain,
     written back once at the end. The occupancy bitmask is not
     maintained at all in here — the drain runs the heap to empty, so
     [occ = 0] is the truthful final state, and [lowbi] is kept as a
     never-stale-high hint instead: an add below it lowers it, a pop
     that finds its bucket empty scans upward to the next non-empty one
     (buckets below the hint are empty by induction). Total scan work
     is bounded by the number of times adds lower the hint, plus 63. *)
  let ifloor = ref t.ifloor in
  let lowbi = ref (if t.occ = 0 then 64 else t.lowbi) in
  let size = ref t.size in
  let head = ref t.head in
  (* key (image) of the entry the current iteration popped *)
  let pik = ref 0 in
  while !size > 0 do
    (* pop_val, inline *)
    let x =
      if !head < b0.len then begin
        pik := !ifloor;
        let v = Array.unsafe_get b0.vals !head in
        incr head;
        if !head = b0.len then begin
          b0.len <- 0;
          head := 0
        end;
        v
      end
      else begin
        let bi = ref !lowbi in
        while (Array.unsafe_get buckets !bi).len = 0 do incr bi done;
        let b = Array.unsafe_get buckets !bi in
        if b.len > scan_threshold then begin
          (* Rare floor advance, occ-free: advance the floor to the
             bucket's minimum and re-place every entry relative to it.
             Entries land strictly below the old bucket (ties with the
             minimum land in bucket 0), in original order per target
             bucket — same placement [redistribute] performs. *)
          let keys = b.keys and vals = b.vals in
          let len = b.len in
          let mi = ref 0 in
          for k = 1 to len - 1 do
            if Array.unsafe_get keys k < Array.unsafe_get keys !mi then
              mi := k
          done;
          ifloor := Array.unsafe_get keys !mi;
          b.len <- 0;
          let fl = !ifloor in
          for k = 0 to len - 1 do
            let ik = Array.unsafe_get keys k in
            let dd = ik lxor fl in
            let bj = if dd = 0 then 0 else 1 + msb63 dd in
            let b' = Array.unsafe_get buckets bj in
            if b'.len = Array.length b'.keys then grow b';
            Array.unsafe_set b'.keys b'.len ik;
            Array.unsafe_set b'.vals b'.len (Array.unsafe_get vals k);
            b'.len <- b'.len + 1
          done;
          (* The minimum is now at the head of bucket 0; the scan on
             the next non-b0 pop re-finds the lowest bucket. *)
          lowbi := 1;
          pik := !ifloor;
          let v = Array.unsafe_get b0.vals 0 in
          if b0.len = 1 then begin
            b0.len <- 0;
            head := 0
          end
          else head := 1;
          v
        end
        else begin
          lowbi := !bi;
          (* Small-bucket min-scan pop (see [pop_slow]). *)
          let keys = b.keys and vals = b.vals in
          let len = b.len in
          let mi = ref 0 in
          for k = 1 to len - 1 do
            if Array.unsafe_get keys k < Array.unsafe_get keys !mi then
              mi := k
          done;
          pik := Array.unsafe_get keys !mi;
          let v = Array.unsafe_get vals !mi in
          for k = !mi to len - 2 do
            Array.unsafe_set keys k (Array.unsafe_get keys (k + 1));
            Array.unsafe_set vals k (Array.unsafe_get vals (k + 1))
          done;
          b.len <- len - 1;
          v
        end
      end
    in
    decr size;
    let d = Array.unsafe_get dist x in
    if
      Int64.to_int (Int64.sub (Int64.bits_of_float d) 0x4000_0000_0000_0000L)
      = !pik
    then begin
      let ox = Array.unsafe_get other x in
      for s = Array.unsafe_get off x to Array.unsafe_get off (x + 1) - 1 do
        let y = Array.unsafe_get nbr s in
        let nd = d +. Array.unsafe_get wsel s in
        if nd < Array.unsafe_get dist y then begin
          Array.unsafe_set dist y nd;
          Array.unsafe_set pred y x;
          Array.unsafe_set pred_edge y (Array.unsafe_get eid s);
          Array.unsafe_set other y (ox +. Array.unsafe_get woth s);
          (* add, inline; [image nd] written out so nd stays an
             unboxed local *)
          let ik =
            Int64.to_int
              (Int64.sub (Int64.bits_of_float nd) 0x4000_0000_0000_0000L)
          in
          let dd = ik lxor !ifloor in
          let bi =
            if dd = 0 then 0
            else
              1
              +
              if dd lsr 32 <> 0 then
                if dd lsr 48 <> 0 then
                  if dd lsr 56 <> 0 then 56 + msb8 (dd lsr 56)
                  else 48 + msb8 (dd lsr 48)
                else if dd lsr 40 <> 0 then 40 + msb8 (dd lsr 40)
                else 32 + msb8 (dd lsr 32)
              else if dd lsr 16 <> 0 then
                if dd lsr 24 <> 0 then 24 + msb8 (dd lsr 24)
                else 16 + msb8 (dd lsr 16)
              else if dd lsr 8 <> 0 then 8 + msb8 (dd lsr 8)
              else msb8 dd
          in
          let b = Array.unsafe_get buckets bi in
          if b.len = Array.length b.keys then grow b;
          Array.unsafe_set b.keys b.len ik;
          Array.unsafe_set b.vals b.len y;
          b.len <- b.len + 1;
          if bi > 0 && bi < !lowbi then lowbi := bi;
          incr size
        end
      done
    end
  done;
  (* Drained: occ/size/head are all zero again; keep the advanced
     floor so the post-state matches a per-op drain exactly. *)
  t.ifloor <- !ifloor;
  t.occ <- 0;
  t.size <- 0;
  t.head <- 0

let clear t =
  (* Buckets drained by pops already have len = 0 and a fully drained
     heap has occ = 0 — so resetting bucket 0 plus the still-occupied
     buckets makes clearing an already-empty heap O(1), the common
     workspace-reuse case. *)
  (Array.unsafe_get t.buckets 0).len <- 0;
  let occ = ref t.occ in
  while !occ <> 0 do
    let low = !occ land - !occ in
    (Array.unsafe_get t.buckets (1 + msb63 low)).len <- 0;
    occ := !occ lxor low
  done;
  t.occ <- 0;
  t.size <- 0;
  t.head <- 0;
  t.ifloor <- image_zero
