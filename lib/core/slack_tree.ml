(* One bottom-up tree over a fixed position range, holding two things
   per node: the admitted rem of its subtree (a plain sum) and the
   minimum slack of its subtree under suffix adds. Storage is grow-only
   and reused across decisions.

   The tree is perfect over [size] leaves, stored heap-style: node 1 is
   the root, leaves are [size .. 2*size-1]. Adds are never pushed down.
   [lzy.(p)] is an add pending for all of [p]'s subtree, and [minv.(p)]
   is the subtree minimum relative to the adds pending at [p]'s strict
   ancestors — so [minv.(p) = min minv.(2p) minv.(2p+1) + lzy.(p)] at
   every internal node, and a leaf's absolute value is its [minv] plus
   the [lzy] of every ancestor. [sum.(p)] is absolute. A probe is one
   leaf-to-root walk and answers all three questions an admission asks;
   [admit] is one more.

   Every add covers a whole suffix, so the leaves past [n] receive the
   same adds as the last position. A vacant leaf's value is
   [sentinel - (admitted rem before it)], non-increasing in position,
   so the padding never lowers a minimum over [0, n): the answers are
   those of the range [0, n) alone. *)

(* Far above any reachable slack (eff_ct minus work sums, both bounded
   by the virtual-time horizon), far below overflow even after every
   admitted rem is subtracted from it. *)
let sentinel = max_int / 4

type probe = {
  mutable pos : int; (* -1 once admitted: [admit] needs a fresh probe *)
  mutable before : int;
  mutable after : int;
  mutable above : int;
}

type t = {
  mutable n : int;
  mutable size : int; (* power of two >= n; tree nodes are 1 .. 2*size-1 *)
  mutable minv : int array; (* node -> min slack of its segment *)
  mutable lzy : int array; (* internal node -> add pending below it *)
  mutable sum : int array; (* node -> admitted rem of its segment *)
  last : probe;
}

let create () =
  {
    n = 0;
    size = 1;
    minv = [||];
    lzy = [||];
    sum = [||];
    last = { pos = -1; before = 0; after = sentinel; above = 0 };
  }

let reset t ~n =
  let size = ref 1 in
  while !size < max n 1 do
    size := !size * 2
  done;
  let size = !size in
  t.n <- n;
  t.size <- size;
  t.last.pos <- -1;
  if Array.length t.minv < 2 * size then begin
    t.minv <- Array.make (2 * size) sentinel;
    t.lzy <- Array.make size 0;
    t.sum <- Array.make (2 * size) 0
  end
  else begin
    Array.fill t.minv 0 (2 * size) sentinel;
    Array.fill t.lzy 0 size 0;
    Array.fill t.sum 0 (2 * size) 0
  end

(* Climbing from the leaf, each level's sibling is either a left one
   (the path goes up from a right child): admitted work before [pos]; or
   a right one: positions after [pos], folded into the running minimum,
   which then shifts into the parent's frame. The same shifts summed are
   the adds pending above the leaf. The union of the right siblings is
   [pos+1, size), which for [pos = n-1] is padding only: that answer is
   the sentinel.

   Which case a level is in follows the bits of [pos], so a branch on it
   is a coin flip per level; the walks select with masks instead.
   [left] is all ones at a left sibling, whose minimum [far] then lifts
   above every real answer, and [imin] is branch-free for differences
   that fit an int: all values here lie within [-sentinel, 3 * sentinel]. *)
let far = 2 * sentinel

let[@inline] imin a b =
  let d = b - a in
  a + (d land (d asr (Sys.int_size - 1)))

let probe t ~pos =
  if pos < 0 || pos >= t.n then invalid_arg "Slack_tree.probe: position";
  let minv = t.minv and lzy = t.lzy and sum = t.sum in
  let p = ref (pos + t.size) in
  let before = ref 0 and mn = ref sentinel and above = ref 0 in
  while !p > 1 do
    let q = !p in
    let sib = q lxor 1 in
    let left = -(q land 1) in
    before := !before + (sum.(sib) land left);
    mn := imin !mn (minv.(sib) + (far land left));
    p := q lsr 1;
    let a = lzy.(!p) in
    mn := !mn + a;
    above := !above + a
  done;
  let r = t.last in
  r.pos <- pos;
  r.before <- !before;
  r.after <- (if pos = t.n - 1 then sentinel else !mn);
  r.above <- !above;
  r

let min_all t = if t.n = 0 then sentinel else t.minv.(1)

(* Sets the leaf (relative to the adds above it, which the probe
   summed), adds [-rem] to every later leaf — exactly the right
   siblings of the path's left children; a left sibling gets [-0] —
   and [rem] to the sum of every node on the path, recomputing the
   path's minima. *)
let admit t ~rem ~slack =
  let r = t.last in
  if r.pos < 0 then invalid_arg "Slack_tree.admit: no fresh probe";
  let minv = t.minv and lzy = t.lzy and sum = t.sum and size = t.size in
  let leaf = r.pos + size in
  r.pos <- -1;
  minv.(leaf) <- slack - r.above;
  sum.(leaf) <- rem;
  let p = ref leaf in
  while !p > 1 do
    let q = !p in
    let sib = q lxor 1 in
    let add = rem land ((q land 1) - 1) in
    minv.(sib) <- minv.(sib) - add;
    if sib < size then lzy.(sib) <- lzy.(sib) - add;
    let up = q lsr 1 in
    sum.(up) <- sum.(up) + rem;
    minv.(up) <- imin minv.(2 * up) minv.((2 * up) + 1) + lzy.(up);
    p := up
  done
