(* Fenwick tree (prefix sums of admitted rem) + bottom-up suffix-add /
   suffix-min tree (per-position slack) over a fixed position range.
   Storage is grow-only and reused across decisions.

   The min tree is a perfect binary tree over [size] leaves, stored
   heap-style: node 1 is the root, leaves are [size .. 2*size-1].
   Adds are never pushed down. [lzy.(p)] is an add pending for all of
   [p]'s subtree, and [minv.(p)] is the subtree minimum relative to the
   adds pending at [p]'s strict ancestors — so
   [minv.(p) = min minv.(2p) minv.(2p+1) + lzy.(p)] at every internal
   node, and a leaf's absolute value is its [minv] plus the [lzy] of
   every ancestor. Queries are one leaf-to-root walk, [admit] two.

   Every add covers a whole suffix, so the leaves past [n] receive the
   same adds as the last position. A vacant leaf's value is
   [sentinel - (admitted rem before it)], non-increasing in position,
   so the padding never lowers a minimum over [0, n): the answers are
   those of the range [0, n) alone. *)

(* Far above any reachable slack (eff_ct minus work sums, both bounded
   by the virtual-time horizon), far below overflow even after every
   admitted rem is subtracted from it. *)
let sentinel = max_int / 4

type t = {
  mutable n : int;
  mutable size : int; (* power of two >= n; tree nodes are 1 .. 2*size-1 *)
  mutable minv : int array; (* node -> min slack of its segment *)
  mutable lzy : int array; (* internal node -> add pending below it *)
  mutable fen : int array; (* 1-based Fenwick over rem *)
}

let create () = { n = 0; size = 1; minv = [||]; lzy = [||]; fen = [||] }

let reset t ~n =
  let size = ref 1 in
  while !size < max n 1 do
    size := !size * 2
  done;
  let size = !size in
  t.n <- n;
  t.size <- size;
  if Array.length t.minv < 2 * size then begin
    t.minv <- Array.make (2 * size) sentinel;
    t.lzy <- Array.make size 0;
    t.fen <- Array.make (size + 1) 0
  end
  else begin
    Array.fill t.minv 0 (2 * size) sentinel;
    Array.fill t.lzy 0 size 0;
    Array.fill t.fen 0 (size + 1) 0
  end

(* --- Fenwick ---------------------------------------------------------- *)

let fen_add t i v =
  let i = ref (i + 1) in
  while !i <= t.size do
    t.fen.(!i) <- t.fen.(!i) + v;
    i := !i + (!i land - !i)
  done

(* Sum over positions <= pos. *)
let prefix_rem t ~pos =
  let acc = ref 0 in
  let i = ref (pos + 1) in
  while !i > 0 do
    acc := !acc + t.fen.(!i);
    i := !i - (!i land - !i)
  done;
  !acc

(* --- min tree --------------------------------------------------------- *)

(* Minimum over leaves [pos, size): climbing from the leaf, fold in the
   right sibling whenever the path goes up from a left child, then
   shift the running minimum into the parent's frame. *)
let suffix_min t ~pos =
  if pos >= t.n then sentinel
  else begin
    let minv = t.minv and lzy = t.lzy in
    let p = ref (pos + t.size) in
    let acc = ref minv.(!p) in
    while !p > 1 do
      let q = !p in
      if q land 1 = 0 then begin
        let s = minv.(q + 1) in
        if s < !acc then acc := s
      end;
      p := q lsr 1;
      acc := !acc + lzy.(!p)
    done;
    !acc
  end

let min_all t = if t.n = 0 then sentinel else t.minv.(1)

(* One walk sets the leaf and adds [-rem] to every later leaf: the
   later leaves are exactly the right siblings of the path's left
   children. *)
let admit t ~pos ~rem ~slack =
  fen_add t pos rem;
  let minv = t.minv and lzy = t.lzy and size = t.size in
  let leaf = pos + size in
  let above = ref 0 in
  let p = ref (leaf lsr 1) in
  while !p >= 1 do
    above := !above + lzy.(!p);
    p := !p lsr 1
  done;
  minv.(leaf) <- slack - !above;
  let p = ref leaf in
  while !p > 1 do
    let q = !p in
    if q land 1 = 0 then begin
      let s = q + 1 in
      minv.(s) <- minv.(s) - rem;
      if s < size then lzy.(s) <- lzy.(s) - rem
    end;
    let up = q lsr 1 in
    let l = minv.(2 * up) and r = minv.((2 * up) + 1) in
    minv.(up) <- (if l < r then l else r) + lzy.(up);
    p := up
  done
