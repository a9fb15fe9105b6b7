(** Feasibility index for the greedy admission loop.

    The RUA greedy admits candidates in PUD order into a schedule kept
    in ECF order. Admitting candidate [c] at fixed schedule position
    [p] is feasible iff

    - [now + (admitted rem before p) + rem c <= eff_ct c], and
    - every already-admitted entry at a position after [p] keeps a
      non-negative slack once [rem c] is added to its prefix.

    One tree answers both: each node holds the admitted remaining cost
    of its subtree and the minimum of the per-position slack values
    [v_i = eff_ct_i - prefix_rem_i] (admitted positions only; vacant
    positions sit at a huge sentinel that never wins a min) under lazy
    suffix adds. {!probe} answers both questions for one position in a
    single leaf-to-root walk, and {!admit} is one more. Positions are
    fixed up front — the candidate set sorted by (eff_ct, admission
    rank) — so admission is a point write plus one suffix add, never a
    physical shift.

    One instance is reusable across decisions ({!reset} is O(n) and
    storage grows monotonically), in the same arena style as
    {!Arena}. *)

type t

val sentinel : int
(** The vacant-position slack: far above any reachable slack, far below
    overflow. [min_all] returns it when no position is admitted, and
    {!probe} when none lies after the probed one; {!Static_mode} reuses
    it when reconstructing [min_all] from a schedule. *)

type probe = private {
  mutable pos : int;  (** The probed position; [-1] once admitted. *)
  mutable before : int;
      (** The admitted rem at positions before [pos]. *)
  mutable after : int;
      (** The minimum slack over positions after [pos]: the sentinel
          when there are none, a value above [sentinel / 2] when none
          of them is admitted. *)
  mutable above : int;
      (** The adds pending above [pos]'s leaf, which {!admit} needs to
          set the leaf. *)
}
(** The answers of one {!probe}. *)

val create : unit -> t
(** [create ()] is an empty index. *)

val reset : t -> n:int -> unit
(** [reset t ~n] prepares the index for [n] fixed positions, all
    vacant. O(n) amortised; retains storage. *)

val probe : t -> pos:int -> probe
(** [probe t ~pos] answers, for a position [0 <= pos < n], in one walk:
    the admitted rem before [pos] and the minimum slack after it. It
    changes nothing the index answers. The returned record belongs to
    [t] and is overwritten by the next probe. Raises [Invalid_argument]
    when [pos] is out of range. *)

val min_all : t -> int
(** [min_all t] is the minimum slack over all admitted positions (the
    sentinel when none) — an admitted schedule is feasible at time
    [now] iff [now <= min_all t]. *)

val admit : t -> rem:int -> slack:int -> unit
(** [admit t ~rem ~slack] marks the position of the last {!probe},
    which must be vacant, admitted: its slack is set to [slack], [rem]
    joins the admitted work, and every later position's slack drops by
    [rem]. Raises [Invalid_argument] unless a probe precedes it with no
    admission in between. *)
