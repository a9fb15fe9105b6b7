(** Cached, jid-sorted view of the simulator's live jobs.

    Replaces the live-job [Hashtbl] whose every scheduler invocation
    paid a fold plus a [List.sort]. Membership mutations keep a flat
    jid-sorted array in which a removed job leaves a hole (its jid stays
    for the binary search, its job reference is dropped); holes are
    squeezed out once they outnumber the live jobs, so the array never
    holds more than about twice the live set. {!view} hands the
    scheduler a trimmed, hole-free snapshot that is rebuilt only when a
    dirty flag records a membership change since the previous
    invocation. Existence and cardinality queries ({!mem}, {!find},
    {!count}) never touch the dirty flag, so callers that only probe
    membership never force a rebuild.

    Aliasing contract (the incremental deciders key their caches on
    it): {!view} returns the physically same array while membership is
    unchanged, and a fresh array after any successful {!add} or
    {!remove} — except that every empty view is the shared [[||]]. *)

type t

val create : ?capacity:int -> unit -> t

val count : t -> int
(** Number of live jobs (holes excluded). O(1); does not rebuild the
    snapshot. *)

val add : t -> Rtlf_model.Job.t -> unit
(** O(1) amortised for monotonically increasing jids (the simulator's
    case); O(log n) when re-adding a removed jid whose hole is still
    there; O(n) insertion otherwise. Raises [Invalid_argument] on a
    duplicate jid. *)

val find : t -> jid:int -> Rtlf_model.Job.t option
(** Binary search; O(log n). *)

val mem : t -> jid:int -> bool
(** Binary search; O(log n), allocation-free. *)

val remove : t -> jid:int -> unit
(** O(log n) amortised: a binary search, then the slot becomes a hole
    holding a dummy job, so nothing keeps resolved jobs reachable.
    Trailing holes are trimmed at once; the others are compacted away,
    in one O(n) pass, when they outnumber the live jobs. No-op when
    [jid] is absent. *)

val view : t -> Rtlf_model.Job.t array
(** Jid-sorted snapshot of the live set, without holes. Rebuilt (one
    O(n) copy) only when membership changed since the last call;
    otherwise the previous snapshot is returned as-is. Callers must not
    mutate the array (job fields are fair game — the array holds shared
    references). *)

val iter : (Rtlf_model.Job.t -> unit) -> t -> unit
(** Iterate the live jobs in jid order, skipping holes; no snapshot
    rebuild. *)
