(** The flat RUA greedy kernel, for scenes where every job's dependency
    chain is the job itself.

    Under lock-free sharing that holds at every invocation (§5); under
    lock-based sharing it holds whenever no job waits on a lock. The
    greedy then scores each job in O(1), sorts int permutations of job
    indices over unboxed key arrays, and admits candidates in
    O(log n) each against a {!Slack_tree}. {!Rua_lock_free} and
    {!Rua_lock_based} both call this one kernel; only the abstract
    [ops] charges differ, as selected by {!charges}. *)

type charges
(** The per-job and per-probe [ops] charges of one decider. *)

val lock_free : charges
(** 1 op per live job (its PUD), and [2·⌈log₂(k+1)⌉ + (k+1)] per
    probed candidate with [k] entries already admitted. *)

val lock_based : charges
(** 3 ops per live job (chain, cycle check, chain PUD), and
    [3·⌈log₂(k+1)⌉ + (k+1)] per probed candidate (two [mem] checks and
    one ECF insertion, plus the feasibility walk). *)

type t
(** Reusable scratch storage for one decider instance. *)

val create : unit -> t
(** [create ()] is an empty kernel. *)

val reserve : t -> n:int -> unit
(** [reserve t ~n] grows the kernel's per-index arrays ({!rem}, {!pud},
    {!candidates} and the jid and eff_ct columns) to hold at least [n]
    entries. *)

val columns : t -> jobs:Rtlf_model.Job.t array -> unit
(** [columns t ~jobs] records every job's jid and eff_ct by index, after
    {!reserve}; it does nothing when they were last recorded from this
    same physical array, since neither ever changes for a job. *)

val rem : t -> int array
(** Remaining cost by job index, as the scoring pass recorded it. *)

val pud : t -> float array
(** PUD by job index, as the scoring pass recorded it. *)

val candidates : t -> int array
(** The live job indices, first [n] entries; {!rebuild} sorts them in
    place into admission order. *)

val score :
  t ->
  now:int ->
  jobs:Rtlf_model.Job.t array ->
  remaining:(Rtlf_model.Job.t -> int) ->
  int
(** [score t ~now ~jobs ~remaining] records the {!columns} and every
    live job's remaining cost and PUD, and lists the live job indices as
    candidates. Returns the live count. Callers that validate a cache
    write the same arrays themselves instead. *)

val rebuild :
  t ->
  charges ->
  now:int ->
  jobs:Rtlf_model.Job.t array ->
  n:int ->
  Scheduler.decision
(** [rebuild t charges ~now ~jobs ~n] runs the greedy over the first [n]
    candidates, reading their recorded values. The decision has no
    aborts; [ops] follows [charges].

    Each rebuild over more than 8 candidates keeps its two orders for
    the next one, which starts its sorts from them. That changes only
    the time taken: the decision is the same for any history, and
    [jobs] need not be related to the previous call's (jid-ascending
    arrays, as [Live_view] hands out, map fastest). *)

val min_slack : t -> int
(** The minimum slack over the last {!rebuild}'s admitted entries
    ({!Slack_tree.min_all}): its decision stays exact for any
    [now' >= now] up to this instant, as long as no input changes. *)
