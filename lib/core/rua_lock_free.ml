module Job = Rtlf_model.Job

(* Incremental, scale-ready decider. Two layers on top of the abstract
   algorithm (which is unchanged — [Reference.rua_lock_free] remains
   the oracle, and the differential suite pins decisions AND charged
   ops bit-identical):

   1. Within one invocation, the greedy admission loop runs in
      O(n log n) instead of O(n²): the flat kernel {!Rua_flat}, shared
      with the lock-based decider's no-waiter case.

   2. Across invocations, a validity cache skips the rebuild entirely
      when no job's feasibility inputs changed. The decision is a pure
      function of (candidate order, per-candidate (eff_ct, rem), now);
      re-scoring is O(1) per job, and monotonicity makes the cached
      decision exact for any [now' >= now] up to the schedule's minimum
      slack: admitted entries keep non-negative slack (their slacks
      only dominate the intermediate states the greedy saw), and a
      candidate rejected at [now] fails the same comparison at any
      later instant. Any detected change — array identity, liveness,
      runnability, remaining cost, or PUD — falls back to the full
      rebuild.

   Both paths share one scoring pass that calls [remaining] once per
   live job: its results land in the kernel's per-index arrays, which
   the rebuild then reads.

   The abstract ops charges are the paper's complexity model, not a
   measure of this implementation: both layers charge exactly what the
   reference list walk would have charged ({!Rua_flat.lock_free}). *)

(* Last decision plus everything needed to prove it still holds. The
   per-index arrays (here and the kernel's rem/PUD) shadow the jobs
   array the decision was made from (identity-checked — the Live_view
   cache hands the scheduler the same physical array while membership
   is unchanged). *)
type cache = {
  mutable valid : bool;
  mutable jobs_arr : Job.t array;
  mutable prev_now : int;
  mutable min_slack : int; (* cached decision exact while now <= this *)
  mutable live : bool array;
  mutable runnable : bool array;
  mutable decision : Scheduler.decision;
}

type scratch = { flat : Rua_flat.t; cache : cache }

(* Grown by doubling, like the kernel's arrays. *)
let ensure_bool n arr =
  if Array.length arr >= n then arr
  else Array.make (max n (max 16 (2 * Array.length arr))) false

(* --- scoring: shared by the cached and the rebuild path ---------------- *)

(* One pass computes every live job's remaining cost and PUD, records
   them by job index, and lists the live job indices as the kernel's
   candidates ({!Rua_flat.columns} records jids and eff_cts). While the
   cache can still hold — same array, [now] inside the window — the
   values are compared with the recorded ones as they are overwritten.
   PUD is compared bitwise: a step TUF's PUD is constant over the job's
   feasible window, so steady states validate; any drift rebuilds.
   Returns whether the cached decision still holds, and the live
   count. *)
let score scratch ~now ~jobs ~remaining =
  let c = scratch.cache in
  let n = Array.length jobs in
  let hit =
    ref
      (c.valid && jobs == c.jobs_arr && now >= c.prev_now
     && now <= c.min_slack)
  in
  (* The pass overwrites the record, so it holds no valid decision until
     the pass confirms a hit or the rebuild completes — even if
     [remaining] raises half-way. *)
  c.valid <- false;
  c.live <- ensure_bool n c.live;
  c.runnable <- ensure_bool n c.runnable;
  Rua_flat.reserve scratch.flat ~n;
  Rua_flat.columns scratch.flat ~jobs;
  let live_a = c.live
  and runnable_a = c.runnable
  and pud_a = Rua_flat.pud scratch.flat
  and rem_a = Rua_flat.rem scratch.flat
  and cand = Rua_flat.candidates scratch.flat in
  let m = ref 0 in
  for i = 0 to n - 1 do
    let j = jobs.(i) in
    let live = Job.is_live j in
    if live <> live_a.(i) then hit := false;
    live_a.(i) <- live;
    if live then begin
      let rem = remaining j in
      let pud = Pud.of_rem ~now ~rem j in
      let runnable = Job.is_runnable j in
      if
        !hit
        && not
             (runnable = runnable_a.(i)
             && rem = rem_a.(i)
             && Float.equal pud pud_a.(i))
      then hit := false;
      runnable_a.(i) <- runnable;
      rem_a.(i) <- rem;
      pud_a.(i) <- pud;
      cand.(!m) <- i;
      incr m
    end
  done;
  c.valid <- !hit;
  (!hit, !m)

let decide scratch ~now ~jobs ~remaining =
  let hit, n = score scratch ~now ~jobs ~remaining in
  let c = scratch.cache in
  if hit then c.decision
  else begin
    let decision =
      Rua_flat.rebuild scratch.flat Rua_flat.lock_free ~now ~jobs ~n
    in
    (* The decision stays valid while now <= min over admitted of
       (eff_ct_i - prefix_rem_i): every admitted entry still feasible,
       every rejection still forced. The scoring pass already recorded
       the per-job inputs. *)
    c.jobs_arr <- jobs;
    c.prev_now <- now;
    c.min_slack <- Rua_flat.min_slack scratch.flat;
    c.decision <- decision;
    c.valid <- true;
    decision
  end

let make () =
  let scratch =
    {
      flat = Rua_flat.create ();
      cache =
        {
          valid = false;
          jobs_arr = [||];
          prev_now = 0;
          min_slack = 0;
          live = [||];
          runnable = [||];
          decision = Scheduler.idle_decision;
        };
    }
  in
  {
    Scheduler.name = "rua-lock-free";
    decide = (fun ~now ~jobs ~remaining -> decide scratch ~now ~jobs ~remaining);
  }
