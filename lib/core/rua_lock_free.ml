module Job = Rtlf_model.Job

(* Incremental, scale-ready decider. Two layers on top of the abstract
   algorithm (which is unchanged — [Reference.rua_lock_free] remains
   the oracle, and the differential suite pins decisions AND charged
   ops bit-identical):

   1. Within one invocation, the greedy admission loop runs in
      O(n log n) instead of O(n²). Candidates are laid out once in the
      final schedule's total order — (eff_ct, admission rank): ECF with
      ties resolved by admission order, exactly the order
      [Tentative_schedule.insert_at_ecf] produces — so admitting a
      candidate never shifts anything physically, and both feasibility
      conditions become Fenwick / suffix-min tree queries
      ({!Slack_tree}).

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
   live job: its results land in the cache record, which the rebuild
   then reads by job index. The rebuild itself works on flat int and
   float arrays — candidates are job indices, sorted as int
   permutations — so it holds no job pointers beyond the jobs array.

   The abstract ops charges are the paper's complexity model, not a
   measure of this implementation: both layers charge exactly what the
   reference list walk would have charged (per candidate probed with k
   entries admitted: two ordered-structure charges of ceil-log2(k+1)
   plus a feasibility walk of k+1; plus the n scoring and
   n*ceil-log2(n) sort charges). *)

(* Last decision plus everything needed to prove it still holds. The
   per-index arrays shadow the jobs array the decision was made from
   (identity-checked — the Live_view cache hands the scheduler the same
   physical array while membership is unchanged). *)
type cache = {
  mutable valid : bool;
  mutable jobs_arr : Job.t array;
  mutable prev_now : int;
  mutable min_slack : int; (* cached decision exact while now <= this *)
  mutable live : bool array;
  mutable runnable : bool array;
  mutable pud : float array;
  mutable rem : int array;
  mutable decision : Scheduler.decision;
}

type scratch = {
  tree : Slack_tree.t;
  mutable by_pud : int array; (* admission rank -> job index *)
  mutable by_ecf : int array; (* schedule position -> admission rank *)
  mutable ect_of_rank : int array; (* admission rank -> eff_ct *)
  mutable pos_of_rank : int array; (* admission rank -> schedule position *)
  mutable admitted : bool array; (* schedule position -> admitted? *)
  mutable tmp : int array; (* merge buffer for [sort_ints] *)
  cache : cache;
}

let empty_decision =
  { Scheduler.dispatch = None; aborts = []; rejected = []; schedule = []; ops = 0 }

let ensure n arr = if Array.length arr >= n then arr else Array.make (max n 16) 0
let ensure_bool n arr =
  if Array.length arr >= n then arr else Array.make (max n 16) false
let ensure_float n arr =
  if Array.length arr >= n then arr else Array.make (max n 16) 0.0

(* The two candidate orders, both total (unique tiebreak), so any
   comparison sort yields the reference [List.sort]'s result.
   - [By_pud (pud, jobs)]: job indices by non-increasing PUD, ties by
     jid. NaN-safe: equal to [Float.compare]'s order, off the hot path.
   - [By_ecf ect]: admission ranks by eff_ct ascending, ties by rank —
     the stable-ECF insertion order of the reference schedule. *)
type order = By_pud of float array * Job.t array | By_ecf of int array

let before order x y =
  match order with
  | By_pud (pud, jobs) ->
    let px = pud.(x) and py = pud.(y) in
    if px > py then true
    else if px < py then false
    else if px = py then jobs.(x).Job.jid < jobs.(y).Job.jid
    else (
      match Float.compare py px with
      | 0 -> jobs.(x).Job.jid < jobs.(y).Job.jid
      | d -> d < 0)
  | By_ecf ect ->
    let ex = ect.(x) and ey = ect.(y) in
    ex < ey || (ex = ey && x < y)

(* Merge sort of the int permutation [a.(0 .. n-1)] under [order], with
   [tmp] (length >= n) as the merge buffer. The order is a variant
   rather than a closure so that each comparison is a direct call. *)
let sort_ints a ~n ~tmp order =
  let rec go lo hi =
    if hi - lo <= 8 then
      for i = lo + 1 to hi - 1 do
        let x = a.(i) in
        let j = ref (i - 1) in
        while !j >= lo && before order x a.(!j) do
          a.(!j + 1) <- a.(!j);
          decr j
        done;
        a.(!j + 1) <- x
      done
    else begin
      let mid = (lo + hi) / 2 in
      go lo mid;
      go mid hi;
      if before order a.(mid) a.(mid - 1) then begin
        Array.blit a lo tmp lo (mid - lo);
        let i = ref lo and j = ref mid and k = ref lo in
        while !i < mid do
          if !j < hi && before order a.(!j) tmp.(!i) then begin
            a.(!k) <- a.(!j);
            incr j
          end
          else begin
            a.(!k) <- tmp.(!i);
            incr i
          end;
          incr k
        done
      end
    end
  in
  go 0 n

(* --- scoring: shared by the cached and the rebuild path ---------------- *)

(* One pass computes every live job's remaining cost and PUD, records
   them by job index, and lists the live job indices in [by_pud]. While
   the cache can still hold — same array, [now] inside the window — the
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
  c.pud <- ensure_float n c.pud;
  c.rem <- ensure n c.rem;
  scratch.by_pud <- ensure n scratch.by_pud;
  let live_a = c.live
  and runnable_a = c.runnable
  and pud_a = c.pud
  and rem_a = c.rem
  and cand = scratch.by_pud in
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

(* --- full rebuild ------------------------------------------------------ *)

let rebuild scratch ~now ~jobs ~n =
  let c = scratch.cache in
  let rem_of = c.rem in
  let by_pud = scratch.by_pud in
  scratch.tmp <- ensure n scratch.tmp;
  sort_ints by_pud ~n ~tmp:scratch.tmp (By_pud (c.pud, jobs));
  let ops = n + (n * Log2.ceil (max n 2)) in
  (* Fixed schedule positions: candidates ordered by (eff_ct,
     admission rank). The admitted subset read in position order is
     exactly the reference's stable-ECF schedule. *)
  scratch.ect_of_rank <- ensure n scratch.ect_of_rank;
  scratch.pos_of_rank <- ensure n scratch.pos_of_rank;
  scratch.by_ecf <- ensure n scratch.by_ecf;
  scratch.admitted <- ensure_bool n scratch.admitted;
  let ect_of_rank = scratch.ect_of_rank
  and pos_of_rank = scratch.pos_of_rank
  and by_ecf = scratch.by_ecf
  and admitted = scratch.admitted in
  for r = 0 to n - 1 do
    ect_of_rank.(r) <- Job.absolute_critical_time jobs.(by_pud.(r));
    by_ecf.(r) <- r
  done;
  sort_ints by_ecf ~n ~tmp:scratch.tmp (By_ecf ect_of_rank);
  for p = 0 to n - 1 do
    pos_of_rank.(by_ecf.(p)) <- p;
    admitted.(p) <- false
  done;
  let tree = scratch.tree in
  Slack_tree.reset tree ~n;
  (* Greedy admission, highest PUD first. Feasibility of candidate c
     at position p, against the admitted set S (all currently
     feasible): c itself must finish by its eff_ct after the admitted
     work before it, and every admitted entry after p must absorb
     rem c without going negative. Charges mirror the reference list
     walk exactly (see module comment). *)
  let ops = ref ops in
  let admitted_count = ref 0 in
  (* [lg = Log2.ceil (k + 1)], stepped as [k] grows past [pow]. *)
  let lg = ref 1 and pow = ref 2 in
  for r = 0 to n - 1 do
    let k = !admitted_count in
    if k + 1 > !pow then begin
      incr lg;
      pow := 2 * !pow
    end;
    ops := !ops + (2 * !lg) + (k + 1);
    let p = pos_of_rank.(r) in
    let rem = rem_of.(by_pud.(r)) in
    let ect = ect_of_rank.(r) in
    let before = Slack_tree.prefix_rem tree ~pos:p in
    let slack = ect - before - rem - now in
    if slack >= 0 && Slack_tree.suffix_min tree ~pos:(p + 1) >= now + rem
    then begin
      Slack_tree.admit tree ~pos:p ~rem ~slack:(ect - before - rem);
      admitted.(p) <- true;
      incr admitted_count
    end
  done;
  (* Both lists are built back to front, so neither needs reversing. *)
  let rejected = ref [] in
  for r = n - 1 downto 0 do
    if not admitted.(pos_of_rank.(r)) then
      rejected := jobs.(by_pud.(r)).Job.jid :: !rejected
  done;
  let schedule = ref [] in
  for p = n - 1 downto 0 do
    if admitted.(p) then schedule := jobs.(by_pud.(by_ecf.(p))) :: !schedule
  done;
  let schedule = !schedule in
  let decision =
    {
      Scheduler.dispatch = List.find_opt Job.is_runnable schedule;
      aborts = [];
      rejected = !rejected;
      schedule;
      ops = !ops;
    }
  in
  (* The decision stays valid while now <= min over admitted of
     (eff_ct_i - prefix_rem_i): every admitted entry still feasible,
     every rejection still forced. The scoring pass already recorded
     the per-job inputs. *)
  c.jobs_arr <- jobs;
  c.prev_now <- now;
  c.min_slack <- Slack_tree.min_all tree;
  c.decision <- decision;
  c.valid <- true;
  decision

let decide scratch ~now ~jobs ~remaining =
  let hit, n = score scratch ~now ~jobs ~remaining in
  if hit then scratch.cache.decision else rebuild scratch ~now ~jobs ~n

let make () =
  let scratch =
    {
      tree = Slack_tree.create ();
      by_pud = [||];
      by_ecf = [||];
      ect_of_rank = [||];
      pos_of_rank = [||];
      admitted = [||];
      tmp = [||];
      cache =
        {
          valid = false;
          jobs_arr = [||];
          prev_now = 0;
          min_slack = 0;
          live = [||];
          runnable = [||];
          pud = [||];
          rem = [||];
          decision = empty_decision;
        };
    }
  in
  {
    Scheduler.name = "rua-lock-free";
    decide = (fun ~now ~jobs ~remaining -> decide scratch ~now ~jobs ~remaining);
  }
