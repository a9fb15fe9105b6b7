module Job = Rtlf_model.Job

(* Arena-backed: runnable jobs are scored into scratch cells and sorted
   in place by (critical time, jid). Differentially tested bit-identical
   to [Reference.edf]. Critical times fit a float exactly (|ct| < 2⁵³),
   so the widened key preserves the integer order.

   The decision is a pure function of the runnable subset (critical
   times are arrival-fixed, [now] and [remaining] are unused), so a
   one-deep cache skips the O(n log n) sort when the scheduler is
   re-invoked with the same physical jobs array and unchanged runnable
   flags — the common steady state between arrivals and departures. *)

type cache = {
  mutable valid : bool;
  mutable jobs_arr : Job.t array;
  mutable runnable : bool array;
  mutable decision : Scheduler.decision;
}

type scratch = { arena : Arena.t; cache : cache }

let by_ct (a : Arena.cell) (b : Arena.cell) =
  match Float.compare a.Arena.key b.Arena.key with
  | 0 -> Int.compare a.Arena.jid b.Arena.jid
  | c -> c

let cache_hit scratch ~jobs =
  let c = scratch.cache in
  c.valid && jobs == c.jobs_arr
  &&
  let n = Array.length jobs in
  let rec check i =
    i >= n || (Job.is_runnable jobs.(i) = c.runnable.(i) && check (i + 1))
  in
  check 0

let cache_store scratch ~jobs decision =
  let c = scratch.cache in
  let n = Array.length jobs in
  (* Grown by doubling: a live set that creeps upwards costs O(log n)
     regrowths. *)
  if Array.length c.runnable < n then begin
    let cap = max n (max 16 (2 * Array.length c.runnable)) in
    c.runnable <- Array.make cap false
  end;
  for i = 0 to n - 1 do
    c.runnable.(i) <- Job.is_runnable jobs.(i)
  done;
  c.jobs_arr <- jobs;
  c.decision <- decision;
  c.valid <- true

let decide scratch ~now:_ ~jobs ~remaining:_ =
  if cache_hit scratch ~jobs then scratch.cache.decision
  else begin
    let cells = Arena.cells scratch.arena ~n:(Array.length jobs) in
    let n = ref 0 in
    Array.iter
      (fun j ->
        if Job.is_runnable j then begin
          let c = cells.(!n) in
          c.Arena.key <- float_of_int (Job.absolute_critical_time j);
          c.Arena.jid <- j.Job.jid;
          c.Arena.job <- j;
          incr n
        end)
      jobs;
    let n = !n in
    Arena.sort cells ~n ~cmp:by_ct;
    let schedule = List.init n (fun i -> cells.(i).Arena.job) in
    let dispatch = match schedule with [] -> None | j :: _ -> Some j in
    Arena.scrub cells ~n;
    let decision =
      {
        Scheduler.dispatch;
        aborts = [];
        rejected = [];
        schedule;
        ops = Array.length jobs;
      }
    in
    cache_store scratch ~jobs decision;
    decision
  end

let make () =
  let scratch =
    {
      arena = Arena.create ();
      cache =
        {
          valid = false;
          jobs_arr = [||];
          runnable = [||];
          decision =
            {
              Scheduler.dispatch = None;
              aborts = [];
              rejected = [];
              schedule = [];
              ops = 0;
            };
        };
    }
  in
  {
    Scheduler.name = "edf";
    decide = (fun ~now ~jobs ~remaining -> decide scratch ~now ~jobs ~remaining);
  }
