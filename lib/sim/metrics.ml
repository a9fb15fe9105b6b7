module Stats = Rtlf_engine.Stats

type point = {
  aur : Stats.summary;
  cmr : Stats.summary;
  access_ns : Stats.summary;
  sojourn_p50_ns : Stats.summary;
  sojourn_p90_ns : Stats.summary;
  sojourn_p99_ns : Stats.summary;
  retries_total : int;
  max_retries : int;
  conflicts_total : int;
  blocked_ns_total : int;
  released : int;
  sched_overhead_ns : int;
  migrations_total : int;
}

let mean_access_ns (res : Simulator.result) =
  res.Simulator.access_samples.Stats.mean

(* What [aggregate] reads of one run. [repeat] keeps only this per
   seed, so a run's samples, other histograms and per-task results can
   go as soon as the run ends instead of living until the last seed's
   run has finished. *)
type run_summary = {
  r_aur : float;
  r_cmr : float;
  r_access : float;
  r_hist : Stats.histogram;
  r_retries : int;
  r_conflicts : int;
  r_blocked_ns : int;
  r_released : int;
  r_overhead : int;
  r_migrations : int;
  r_max_retries : int;
}

let summarise_run (res : Simulator.result) =
  let t = Contention.totals res.Simulator.contention in
  {
    r_aur = res.Simulator.aur;
    r_cmr = res.Simulator.cmr;
    r_access = mean_access_ns res;
    r_hist = res.Simulator.sojourn_hist;
    r_retries = res.Simulator.retries_total;
    r_conflicts = t.Contention.t_conflicts;
    r_blocked_ns = t.Contention.t_blocked_ns;
    r_released = res.Simulator.released;
    r_overhead = res.Simulator.sched_overhead;
    r_migrations = res.Simulator.migrations;
    r_max_retries =
      Array.fold_left
        (fun m (tr : Simulator.task_result) -> max m tr.Simulator.max_retries)
        0 res.Simulator.per_task;
  }

let aggregate_runs runs =
  let aur = Stats.create ()
  and cmr = Stats.create ()
  and access = Stats.create ()
  and p50 = Stats.create ()
  and p90 = Stats.create ()
  and p99 = Stats.create () in
  let retries = ref 0
  and max_retries = ref 0
  and conflicts = ref 0
  and blocked_ns = ref 0
  and released = ref 0
  and overhead = ref 0
  and migrations = ref 0 in
  List.iter
    (fun r ->
      Stats.add aur r.r_aur;
      Stats.add cmr r.r_cmr;
      if not (Float.is_nan r.r_access) then Stats.add access r.r_access;
      (* A run with no completions has an empty histogram and simply
         contributes nothing. *)
      let h = r.r_hist in
      if h.Stats.n > 0 then begin
        Stats.add p50 h.Stats.p50;
        Stats.add p90 h.Stats.p90;
        Stats.add p99 h.Stats.p99
      end;
      retries := !retries + r.r_retries;
      conflicts := !conflicts + r.r_conflicts;
      blocked_ns := !blocked_ns + r.r_blocked_ns;
      released := !released + r.r_released;
      overhead := !overhead + r.r_overhead;
      migrations := !migrations + r.r_migrations;
      if r.r_max_retries > !max_retries then max_retries := r.r_max_retries)
    runs;
  {
    aur = Stats.summary aur;
    cmr = Stats.summary cmr;
    access_ns = Stats.summary access;
    sojourn_p50_ns = Stats.summary p50;
    sojourn_p90_ns = Stats.summary p90;
    sojourn_p99_ns = Stats.summary p99;
    retries_total = !retries;
    max_retries = !max_retries;
    conflicts_total = !conflicts;
    blocked_ns_total = !blocked_ns;
    released = !released;
    sched_overhead_ns = !overhead;
    migrations_total = !migrations;
  }

let aggregate results = aggregate_runs (List.map summarise_run results)

let repeat ?jobs ~seeds ~run () =
  aggregate_runs
    (Rtlf_engine.Pool.map ?jobs (fun seed -> summarise_run (run ~seed)) seeds)
