(* Per-layer replays of a recorded simulator trace.

   Each replay feeds the run's own trace, in order, into one layer's
   public API and times the calls from outside, so the per-layer
   figures come without touching the simulator. Jobs in a replay carry
   their full segment profile (the trace does not record execution
   progress), so decide replays see the live-set sequence and the
   arrive/abort churn of the run, not its exact remaining work. *)

module Trace = Rtlf_sim.Trace
module Job = Rtlf_model.Job
module Task = Rtlf_model.Task
module Segment = Rtlf_model.Segment
module Live_view = Rtlf_sim.Live_view
module Event_queue = Rtlf_engine.Event_queue
module Scheduler = Rtlf_core.Scheduler

(* Host ns since [t0] and [c0], readings of {!Meter.now_ns} and
   {!Meter.chunk_ns}, less the calibration chunks that ran meanwhile. *)
let since t0 c0 = Meter.now_ns () - t0 - (Meter.chunk_ns () - c0)

let task_table tasks =
  let n = 1 + List.fold_left (fun acc t -> max acc t.Task.id) (-1) tasks in
  let a = Array.make n (List.hd tasks) in
  List.iter (fun t -> a.(t.Task.id) <- t) tasks;
  a

(* The trace's arrivals, in order: (jid, task id, true arrival time). *)
let arrivals entries =
  Array.of_list
    (Array.fold_right
       (fun e acc ->
         match e.Trace.kind with
         | Trace.Arrive (jid, tid, at) -> (jid, tid, at) :: acc
         | _ -> acc)
       entries [])

(* Fresh jobs indexed by jid (the simulator numbers arrivals 0, 1, …). *)
let fresh_jobs ~tasks entries =
  let by_id = task_table tasks in
  let arr = arrivals entries in
  let jobs =
    Array.make (Array.length arr)
      (Job.create ~task:by_id.(0) ~jid:(-1) ~arrival:0)
  in
  Array.iter
    (fun (jid, tid, at) -> jobs.(jid) <- Job.create ~task:by_id.(tid) ~jid ~arrival:at)
    arr;
  jobs

(* --- model: Job.create for every arrival ------------------------------- *)

let job_create_ns ~tasks entries =
  let by_id = task_table tasks in
  let arr = arrivals entries in
  let sink = ref 0 in
  let t0 = Meter.now_ns () and c0 = Meter.chunk_ns () in
  Array.iter
    (fun (jid, tid, at) ->
      let j = Job.create ~task:by_id.(tid) ~jid ~arrival:at in
      sink := !sink + (Sys.opaque_identity j).Job.jid)
    arr;
  let ns = since t0 c0 in
  ignore (Sys.opaque_identity !sink);
  float_of_int ns /. float_of_int (max 1 (Array.length arr))

(* --- engine: the arrival schedule through Event_queue ------------------ *)

type queue_replay = {
  queue_ops : int;
  queue_ns_per_op : float;
  queue_pops : int;
  arrival_order_ok : bool;
      (** arrivals popped in the trace's [Arrive] order *)
}

(* The queue holds one pending arrival per task plus each released
   job's expiry, keyed [time · n + task] so equal-time arrivals pop in
   task order, as the simulator's pre-loaded queue pops them. *)
let queue ~tasks entries =
  let by_id = task_table tasks in
  let n = Array.length by_id in
  let arr = arrivals entries in
  let horizon =
    Array.fold_left (fun acc e -> max acc e.Trace.time) 0 entries
  in
  let crit =
    Array.map
      (fun task ->
        Job.absolute_critical_time (Job.create ~task ~jid:0 ~arrival:0))
      by_id
  in
  let per_task = Array.make n [] in
  for k = Array.length arr - 1 downto 0 do
    let _, tid, at = arr.(k) in
    per_task.(tid) <- at :: per_task.(tid)
  done;
  let per_task = Array.map Array.of_list per_task in
  let next = Array.make n 0 in
  let popped = Array.make (Array.length arr) (-1, -1) in
  let n_popped = ref 0 in
  let q = Event_queue.create () in
  let adds = ref 0 and pops = ref 0 in
  let add time tid =
    incr adds;
    Event_queue.add q ~time:((time * n) + tid) tid
  in
  let t0 = Meter.now_ns () and c0 = Meter.chunk_ns () in
  for tid = 0 to n - 1 do
    if Array.length per_task.(tid) > 0 then add per_task.(tid).(0) tid
  done;
  while not (Event_queue.is_empty q) do
    let key, tid = Event_queue.pop_exn q in
    incr pops;
    if tid >= 0 then begin
      let at = key / n in
      popped.(!n_popped) <- (tid, at);
      incr n_popped;
      let k = next.(tid) + 1 in
      next.(tid) <- k;
      if k < Array.length per_task.(tid) then add per_task.(tid).(k) tid;
      let expiry = at + crit.(tid) in
      if expiry <= horizon then begin
        incr adds;
        Event_queue.add q ~time:((expiry * n) + tid) (-1)
      end
    end
  done;
  let ns = since t0 c0 in
  let ops = !adds + !pops in
  {
    queue_ops = ops;
    queue_ns_per_op = float_of_int ns /. float_of_int (max 1 ops);
    queue_pops = !pops;
    arrival_order_ok =
      !n_popped = Array.length arr
      && Array.for_all2 (fun (_, tid, at) p -> p = (tid, at)) arr popped;
  }

(* --- sim: the live set through Live_view ------------------------------- *)

type live_replay = {
  live_ops : int;
  live_ns_per_op : float;
  live_at_sched : int array;
      (** live count at each [Sched], derived from the trace *)
  view_matches : bool;
      (** {!Live_view.view}'s size equals the derived count at every
          [Sched] *)
}

let live_view ~tasks entries =
  let jobs = fresh_jobs ~tasks entries in
  let n_sched =
    Array.fold_left
      (fun acc e ->
        match e.Trace.kind with Trace.Sched _ -> acc + 1 | _ -> acc)
      0 entries
  in
  let derived = Array.make n_sched 0 and seen = Array.make n_sched 0 in
  let live = ref 0 and k = ref 0 in
  Array.iter
    (fun e ->
      match e.Trace.kind with
      | Trace.Arrive _ -> incr live
      | Trace.Complete _ | Trace.Abort _ -> decr live
      | Trace.Sched _ ->
        derived.(!k) <- !live;
        incr k
      | _ -> ())
    entries;
  let lv = Live_view.create () in
  let ops = ref 0 and k = ref 0 in
  let t0 = Meter.now_ns () and c0 = Meter.chunk_ns () in
  Array.iter
    (fun e ->
      match e.Trace.kind with
      | Trace.Arrive (jid, _, _) ->
        incr ops;
        Live_view.add lv jobs.(jid)
      | Trace.Complete jid | Trace.Abort (jid, _) ->
        incr ops;
        Live_view.remove lv ~jid
      | Trace.Sched _ ->
        incr ops;
        seen.(!k) <- Array.length (Live_view.view lv);
        incr k
      | _ -> ())
    entries;
  let ns = since t0 c0 in
  {
    live_ops = !ops;
    live_ns_per_op = float_of_int ns /. float_of_int (max 1 !ops);
    live_at_sched = derived;
    view_matches = derived = seen;
  }

(* --- core: decide on the run's live-set sequence ----------------------- *)

(* The simulator's remaining-cost estimate (nominal sync overheads
   included), which it hands to every decide. *)
let remaining_cost sync (job : Job.t) =
  let seg_cost = function
    | Segment.Compute s -> s
    | Segment.Access { work; _ } -> Rtlf_sim.Sync.nominal_access_cost sync ~work
    | Segment.Lock _ | Segment.Unlock _ -> (
      match sync with
      | Rtlf_sim.Sync.Lock_based { overhead } | Rtlf_sim.Sync.Spin { overhead; _ }
        ->
        overhead
      | Rtlf_sim.Sync.Lock_free _ | Rtlf_sim.Sync.Ideal -> 0)
  in
  match job.Job.segments with
  | [] -> 0
  | head :: tail ->
    let head_left = max 0 (seg_cost head - job.Job.seg_progress) in
    List.fold_left (fun acc s -> acc + seg_cost s) head_left tail

type decide_replay = {
  decide_ns : float array;  (** per call, in trace order *)
  decide_total_s : float;
}

let decide ~tasks ~sync ~n_objects entries =
  let jobs = fresh_jobs ~tasks entries in
  let locks =
    Rtlf_model.Lock_manager.create
      ~objects:(Rtlf_model.Resource.create ~n:(max 1 n_objects))
  in
  let sched =
    match sync with
    | Rtlf_sim.Sync.Lock_based _ -> Rtlf_core.Rua_lock_based.make ~locks
    | _ -> Rtlf_core.Rua_lock_free.make ()
  in
  let remaining = remaining_cost sync in
  let lv = Live_view.create () in
  let samples = ref [] in
  let total = ref 0 in
  let module L = Rtlf_model.Lock_manager in
  let set_state jid s =
    if Live_view.mem lv ~jid then jobs.(jid).Job.state <- s
  in
  let resolve jid s =
    let j = jobs.(jid) in
    j.Job.state <- s;
    ignore (L.release_all locks ~jid);
    L.cancel_wait locks ~jid;
    j.Job.holding <- [];
    Live_view.remove lv ~jid
  in
  Array.iter
    (fun e ->
      match e.Trace.kind with
      | Trace.Arrive (jid, _, _) -> Live_view.add lv jobs.(jid)
      | Trace.Start (jid, _) -> set_state jid Job.Running
      | Trace.Preempt (jid, _) -> set_state jid Job.Ready
      | Trace.Block (jid, obj) ->
        set_state jid (Job.Blocked obj);
        ignore (L.request locks ~jid ~obj)
      | Trace.Wake (jid, _) -> set_state jid Job.Ready
      | Trace.Acquire (jid, obj) ->
        ignore (L.request locks ~jid ~obj);
        let j = jobs.(jid) in
        if not (List.mem obj j.Job.holding) then
          j.Job.holding <- obj :: j.Job.holding
      | Trace.Release (jid, obj) ->
        ignore (L.release locks ~jid ~obj);
        let j = jobs.(jid) in
        j.Job.holding <- List.filter (( <> ) obj) j.Job.holding
      | Trace.Complete jid -> resolve jid Job.Completed
      | Trace.Abort (jid, _) -> resolve jid Job.Aborted
      | Trace.Sched _ ->
        let view = Live_view.view lv in
        let t0 = Meter.now_ns () and c0 = Meter.chunk_ns () in
        let d = sched.Scheduler.decide ~now:e.Trace.time ~jobs:view ~remaining in
        let ns = since t0 c0 in
        ignore (Sys.opaque_identity d);
        total := !total + ns;
        samples := float_of_int ns :: !samples
      | Trace.Migrate _ | Trace.Retry _ | Trace.Access_done _ -> ())
    entries;
  {
    decide_ns = Array.of_list (List.rev !samples);
    decide_total_s = float_of_int !total *. 1e-9;
  }

(* Exact op counts of the run's own decides, from the [Sched] payloads. *)
let sched_ops entries =
  Array.of_list
    (Array.fold_right
       (fun e acc ->
         match e.Trace.kind with
         | Trace.Sched (ops, _) -> float_of_int ops :: acc
         | _ -> acc)
       entries [])

(* --- obs: exporters on a prefix of the trace --------------------------- *)

let prefix entries k =
  let tr = Trace.create ~enabled:true () in
  Array.iteri
    (fun i e -> if i < k then Trace.record tr ~time:e.Trace.time e.Trace.kind)
    entries;
  tr
