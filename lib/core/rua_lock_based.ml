module Job = Rtlf_model.Job
module Lock_manager = Rtlf_model.Lock_manager

(* Two serve paths, chosen per invocation by one O(1) lock-table query.

   No job waits: every dependency chain is the job itself, no cycle
   exists and there are no victims, so the algorithm reduces to the
   lock-free greedy over the same live set — same PUDs, same orders,
   same feasibility test. That case runs on the shared flat kernel
   ({!Rua_flat}), charged with the lock-based model. It never consults
   a cross-invocation cache.

   Some job waits: the arena-backed chain path. Scratch cells carry
   each live job's dependency chain, the sort runs in place, and the
   greedy loop probes aggregates with journalled rollback instead of
   deep-copying the tentative schedule per candidate.

   Both paths are differentially tested bit-identical to
   [Reference.rua_lock_based], [ops] included.

   The deadlock-victim table is created when the first cycle is found:
   it is folded to produce [aborts], and fold order over a Hashtbl
   depends on its allocation history, which must match the reference's
   fresh table exactly. Deadlocks are rare, so most chain-path decides
   create no table at all. *)

type scratch = {
  flat : Rua_flat.t;
  arena : Arena.t;
  sched : Tentative_schedule.t;
  by_jid : (int, Job.t) Hashtbl.t; (* reused: lookups only, never folded *)
}

(* Map the jid chains produced by the lock manager back to jobs. Chain
   members that are no longer live (just completed/aborted) are
   dropped. *)
let resolve_chain by_jid jids =
  List.filter_map (fun jid -> Hashtbl.find_opt by_jid jid) jids

let by_pud (a : Arena.cell) (b : Arena.cell) =
  match Float.compare b.Arena.key a.Arena.key with
  | 0 -> Int.compare a.Arena.jid b.Arena.jid
  | c -> c

let decide_chains scratch ~locks ~now ~jobs ~remaining =
  let ops = ref 0 in
  let by_jid = scratch.by_jid in
  Hashtbl.clear by_jid;
  let cells = Arena.cells scratch.arena ~n:(Array.length jobs) in
  let n = ref 0 in
  Array.iter
    (fun j ->
      if Job.is_live j then begin
        Hashtbl.replace by_jid j.Job.jid j;
        let c = cells.(!n) in
        c.Arena.jid <- j.Job.jid;
        c.Arena.job <- j;
        incr n
      end)
    jobs;
  let n = !n in
  (* Step 1: dependency chains (head-first execution order). *)
  for i = 0 to n - 1 do
    let c = cells.(i) in
    let chain_jids = Lock_manager.dependency_chain locks ~jid:c.Arena.jid in
    let chain = resolve_chain by_jid chain_jids in
    ops := !ops + List.length chain;
    c.Arena.chain <- chain
  done;
  (* Step 2: deadlock detection; resolve each cycle by aborting its
     least-PUD member. *)
  let victims = ref None in
  for i = 0 to n - 1 do
    ops := !ops + 1;
    match Lock_manager.find_cycle locks ~jid:cells.(i).Arena.jid with
    | None -> ()
    | Some cycle_jids ->
      let cycle = resolve_chain by_jid cycle_jids in
      ops := !ops + List.length cycle;
      let weakest =
        List.fold_left
          (fun acc job ->
            let pud = Pud.of_job ~now ~remaining job in
            match acc with
            | None -> Some (pud, job)
            | Some (best, _) when pud < best -> Some (pud, job)
            | Some _ -> acc)
          None cycle
      in
      (match weakest with
      | Some (_, job) ->
        let tbl =
          match !victims with
          | Some tbl -> tbl
          | None ->
            let tbl = Hashtbl.create 4 in
            victims := Some tbl;
            tbl
        in
        Hashtbl.replace tbl job.Job.jid job
      | None -> ())
  done;
  let victims = !victims in
  let is_victim j =
    match victims with None -> false | Some tbl -> Hashtbl.mem tbl j.Job.jid
  in
  (* Step 3: PUD of each surviving job over its chain; compact the
     victims out of the scored prefix in place. *)
  let m = ref 0 in
  for i = 0 to n - 1 do
    let c = cells.(i) in
    if not (is_victim c.Arena.job) then begin
      let chain =
        match victims with
        | None -> c.Arena.chain
        | Some _ -> List.filter (fun j -> not (is_victim j)) c.Arena.chain
      in
      ops := !ops + List.length chain;
      let d = cells.(!m) in
      d.Arena.key <- Pud.of_chain ~now ~remaining chain;
      d.Arena.jid <- c.Arena.jid;
      d.Arena.job <- c.Arena.job;
      d.Arena.chain <- chain;
      incr m
    end
  done;
  let m = !m in
  (* Step 4: sort by non-increasing PUD. *)
  Arena.sort cells ~n:m ~cmp:by_pud;
  ops := !ops + (n * Log2.ceil (max n 2));
  (* Step 5: greedy construction with aggregate insertion. *)
  let sched = scratch.sched in
  Tentative_schedule.reset sched ~ops ~now ~remaining;
  let rejected = ref [] in
  for i = 0 to m - 1 do
    let c = cells.(i) in
    if Tentative_schedule.mem sched ~jid:c.Arena.jid then
      (* Already scheduled as someone's dependent. *)
      ()
    else if not (Tentative_schedule.try_insert_chain sched c.Arena.chain) then
      rejected := c.Arena.jid :: !rejected
  done;
  let schedule = Tentative_schedule.jobs sched in
  let dispatch = List.find_opt Job.is_runnable schedule in
  let aborts =
    match victims with
    | None -> []
    | Some tbl -> Hashtbl.fold (fun _ job acc -> job :: acc) tbl []
  in
  Arena.scrub cells ~n;
  {
    Scheduler.dispatch;
    aborts;
    rejected = List.rev !rejected;
    schedule;
    ops = !ops;
  }

let decide scratch ~locks ~now ~jobs ~remaining =
  if Lock_manager.has_waiters locks then
    decide_chains scratch ~locks ~now ~jobs ~remaining
  else
    let n = Rua_flat.score scratch.flat ~now ~jobs ~remaining in
    Rua_flat.rebuild scratch.flat Rua_flat.lock_based ~now ~jobs ~n

let make ~locks =
  let scratch =
    {
      flat = Rua_flat.create ();
      arena = Arena.create ();
      sched =
        Tentative_schedule.create ~ops:(ref 0) ~now:0 ~remaining:(fun _ -> 0);
      by_jid = Hashtbl.create 64;
    }
  in
  {
    Scheduler.name = "rua-lock-based";
    decide =
      (fun ~now ~jobs ~remaining -> decide scratch ~locks ~now ~jobs ~remaining);
  }
