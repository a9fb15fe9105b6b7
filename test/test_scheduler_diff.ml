(* Differential oracle for the arena-backed scheduler hot path.

   The optimized schedulers ([Edf], [Edf_pip], [Rua_lock_free],
   [Rua_lock_based]) must produce decisions bit-identical to the
   retained list-based [Reference] implementations — dispatch, aborts,
   rejected, schedule order AND the charged [ops] count (the
   simulator's overhead model depends on it) — across seeded scenes
   sweeping n ∈ {1, 2, 8, 64}, with and without lock dependency
   chains. Every scene is decided twice on the same optimized
   instance, so stale scratch-arena state from the previous call would
   also be caught. All randomness derives from RTLF_SEED via
   [Test_support]. *)

module Tuf = Rtlf_model.Tuf
module Uam = Rtlf_model.Uam
module Task = Rtlf_model.Task
module Job = Rtlf_model.Job
module Resource = Rtlf_model.Resource
module Lock_manager = Rtlf_model.Lock_manager
module Scheduler = Rtlf_core.Scheduler
module Reference = Rtlf_core.Reference
module Log2 = Rtlf_core.Log2

let remaining = Job.remaining_nominal

let mk_job rs ~jid =
  let ct = 50 + Random.State.int rs 1950 in
  let rem = 1 + Random.State.int rs 400 in
  let height = 0.1 +. Random.State.float rs 100.0 in
  let tuf =
    if Random.State.bool rs then Tuf.step ~height ~c:ct
    else Tuf.linear ~u0:height ~c:ct
  in
  let task =
    Task.make ~id:jid ~tuf
      ~arrival:(Uam.periodic ~period:(2 * ct))
      ~exec:rem ()
  in
  Job.create ~task ~jid ~arrival:0

(* A frozen scheduling scene. With [with_chains], the first min(5,n)
   jobs form a linear lock dependency chain (holder at the front), and
   half the n >= 8 scenes additionally deadlock the last two jobs on a
   2-cycle, exercising the victim-selection path. *)
let scene rs ~n ~with_chains =
  let jobs = Array.init n (fun jid -> mk_job rs ~jid) in
  let objects = Resource.create ~n:8 in
  let locks = Lock_manager.create ~objects in
  if with_chains then begin
    let k = min 5 n in
    for i = 0 to k - 1 do
      (match Lock_manager.request locks ~jid:i ~obj:i with
      | Lock_manager.Granted -> ()
      | Lock_manager.Blocked_on _ -> assert false);
      if i >= 1 then
        match Lock_manager.request locks ~jid:i ~obj:(i - 1) with
        | Lock_manager.Granted -> ()
        | Lock_manager.Blocked_on _ -> jobs.(i).Job.state <- Job.Blocked (i - 1)
    done;
    if n >= 8 && Random.State.bool rs then begin
      let a = n - 2 and b = n - 1 in
      ignore (Lock_manager.request locks ~jid:a ~obj:6);
      ignore (Lock_manager.request locks ~jid:b ~obj:7);
      (match Lock_manager.request locks ~jid:a ~obj:7 with
      | Lock_manager.Blocked_on _ -> jobs.(a).Job.state <- Job.Blocked 7
      | Lock_manager.Granted -> ());
      match Lock_manager.request locks ~jid:b ~obj:6 with
      | Lock_manager.Blocked_on _ -> jobs.(b).Job.state <- Job.Blocked 6
      | Lock_manager.Granted -> ()
    end
  end;
  (jobs, locks)

let jid_opt = function None -> None | Some j -> Some j.Job.jid
let jids = List.map (fun j -> j.Job.jid)

let check_same ~msg (expected : Scheduler.decision)
    (got : Scheduler.decision) =
  Alcotest.(check (option int))
    (msg ^ ": dispatch")
    (jid_opt expected.Scheduler.dispatch)
    (jid_opt got.Scheduler.dispatch);
  Alcotest.(check (list int))
    (msg ^ ": aborts")
    (jids expected.Scheduler.aborts)
    (jids got.Scheduler.aborts);
  Alcotest.(check (list int))
    (msg ^ ": rejected") expected.Scheduler.rejected got.Scheduler.rejected;
  Alcotest.(check (list int))
    (msg ^ ": schedule")
    (jids expected.Scheduler.schedule)
    (jids got.Scheduler.schedule);
  Alcotest.(check int) (msg ^ ": ops") expected.Scheduler.ops
    got.Scheduler.ops

let run_diff kind () =
  let rs = Test_support.rand_state () in
  (* Lock-oblivious schedulers keep one instance for the whole sweep:
     the scratch arena is reused across all 128+ scenes. *)
  let persistent =
    match kind with
    | `Edf -> Some (Rtlf_core.Edf.make ())
    | `Lock_free -> Some (Rtlf_core.Rua_lock_free.make ())
    | `Edf_pip | `Lock_based -> None
  in
  let count = ref 0 in
  List.iter
    (fun n ->
      List.iter
        (fun with_chains ->
          for rep = 1 to 16 do
            incr count;
            let now = Random.State.int rs 200 in
            let jobs, locks = scene rs ~n ~with_chains in
            let opt =
              match (persistent, kind) with
              | Some s, _ -> s
              | None, `Edf_pip -> Rtlf_core.Edf_pip.make ~locks
              | None, `Lock_based -> Rtlf_core.Rua_lock_based.make ~locks
              | None, (`Edf | `Lock_free) -> assert false
            in
            let reference =
              match kind with
              | `Edf -> Reference.edf ()
              | `Lock_free -> Reference.rua_lock_free ()
              | `Edf_pip -> Reference.edf_pip ~locks
              | `Lock_based -> Reference.rua_lock_based ~locks
            in
            let expected =
              reference.Scheduler.decide ~now ~jobs ~remaining
            in
            let msg =
              Printf.sprintf "%s n=%d chains=%b rep=%d"
                reference.Scheduler.name n with_chains rep
            in
            check_same ~msg expected
              (opt.Scheduler.decide ~now ~jobs ~remaining);
            (* Same instance, same scene again: the scratch state left
               by the previous call must not leak into the result. *)
            check_same ~msg:(msg ^ " (rerun)") expected
              (opt.Scheduler.decide ~now ~jobs ~remaining)
          done)
        [ false; true ])
    [ 1; 2; 8; 64 ];
  Alcotest.(check bool) "at least 100 scenes" true (!count >= 100)

(* --- incremental sequences ---------------------------------------------- *)

(* The lock-oblivious schedulers carry a cross-invocation decision cache
   (see [Rua_lock_free], [Edf]): a persistent instance decided against
   the same evolving jobs array must stay bit-identical to a fresh
   [Reference] at EVERY step — through cache hits (steady states where
   only [now] advances or a job flips Ready<->Running) and through
   rebuilds (segment progress, completions, unblocking, [now] passing
   the schedule's minimum slack). Mutations are biased toward no-ops so
   both paths are exercised many times per sequence. *)
let run_incremental kind () =
  let rs = Test_support.rand_state () in
  List.iter
    (fun n ->
      for rep = 1 to 8 do
        let with_chains = n >= 4 && Random.State.bool rs in
        let jobs, _locks = scene rs ~n ~with_chains in
        let opt =
          match kind with
          | `Edf -> Rtlf_core.Edf.make ()
          | `Lock_free -> Rtlf_core.Rua_lock_free.make ()
        in
        let now = ref (Random.State.int rs 50) in
        for step = 1 to 40 do
          (match Random.State.int rs 8 with
          | 0 | 1 | 2 | 3 ->
            (* Steady state: at most the clock moves. *)
            ()
          | 4 ->
            (* Execution progress inside the current segment: the job's
               remaining cost shrinks. *)
            let j = jobs.(Random.State.int rs n) in
            if Job.is_live j && Job.remaining_nominal j > 1 then
              j.Job.seg_progress <- j.Job.seg_progress + 1
          | 5 ->
            (* Dispatch / preempt / unblock: Ready<->Running keeps the
               runnable flag (and the cached decision) valid; leaving
               Blocked does not. *)
            let j = jobs.(Random.State.int rs n) in
            (match j.Job.state with
            | Job.Ready -> j.Job.state <- Job.Running
            | Job.Running -> j.Job.state <- Job.Ready
            | Job.Blocked _ -> j.Job.state <- Job.Ready
            | Job.Completed | Job.Aborted -> ())
          | 6 ->
            (* Departure: the job leaves the live set. *)
            let j = jobs.(Random.State.int rs n) in
            if Job.is_live j then j.Job.state <- Job.Completed
          | _ ->
            (* Abort (e.g. deadlock victim elsewhere in the system). *)
            let j = jobs.(Random.State.int rs n) in
            if Job.is_live j then j.Job.state <- Job.Aborted);
          now := !now + Random.State.int rs 30;
          let reference =
            match kind with
            | `Edf -> Reference.edf ()
            | `Lock_free -> Reference.rua_lock_free ()
          in
          let expected =
            reference.Scheduler.decide ~now:!now ~jobs ~remaining
          in
          let msg =
            Printf.sprintf "incremental %s n=%d chains=%b rep=%d step=%d"
              reference.Scheduler.name n with_chains rep step
          in
          check_same ~msg expected
            (opt.Scheduler.decide ~now:!now ~jobs ~remaining)
        done
      done)
    [ 1; 4; 16; 64 ]

(* --- overload-shaped scenes ---------------------------------------------- *)

(* The shape the simulator's overload workloads hand the decider: about
   a hundred live jobs or more, nearly all admissible, with ties in both
   sort keys. Remaining costs and step heights come from small sets so
   that PUDs collide (1/4 = 2/8 = 4/16), critical times from a coarse
   grid so that eff_ct collides, and critical times are scaled to the
   total demand so that at least 90 % of the candidates are admitted;
   a few doomed jobs (critical time below their cost) are always
   rejected. *)
let overload_job rs ~jid ~n =
  let rem = [| 4; 8; 16 |].(Random.State.int rs 3) in
  let height = [| 1.0; 2.0; 4.0 |].(Random.State.int rs 3) in
  let ct =
    if Random.State.int rs 40 = 0 then 1 + Random.State.int rs (rem - 1)
    else (5 * n) + (n / 2 * Random.State.int rs 9)
  in
  let arrival = 10 * Random.State.int rs 3 in
  let task =
    Task.make ~id:jid
      ~tuf:(Tuf.step ~height ~c:ct)
      ~arrival:(Uam.periodic ~period:(2 * ct))
      ~exec:rem ()
  in
  Job.create ~task ~jid ~arrival

(* One persistent decider instance runs every scene, each over a short
   overload-like sequence: a job makes progress or aborts, and the
   clock moves. Every step is checked against a fresh reference, and
   decided twice. *)
let run_overload () =
  let rs = Test_support.rand_state () in
  let opt = Rtlf_core.Rua_lock_free.make () in
  let admitted = ref 0 and candidates = ref 0 in
  List.iter
    (fun n ->
      for rep = 1 to 4 do
        let jobs = Array.init n (fun jid -> overload_job rs ~jid ~n) in
        let now = ref (Random.State.int rs 20) in
        for step = 1 to 8 do
          if step > 1 then begin
            (match Random.State.int rs 3 with
            | 0 ->
              let j = jobs.(Random.State.int rs n) in
              if Job.is_live j && Job.remaining_nominal j > 1 then
                j.Job.seg_progress <- j.Job.seg_progress + 1
            | 1 ->
              let j = jobs.(Random.State.int rs n) in
              if Job.is_live j then j.Job.state <- Job.Aborted
            | _ -> ());
            now := !now + Random.State.int rs 5
          end;
          let expected =
            (Reference.rua_lock_free ()).Scheduler.decide ~now:!now ~jobs
              ~remaining
          in
          let msg = Printf.sprintf "overload n=%d rep=%d step=%d" n rep step in
          check_same ~msg expected
            (opt.Scheduler.decide ~now:!now ~jobs ~remaining);
          check_same ~msg:(msg ^ " (rerun)") expected
            (opt.Scheduler.decide ~now:!now ~jobs ~remaining);
          Array.iter (fun j -> if Job.is_live j then incr candidates) jobs;
          admitted := !admitted + List.length expected.Scheduler.schedule
        done
      done)
    [ 89; 100; 129; 300 ];
  Alcotest.(check bool)
    (Printf.sprintf "at least 90%% admitted (%d of %d)" !admitted !candidates)
    true
    (10 * !admitted >= 9 * !candidates)

(* The scoring pass overwrites the cache record as it goes. If
   [remaining] raises half-way, the next decide on the same array must
   rebuild, not serve the old decision from a record that now mixes
   two states. *)
let test_raising_remaining () =
  let rs = Test_support.rand_state () in
  let n = 16 in
  let jobs, _locks = scene rs ~n ~with_chains:false in
  let opt = Rtlf_core.Rua_lock_free.make () in
  ignore (opt.Scheduler.decide ~now:0 ~jobs ~remaining);
  jobs.(0).Job.state <- Job.Completed;
  let raising j = if j == jobs.(n - 1) then failwith "boom" else remaining j in
  (match opt.Scheduler.decide ~now:0 ~jobs ~remaining:raising with
  | _ -> Alcotest.fail "remaining did not raise"
  | exception Failure _ -> ());
  check_same ~msg:"after a raising remaining"
    ((Reference.rua_lock_free ()).Scheduler.decide ~now:0 ~jobs ~remaining)
    (opt.Scheduler.decide ~now:0 ~jobs ~remaining)

(* --- lock-based serve paths ----------------------------------------------- *)

(* [Rua_lock_based] serves a decide from the flat kernel when no job
   waits on a lock and from the chain path otherwise. These scenes pin
   both against the reference, [ops] included, at the boundary between
   them. *)

let expect_waiters ~msg locks want =
  Alcotest.(check bool) (msg ^ ": has_waiters") want
    (Lock_manager.has_waiters locks)

let check_lock_based ~msg opt ~locks ~now jobs =
  let expected =
    (Reference.rua_lock_based ~locks).Scheduler.decide ~now ~jobs ~remaining
  in
  check_same ~msg expected (opt.Scheduler.decide ~now ~jobs ~remaining);
  check_same ~msg:(msg ^ " (rerun)") expected
    (opt.Scheduler.decide ~now ~jobs ~remaining)

(* Locks held, nobody waiting: up to eight jobs each take a free object,
   some several. Served flat. *)
let test_lock_based_held_no_waiters () =
  let rs = Test_support.rand_state () in
  List.iter
    (fun n ->
      for rep = 1 to 16 do
        let jobs, locks = scene rs ~n ~with_chains:false in
        for obj = 0 to 7 do
          if Random.State.bool rs then
            ignore
              (Lock_manager.request locks ~jid:(Random.State.int rs n) ~obj)
        done;
        let msg = Printf.sprintf "held, no waiters n=%d rep=%d" n rep in
        expect_waiters ~msg locks false;
        check_lock_based ~msg
          (Rtlf_core.Rua_lock_based.make ~locks)
          ~locks ~now:(Random.State.int rs 200) jobs
      done)
    [ 1; 2; 8; 64 ]

(* The only waiter is not in the jobs array, as when it sits in another
   core's partitioned queue: every chain in the array is a singleton,
   but the lock table has a waiter, so the chain path serves. *)
let test_lock_based_outside_waiter () =
  let rs = Test_support.rand_state () in
  List.iter
    (fun n ->
      for rep = 1 to 16 do
        let jobs, locks = scene rs ~n ~with_chains:false in
        let holder = Random.State.int rs n in
        ignore (Lock_manager.request locks ~jid:holder ~obj:0);
        (match Lock_manager.request locks ~jid:(n + 1000) ~obj:0 with
        | Lock_manager.Blocked_on _ -> ()
        | Lock_manager.Granted -> assert false);
        let msg = Printf.sprintf "outside waiter n=%d rep=%d" n rep in
        expect_waiters ~msg locks true;
        check_lock_based ~msg
          (Rtlf_core.Rua_lock_based.make ~locks)
          ~locks ~now:(Random.State.int rs 200) jobs
      done)
    [ 1; 2; 8; 64 ]

(* One instance, one lock table, decided flat -> chain -> flat -> chain
   as jobs block and are handed the lock: scratch state from one path
   must not leak into the other. *)
let test_lock_based_path_switches () =
  let rs = Test_support.rand_state () in
  List.iter
    (fun n ->
      for rep = 1 to 8 do
        let jobs, locks = scene rs ~n ~with_chains:false in
        let opt = Rtlf_core.Rua_lock_based.make ~locks in
        let now = ref (Random.State.int rs 50) in
        let step label ~waiters =
          let msg = Printf.sprintf "switch n=%d rep=%d %s" n rep label in
          expect_waiters ~msg locks waiters;
          check_lock_based ~msg opt ~locks ~now:!now jobs;
          now := !now + Random.State.int rs 30
        in
        let block ~jid ~obj =
          match Lock_manager.request locks ~jid ~obj with
          | Lock_manager.Blocked_on _ -> jobs.(jid).Job.state <- Job.Blocked obj
          | Lock_manager.Granted -> assert false
        in
        let handoff ~holder ~obj =
          match Lock_manager.release locks ~jid:holder ~obj with
          | Some next -> jobs.(next).Job.state <- Job.Ready
          | None -> ()
        in
        ignore (Lock_manager.request locks ~jid:0 ~obj:0);
        step "flat (0 holds 0)" ~waiters:false;
        if n >= 2 then begin
          block ~jid:(n - 1) ~obj:0;
          step "chain (last waits on 0)" ~waiters:true;
          handoff ~holder:0 ~obj:0;
          step "flat (last granted 0)" ~waiters:false;
          block ~jid:0 ~obj:0;
          step "chain (0 waits on 0)" ~waiters:true;
          (* A job leaves mid-sequence, then the wait clears. *)
          jobs.(n / 2).Job.state <- Job.Completed;
          Lock_manager.cancel_wait locks ~jid:0;
          jobs.(0).Job.state <- Job.Ready;
          step "flat (wait cancelled)" ~waiters:false
        end
      done)
    [ 1; 2; 8; 64 ]

(* --- membership churn --------------------------------------------------- *)

(* The flat kernel carries each rebuild's two orders over to the next as
   a sort hint. These sequences pin that the carried state never changes
   a result: one persistent decider against a fresh reference at every
   step, [ops] included. Each step hands the decider what
   [Live_view.view] would: a fresh jid-sorted array after a membership
   change (arrivals append the next jids, removals leave from anywhere,
   an emptied set is [[||]]), or the same array again, mutated in place,
   while membership holds. The sizes sweep across the warm-start cutoff
   (8) in both directions, and jobs come from small value sets arriving
   at shared instants, so PUDs and eff_cts tie. Under locks, a waiter
   now and then moves the decide to the chain path while membership
   keeps changing, so the next flat decide starts from a stale hint. *)

let churn_job rs ~jid ~now =
  let rem = [| 4; 8; 16 |].(Random.State.int rs 3) in
  let height = [| 1.0; 2.0; 4.0 |].(Random.State.int rs 3) in
  let ct =
    if Random.State.int rs 20 = 0 then 1 + Random.State.int rs (rem - 1)
    else 40 + (20 * Random.State.int rs 4)
  in
  let tuf =
    if Random.State.int rs 6 = 0 then Tuf.linear ~u0:height ~c:ct
    else Tuf.step ~height ~c:ct
  in
  let task =
    Task.make ~id:jid ~tuf ~arrival:(Uam.periodic ~period:(2 * ct)) ~exec:rem ()
  in
  Job.create ~task ~jid ~arrival:(max 0 (now - (4 * Random.State.int rs 3)))

let churn_sizes = [ 3; 12; 6; 40; 9; 8; 7; 0; 25; 1; 16; 0 ]

let run_churn kind () =
  let rs = Test_support.rand_state () in
  let locks = Lock_manager.create ~objects:(Resource.create ~n:8) in
  let opt, reference =
    match kind with
    | `Lock_free ->
      (Rtlf_core.Rua_lock_free.make (), fun () -> Reference.rua_lock_free ())
    | `Lock_based ->
      ( Rtlf_core.Rua_lock_based.make ~locks,
        fun () -> Reference.rua_lock_based ~locks )
  in
  let live = ref [||] and next_jid = ref 0 and now = ref 0 in
  (* Under locks: [Some (holder, waiter, obj)] while one job waits. *)
  let wait = ref None in
  let steps = ref 0 and same = ref 0 and chain = ref 0 in
  let decide label =
    incr steps;
    let jobs = !live in
    let msg =
      Printf.sprintf "churn step=%d n=%d %s" !steps (Array.length jobs) label
    in
    check_same ~msg
      ((reference ()).Scheduler.decide ~now:!now ~jobs ~remaining)
      (opt.Scheduler.decide ~now:!now ~jobs ~remaining)
  in
  let locked j =
    match !wait with
    | Some (h, w, _) -> j.Job.jid = h || j.Job.jid = w
    | None -> false
  in
  let clear_wait () =
    match !wait with
    | None -> ()
    | Some (h, w, obj) ->
      (match Lock_manager.release locks ~jid:h ~obj with
      | Some next when next = w -> ()
      | _ -> assert false);
      ignore (Lock_manager.release locks ~jid:w ~obj);
      Array.iter
        (fun j -> if j.Job.jid = w then j.Job.state <- Job.Ready)
        !live;
      wait := None
  in
  let start_wait () =
    let n = Array.length !live in
    if !wait = None && n >= 2 then begin
      let a = Random.State.int rs n in
      let b = (a + 1 + Random.State.int rs (n - 1)) mod n in
      let h = !live.(a) and w = !live.(b) in
      if Job.is_live h && Job.is_live w then begin
        let obj = Random.State.int rs 8 in
        (match Lock_manager.request locks ~jid:h.Job.jid ~obj with
        | Lock_manager.Granted -> ()
        | Lock_manager.Blocked_on _ -> assert false);
        (match Lock_manager.request locks ~jid:w.Job.jid ~obj with
        | Lock_manager.Blocked_on _ -> w.Job.state <- Job.Blocked obj
        | Lock_manager.Granted -> assert false);
        wait := Some (h.Job.jid, w.Job.jid, obj)
      end
    end
  in
  (* A fresh view: the live jobs, jid-sorted, in a new array. *)
  let refresh () =
    live := Array.of_list (List.filter Job.is_live (Array.to_list !live))
  in
  let arrive () =
    let j = churn_job rs ~jid:!next_jid ~now:!now in
    incr next_jid;
    live := Array.append !live [| j |]
  in
  let remove () =
    let n = Array.length !live in
    let j = !live.(Random.State.int rs n) in
    if locked j then clear_wait ();
    j.Job.state <- (if Random.State.bool rs then Job.Completed else Job.Aborted)
  in
  (* In place: progress, Ready <-> Running, or an abort the view has not
     yet seen. *)
  let mutate () =
    let n = Array.length !live in
    if n > 0 then begin
      let j = !live.(Random.State.int rs n) in
      if Job.is_live j && not (locked j) then
        match Random.State.int rs 3 with
        | 0 ->
          if Job.remaining_nominal j > 1 then
            j.Job.seg_progress <- j.Job.seg_progress + 1
        | 1 -> (
          match j.Job.state with
          | Job.Ready -> j.Job.state <- Job.Running
          | Job.Running -> j.Job.state <- Job.Ready
          | _ -> ())
        | _ -> j.Job.state <- Job.Aborted
    end
  in
  List.iter
    (fun target ->
      while Array.length !live <> target do
        let n = Array.length !live in
        if n < target then
          for _ = 1 to 1 + Random.State.int rs (min 3 (target - n)) do
            arrive ()
          done
        else
          for _ = 1 to 1 + Random.State.int rs (min 2 (n - target)) do
            remove ()
          done;
        refresh ();
        now := !now + Random.State.int rs 3;
        if kind = `Lock_based then begin
          if Random.State.int rs 4 = 0 then start_wait ()
          else if Random.State.int rs 3 = 0 then clear_wait ();
          if !wait <> None then incr chain
        end;
        decide "fresh";
        if Random.State.bool rs then begin
          mutate ();
          if Random.State.bool rs then now := !now + Random.State.int rs 3;
          incr same;
          decide "same array"
        end
      done)
    churn_sizes;
  clear_wait ();
  Alcotest.(check bool)
    (Printf.sprintf "identity-preserving steps (%d)" !same)
    true (!same >= 20);
  if kind = `Lock_based then
    Alcotest.(check bool)
      (Printf.sprintf "chain-path steps (%d)" !chain)
      true (!chain >= 10)

(* --- Log2 --------------------------------------------------------------- *)

let test_log2_boundaries () =
  List.iter
    (fun (n, expect) ->
      Alcotest.(check int) (Printf.sprintf "ceil %d" n) expect (Log2.ceil n))
    [
      (1, 1);
      (2, 1);
      (3, 2);
      (4, 2);
      (7, 3);
      (8, 3);
      (15, 4);
      (16, 4);
      (1023, 10);
      (1024, 10);
      (1025, 11);
    ]

let () =
  Test_support.run "scheduler_diff"
    [
      ( "log2",
        [
          Alcotest.test_case "boundary values" `Quick test_log2_boundaries;
        ] );
      ( "differential",
        [
          Alcotest.test_case "edf = reference" `Quick (run_diff `Edf);
          Alcotest.test_case "edf-pip = reference" `Quick (run_diff `Edf_pip);
          Alcotest.test_case "rua-lock-free = reference" `Quick
            (run_diff `Lock_free);
          Alcotest.test_case "rua-lock-based = reference" `Quick
            (run_diff `Lock_based);
        ] );
      ( "lock-based",
        [
          Alcotest.test_case "locks held, no waiters (flat)" `Quick
            test_lock_based_held_no_waiters;
          Alcotest.test_case "waiter outside the jobs array (chain)" `Quick
            test_lock_based_outside_waiter;
          Alcotest.test_case "flat/chain switches on one instance" `Quick
            test_lock_based_path_switches;
        ] );
      ( "overload",
        [
          Alcotest.test_case "rua-lock-free overload scenes = reference"
            `Quick run_overload;
        ] );
      ( "churn",
        [
          Alcotest.test_case "rua-lock-free = reference" `Quick
            (run_churn `Lock_free);
          Alcotest.test_case "rua-lock-based flat/chain = reference" `Quick
            (run_churn `Lock_based);
        ] );
      ( "incremental",
        [
          Alcotest.test_case "edf sequences = reference" `Quick
            (run_incremental `Edf);
          Alcotest.test_case "rua-lock-free sequences = reference" `Quick
            (run_incremental `Lock_free);
          Alcotest.test_case "rua-lock-free cache after a raising remaining"
            `Quick test_raising_remaining;
        ] );
    ]
