(* Lock-manager tests: grants, FIFO waiting, dependency chains (the
   paper's Figure 3 scenario), deadlock cycles (§3.3), abort release. *)

module Resource = Rtlf_model.Resource
module Lock_manager = Rtlf_model.Lock_manager

let mk ?(n = 5) () = Lock_manager.create ~objects:(Resource.create ~n)

let granted = function
  | Lock_manager.Granted -> true
  | Lock_manager.Blocked_on _ -> false

(* --- grants and releases -------------------------------------------------- *)

let test_grant_free_object () =
  let tbl = mk () in
  Alcotest.(check bool) "granted" true
    (granted (Lock_manager.request tbl ~jid:1 ~obj:0));
  Alcotest.(check bool) "owner recorded" true
    (Lock_manager.owner tbl ~obj:0 = Some 1);
  Alcotest.(check (list int)) "holding" [ 0 ] (Lock_manager.holding tbl ~jid:1)

let test_reentrant_same_owner () =
  let tbl = mk () in
  ignore (Lock_manager.request tbl ~jid:1 ~obj:0);
  Alcotest.(check bool) "same owner granted again" true
    (granted (Lock_manager.request tbl ~jid:1 ~obj:0))

let test_block_on_held () =
  let tbl = mk () in
  ignore (Lock_manager.request tbl ~jid:1 ~obj:0);
  (match Lock_manager.request tbl ~jid:2 ~obj:0 with
  | Lock_manager.Blocked_on owner -> Alcotest.(check int) "owner" 1 owner
  | Lock_manager.Granted -> Alcotest.fail "expected block");
  Alcotest.(check bool) "wait recorded" true
    (Lock_manager.waiting_for tbl ~jid:2 = Some 0);
  Alcotest.(check (list int)) "queue" [ 2 ] (Lock_manager.waiters tbl ~obj:0)

let test_release_hands_to_fifo_head () =
  let tbl = mk () in
  ignore (Lock_manager.request tbl ~jid:1 ~obj:0);
  ignore (Lock_manager.request tbl ~jid:2 ~obj:0);
  ignore (Lock_manager.request tbl ~jid:3 ~obj:0);
  (match Lock_manager.release tbl ~jid:1 ~obj:0 with
  | Some next -> Alcotest.(check int) "FIFO head gets lock" 2 next
  | None -> Alcotest.fail "expected handoff");
  Alcotest.(check bool) "new owner" true
    (Lock_manager.owner tbl ~obj:0 = Some 2);
  Alcotest.(check (list int)) "remaining queue" [ 3 ]
    (Lock_manager.waiters tbl ~obj:0);
  Alcotest.(check bool) "waiter 2 no longer waits" true
    (Lock_manager.waiting_for tbl ~jid:2 = None);
  Lock_manager.assert_consistent tbl

let test_release_without_holding () =
  let tbl = mk () in
  Alcotest.check_raises "not holder"
    (Invalid_argument "Lock_manager.release: job 9 does not hold 0")
    (fun () -> ignore (Lock_manager.release tbl ~jid:9 ~obj:0))

let test_release_all () =
  let tbl = mk () in
  ignore (Lock_manager.request tbl ~jid:1 ~obj:0);
  ignore (Lock_manager.request tbl ~jid:1 ~obj:1);
  ignore (Lock_manager.request tbl ~jid:2 ~obj:0);
  ignore (Lock_manager.request tbl ~jid:1 ~obj:2);
  let released = Lock_manager.release_all tbl ~jid:1 in
  Alcotest.(check int) "all released" 3 (List.length released);
  Alcotest.(check bool) "nothing held" true
    (Lock_manager.holding tbl ~jid:1 = []);
  Alcotest.(check bool) "handed object 0 to waiter" true
    (Lock_manager.owner tbl ~obj:0 = Some 2);
  Lock_manager.assert_consistent tbl

let test_cancel_wait () =
  let tbl = mk () in
  ignore (Lock_manager.request tbl ~jid:1 ~obj:0);
  ignore (Lock_manager.request tbl ~jid:2 ~obj:0);
  Lock_manager.cancel_wait tbl ~jid:2;
  Alcotest.(check (list int)) "queue emptied" []
    (Lock_manager.waiters tbl ~obj:0);
  (* Release must now find no waiter. *)
  Alcotest.(check bool) "no handoff" true
    (Lock_manager.release tbl ~jid:1 ~obj:0 = None);
  Lock_manager.assert_consistent tbl

(* --- dependency chains (Figure 3) ------------------------------------------ *)

(* T1 requests R1 held by T2; T2 requests R2 held by T3; T3 free.
   Chains: T1 -> [T3; T2; T1], T2 -> [T3; T2], T3 -> [T3]. *)
let fig3_scenario () =
  let tbl = mk () in
  let t1 = 1 and t2 = 2 and t3 = 3 in
  let r1 = 0 and r2 = 1 in
  ignore (Lock_manager.request tbl ~jid:t2 ~obj:r1);
  ignore (Lock_manager.request tbl ~jid:t3 ~obj:r2);
  ignore (Lock_manager.request tbl ~jid:t1 ~obj:r1);
  ignore (Lock_manager.request tbl ~jid:t2 ~obj:r2);
  tbl

let test_fig3_chains () =
  let tbl = fig3_scenario () in
  Alcotest.(check (list int)) "T1 chain" [ 3; 2; 1 ]
    (Lock_manager.dependency_chain tbl ~jid:1);
  Alcotest.(check (list int)) "T2 chain" [ 3; 2 ]
    (Lock_manager.dependency_chain tbl ~jid:2);
  Alcotest.(check (list int)) "T3 chain" [ 3 ]
    (Lock_manager.dependency_chain tbl ~jid:3)

let test_fig3_no_cycle () =
  let tbl = fig3_scenario () in
  List.iter
    (fun jid ->
      Alcotest.(check bool)
        (Printf.sprintf "no cycle from %d" jid)
        true
        (Lock_manager.find_cycle tbl ~jid = None))
    [ 1; 2; 3 ]

let test_chain_of_independent_job () =
  let tbl = mk () in
  Alcotest.(check (list int)) "singleton" [ 42 ]
    (Lock_manager.dependency_chain tbl ~jid:42)

(* --- deadlock cycles (§3.3) -------------------------------------------------- *)

(* T1 holds R0 and wants R1; T2 holds R1 and wants R0: a 2-cycle —
   possible only with nested critical sections. *)
let cycle2_scenario () =
  let tbl = mk () in
  ignore (Lock_manager.request tbl ~jid:1 ~obj:0);
  ignore (Lock_manager.request tbl ~jid:2 ~obj:1);
  ignore (Lock_manager.request tbl ~jid:1 ~obj:1);
  ignore (Lock_manager.request tbl ~jid:2 ~obj:0);
  tbl

let test_cycle_detection () =
  let tbl = cycle2_scenario () in
  (match Lock_manager.find_cycle tbl ~jid:1 with
  | Some cycle ->
    Alcotest.(check (list int)) "cycle members" [ 1; 2 ]
      (List.sort compare cycle)
  | None -> Alcotest.fail "cycle not detected");
  (match Lock_manager.find_cycle tbl ~jid:2 with
  | Some _ -> ()
  | None -> Alcotest.fail "cycle not detected from other side")

let test_three_cycle () =
  let tbl = mk () in
  (* 1 holds R0 wants R1; 2 holds R1 wants R2; 3 holds R2 wants R0. *)
  ignore (Lock_manager.request tbl ~jid:1 ~obj:0);
  ignore (Lock_manager.request tbl ~jid:2 ~obj:1);
  ignore (Lock_manager.request tbl ~jid:3 ~obj:2);
  ignore (Lock_manager.request tbl ~jid:1 ~obj:1);
  ignore (Lock_manager.request tbl ~jid:2 ~obj:2);
  ignore (Lock_manager.request tbl ~jid:3 ~obj:0);
  match Lock_manager.find_cycle tbl ~jid:1 with
  | Some cycle ->
    Alcotest.(check (list int)) "3-cycle" [ 1; 2; 3 ]
      (List.sort compare cycle)
  | None -> Alcotest.fail "3-cycle not detected"

let test_cycle_broken_by_release () =
  let tbl = cycle2_scenario () in
  (* Abort job 2: releases R1 (handing it to waiter 1) and cancels its
     wait on R0 — the cycle disappears. *)
  ignore (Lock_manager.release_all tbl ~jid:2);
  Alcotest.(check bool) "no cycle" true
    (Lock_manager.find_cycle tbl ~jid:1 = None);
  Alcotest.(check bool) "1 now owns R1" true
    (Lock_manager.owner tbl ~obj:1 = Some 1);
  Lock_manager.assert_consistent tbl

let test_blocked_jobs_listing () =
  let tbl = fig3_scenario () in
  Alcotest.(check (list int)) "blocked jobs" [ 1; 2 ]
    (List.sort compare (Lock_manager.blocked_jobs tbl))

(* --- randomized consistency --------------------------------------------------- *)

let prop_random_ops_consistent =
  (* Random request/release traffic keeps the table internally
     consistent. Jobs release only objects they hold; requests may
     block (then the job is parked until a release hands over). *)
  QCheck.Test.make ~name:"random lock traffic stays consistent" ~count:100
    QCheck.(list_of_size (Gen.int_range 0 200) (pair (int_bound 7) (int_bound 4)))
    (fun ops ->
      let tbl = mk ~n:5 () in
      let parked = Hashtbl.create 8 in
      List.iter
        (fun (jid, obj) ->
          if not (Hashtbl.mem parked jid) then begin
            if List.mem obj (Lock_manager.holding tbl ~jid) then begin
              match Lock_manager.release tbl ~jid ~obj with
              | Some woken -> Hashtbl.remove parked woken
              | None -> ()
            end
            else
              match Lock_manager.request tbl ~jid ~obj with
              | Lock_manager.Granted -> ()
              | Lock_manager.Blocked_on _ -> Hashtbl.replace parked jid ()
          end)
        ops;
      Lock_manager.assert_consistent tbl;
      true)

(* --- the waiter predicate ------------------------------------------------ *)

let test_has_waiters_steps () =
  let tbl = mk () in
  let check msg want =
    Alcotest.(check bool) msg want (Lock_manager.has_waiters tbl)
  in
  check "empty table" false;
  ignore (Lock_manager.request tbl ~jid:1 ~obj:0);
  ignore (Lock_manager.request tbl ~jid:1 ~obj:1);
  check "held but uncontended" false;
  ignore (Lock_manager.request tbl ~jid:2 ~obj:0);
  check "2 waits on 0" true;
  ignore (Lock_manager.release tbl ~jid:1 ~obj:0);
  check "release hands 0 to 2" false;
  ignore (Lock_manager.request tbl ~jid:3 ~obj:1);
  check "3 waits on 1" true;
  Lock_manager.cancel_wait tbl ~jid:3;
  check "3 cancelled" false;
  ignore (Lock_manager.request tbl ~jid:3 ~obj:1);
  ignore (Lock_manager.request tbl ~jid:4 ~obj:1);
  check "3 and 4 wait on 1" true;
  ignore (Lock_manager.release_all tbl ~jid:1);
  check "1 aborted: 3 holds 1, 4 still waits" true;
  ignore (Lock_manager.release_all tbl ~jid:4);
  check "4 aborted while waiting" false;
  ignore (Lock_manager.request tbl ~jid:5 ~obj:0);
  check "5 waits on 0" true;
  ignore (Lock_manager.release_all tbl ~jid:2);
  check "2 aborted: 5 granted 0" false

let prop_has_waiters_tracks_traffic =
  (* Random request/release/cancel_wait/release_all traffic: after every
     step the O(1) predicate agrees with the waiter listing. *)
  QCheck.Test.make ~name:"has_waiters = (blocked_jobs <> [])" ~count:200
    QCheck.(
      list_of_size (Gen.int_range 0 200)
        (triple (int_bound 3) (int_bound 7) (int_bound 4)))
    (fun ops ->
      let tbl = mk ~n:5 () in
      List.for_all
        (fun (kind, jid, obj) ->
          (match kind with
          | 0 ->
            if Lock_manager.waiting_for tbl ~jid = None then
              ignore (Lock_manager.request tbl ~jid ~obj)
          | 1 ->
            if List.mem obj (Lock_manager.holding tbl ~jid) then
              ignore (Lock_manager.release tbl ~jid ~obj)
          | 2 -> Lock_manager.cancel_wait tbl ~jid
          | _ -> ignore (Lock_manager.release_all tbl ~jid));
          Lock_manager.has_waiters tbl = (Lock_manager.blocked_jobs tbl <> []))
        ops)

let () =
  Test_support.run "lock_manager"
    [
      ( "grants",
        [
          Alcotest.test_case "grant free object" `Quick test_grant_free_object;
          Alcotest.test_case "reentrant same owner" `Quick
            test_reentrant_same_owner;
          Alcotest.test_case "block on held" `Quick test_block_on_held;
          Alcotest.test_case "FIFO handoff" `Quick
            test_release_hands_to_fifo_head;
          Alcotest.test_case "release without holding" `Quick
            test_release_without_holding;
          Alcotest.test_case "release_all" `Quick test_release_all;
          Alcotest.test_case "cancel_wait" `Quick test_cancel_wait;
        ] );
      ( "chains",
        [
          Alcotest.test_case "Figure 3 chains" `Quick test_fig3_chains;
          Alcotest.test_case "Figure 3 has no cycle" `Quick test_fig3_no_cycle;
          Alcotest.test_case "independent job" `Quick
            test_chain_of_independent_job;
          Alcotest.test_case "blocked jobs listing" `Quick
            test_blocked_jobs_listing;
        ] );
      ( "deadlocks",
        [
          Alcotest.test_case "2-cycle detection" `Quick test_cycle_detection;
          Alcotest.test_case "3-cycle detection" `Quick test_three_cycle;
          Alcotest.test_case "cycle broken by release_all" `Quick
            test_cycle_broken_by_release;
        ] );
      ( "consistency",
        [ Test_support.to_alcotest prop_random_ops_consistent ] );
      ( "waiters",
        [
          Alcotest.test_case "has_waiters through each operation" `Quick
            test_has_waiters_steps;
          Test_support.to_alcotest prop_has_waiters_tracks_traffic;
        ] );
    ]
