(* Model-based tests for [Live_view]: random operation sequences run
   against the live set and against a jid-sorted association list, and
   every observation must agree — membership, lookups, count, iteration
   order and the scheduler view. The view's aliasing contract is checked
   at every [View] step and after every successful removal (the points
   where holes are trimmed or compacted): the same array while
   membership is unchanged, a fresh one after any change. *)

module Job = Rtlf_model.Job
module Task = Rtlf_model.Task
module Tuf = Rtlf_model.Tuf
module Uam = Rtlf_model.Uam
module Live_view = Rtlf_sim.Live_view

let task =
  Task.make ~id:0 ~tuf:(Tuf.step ~height:1.0 ~c:1_000)
    ~arrival:(Uam.periodic ~period:1_000) ~exec:10 ()

let job jid = Job.create ~task ~jid ~arrival:0

type op =
  | Add_next of int (* append past the largest jid ever added, by a gap *)
  | Add of int (* any jid, possibly present or out of order *)
  | Remove of int (* any jid, possibly absent *)
  | Remove_nth of int (* the n-th live jid (mod count) *)
  | Remove_all
  | Find of int
  | View

let pp_op = function
  | Add_next g -> Printf.sprintf "add_next+%d" g
  | Add j -> Printf.sprintf "add %d" j
  | Remove j -> Printf.sprintf "remove %d" j
  | Remove_nth n -> Printf.sprintf "remove_nth %d" n
  | Remove_all -> "remove_all"
  | Find j -> Printf.sprintf "find %d" j
  | View -> "view"

let op_gen =
  QCheck.Gen.(
    frequency
      [
        (8, map (fun g -> Add_next g) (int_range 1 3));
        (2, map (fun j -> Add j) (int_range 0 200));
        (2, map (fun j -> Remove j) (int_range 0 200));
        (6, map (fun n -> Remove_nth n) (int_range 0 1_000));
        (1, return Remove_all);
        (2, map (fun j -> Find j) (int_range 0 200));
        (3, return View);
      ])

let case_arb =
  QCheck.make
    QCheck.Gen.(pair (int_range 1 4) (list_size (int_range 0 400) op_gen))
    ~print:(fun (cap, ops) ->
      Printf.sprintf "capacity %d: %s" cap
        (String.concat "; " (List.map pp_op ops)))

let fail fmt = QCheck.Test.fail_reportf fmt

let run_case (capacity, ops) =
  let lv = Live_view.create ~capacity () in
  (* The model: live jids, ascending, each with its job. *)
  let model = ref [] in
  let top = ref (-1) in
  let last_view = ref None in
  let changed = ref false in
  let insert jid =
    let j = job jid in
    model :=
      List.merge (fun (a, _) (b, _) -> compare a b) !model [ (jid, j) ];
    top := max !top jid;
    j
  in
  let check_view step =
    let v = Live_view.view lv in
    let want = Array.of_list (List.map snd !model) in
    if Array.length v <> Array.length want
       || not (Array.for_all2 ( == ) v want)
    then fail "step %d: view differs from the model" step;
    (match !last_view with
    | None -> ()
    | Some prev ->
      (* Every empty view is the shared [[||]], fresh or not. *)
      if !changed && Array.length v > 0 && v == prev then
        fail "step %d: membership changed but view is the old array" step;
      if (not !changed) && v != prev then
        fail "step %d: membership unchanged but view is a new array" step);
    last_view := Some v;
    changed := false
  in
  let remove step jid =
    let present = List.mem_assoc jid !model in
    Live_view.remove lv ~jid;
    if present then begin
      model := List.remove_assoc jid !model;
      changed := true;
      check_view step
    end
  in
  List.iteri
    (fun step op ->
      (match op with
      | Add_next gap ->
        let j = insert (!top + gap) in
        Live_view.add lv j;
        changed := true
      | Add jid ->
        if List.mem_assoc jid !model then begin
          match Live_view.add lv (job jid) with
          | () -> fail "step %d: duplicate jid %d accepted" step jid
          | exception Invalid_argument _ -> ()
        end
        else begin
          Live_view.add lv (insert jid);
          changed := true
        end
      | Remove jid -> remove step jid
      | Remove_nth n -> (
        match !model with
        | [] -> ()
        | m -> remove step (fst (List.nth m (n mod List.length m))))
      | Remove_all -> List.iter (fun (jid, _) -> remove step jid) !model
      | Find jid ->
        let want = List.assoc_opt jid !model in
        let got = Live_view.find lv ~jid in
        let same =
          match (want, got) with
          | None, None -> true
          | Some a, Some b -> a == b
          | _ -> false
        in
        if not same then fail "step %d: find %d disagrees" step jid;
        if Live_view.mem lv ~jid <> (want <> None) then
          fail "step %d: mem %d disagrees" step jid
      | View -> check_view step);
      if Live_view.count lv <> List.length !model then
        fail "step %d: count %d, model %d" step (Live_view.count lv)
          (List.length !model);
      let seen = ref [] in
      Live_view.iter (fun j -> seen := j :: !seen) lv;
      if not (List.equal ( == ) (List.rev !seen) (List.map snd !model)) then
        fail "step %d: iter order differs from the model" step;
      List.iter
        (fun (jid, j) ->
          match Live_view.find lv ~jid with
          | Some j' when j' == j -> ()
          | _ -> fail "step %d: live jid %d not found" step jid)
        !model)
    ops;
  true

let prop_model =
  QCheck.Test.make ~name:"random sequences vs sorted-list model" ~count:300
    case_arb run_case

(* The simulator's churn shape: monotone arrivals, removals mostly of
   the oldest jobs, the live set held near a plateau for many times its
   size, so holes pile up at the front and are compacted many times
   over. Checked against a per-jid liveness array. *)
let test_sliding_window () =
  let lv = Live_view.create ~capacity:8 () in
  let n = 20_000 and plateau = 100 in
  let alive = Array.make (n + 1) false in
  let remove jid =
    Live_view.remove lv ~jid;
    alive.(jid) <- false
  in
  for jid = 0 to n do
    Live_view.add lv (job jid);
    alive.(jid) <- true;
    if jid >= plateau then begin
      (* Oldest first, with every seventh removal out of order. *)
      remove (if jid mod 7 = 0 then jid - (plateau / 2) else jid - plateau);
      if jid mod 7 = 1 then remove (jid - plateau + 50)
    end
  done;
  let want = List.filter (fun jid -> alive.(jid)) (List.init (n + 1) Fun.id) in
  Alcotest.(check int) "count" (List.length want) (Live_view.count lv);
  Alcotest.(check (list int)) "view"
    want
    (Array.to_list (Array.map (fun j -> j.Job.jid) (Live_view.view lv)));
  Array.iteri
    (fun jid a ->
      if Live_view.mem lv ~jid <> a then Alcotest.failf "mem %d" jid)
    alive

let () =
  Test_support.run "live_view"
    [
      ( "model",
        [
          Test_support.to_alcotest prop_model;
          Alcotest.test_case "sliding window" `Quick test_sliding_window;
        ] );
    ]
