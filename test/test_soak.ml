(* Bounded-memory soak: the engine's memory must follow the live set,
   not the length of the run. One churn-shaped scene — many short tasks
   at AL 0.9, so almost every job arrives and is aborted at its critical
   time — runs first over 40 windows (the --fast horizon) and then over
   eight times as many. Released jobs grow with the horizon; the heap's
   high-water mark may not. Its own executable, so the heap starts from
   a fresh process; one domain and no timers, so the reading is
   deterministic for a given build. *)

module Workload = Rtlf_workload.Workload
module Simulator = Rtlf_sim.Simulator
module Common = Rtlf_experiments.Common
module Task = Rtlf_model.Task
module Uam = Rtlf_model.Uam

let tasks =
  Workload.make
    {
      Workload.default with
      Workload.n_tasks = 300;
      n_objects = 10;
      accesses_per_job = 10;
      target_al = 0.9;
      mean_exec = 20_000;
      seed = 5;
    }

let window =
  List.fold_left (fun acc t -> max acc t.Task.arrival.Uam.w) 1 tasks

(* Released jobs and the heap's high-water mark after a run over
   [windows] windows. *)
let soak windows =
  let r =
    Simulator.run
      (Simulator.config ~tasks ~sync:Common.lock_free
         ~horizon:(windows * window) ~seed:5 ~sched_base:Common.sched_base
         ~sched_per_op:Common.sched_per_op ())
  in
  (r.Simulator.released, (Gc.quick_stat ()).Gc.top_heap_words)

let test_heap_flat () =
  let released1, top1 = soak 40 in
  let released8, top8 = soak 320 in
  Printf.printf "released %d -> %d, top heap %d -> %d words\n" released1
    released8 top1 top8;
  Alcotest.(check bool)
    (Printf.sprintf "released grows >= 6x (%d -> %d)" released1 released8)
    true
    (released8 >= 6 * released1);
  Alcotest.(check bool)
    (Printf.sprintf "top heap grows < 2x (%d -> %d words)" top1 top8)
    true
    (top8 < 2 * top1)

let () =
  Alcotest.run "soak"
    [ ("memory", [ Alcotest.test_case "heap flat at 8x horizon" `Quick test_heap_flat ]) ]
