(* Self-checks of the per-layer replays on the paper's §6 scenes: the
   queue pops arrivals in the trace's order, the Live_view replay sees
   the live count the trace implies at every decide, and (m = 1) the
   decide replay makes one call per scheduler invocation. *)

open Perfbench

let check_scene (scene : Scenes.scene) =
  let tasks = Scenes.tasks scene in
  let r = Scenes.simulate ~trace:true scene tasks in
  let entries = Array.of_list (Rtlf_sim.Trace.entries r.trace) in
  let q = Replay.queue ~tasks entries in
  let lv = Replay.live_view ~tasks entries in
  let d =
    Replay.decide ~tasks ~sync:scene.sync ~n_objects:scene.spec.n_objects
      entries
  in
  let fails =
    List.filter_map
      (fun (ok, msg) -> if ok then None else Some msg)
      [
        (q.arrival_order_ok, "queue replay pops arrivals out of trace order");
        (lv.view_matches, "Live_view replay count differs from the trace");
        ( Array.length d.decide_ns = r.sched_invocations,
          Printf.sprintf "%d decides replayed for %d invocations"
            (Array.length d.decide_ns) r.sched_invocations );
      ]
  in
  List.iter (fun m -> Printf.eprintf "%s: %s\n" scene.name m) fails;
  fails = []

let () =
  let ok =
    List.for_all Fun.id
      (List.concat_map
         (fun seed ->
           [ check_scene (Scenes.paper_lf ~seed);
             check_scene (Scenes.paper_lb ~seed) ])
         [ 1; 2 ])
  in
  if not ok then exit 1
