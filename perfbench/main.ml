(* End-to-end benchmark driver; see NOTES.md.

     main.exe run       --workload W --seed S --seconds T --reference F
     main.exe trace     --workload W --seed S --reference F
     main.exe reference --scene NAME --seed S
     main.exe setup     --workload W --seed S
     main.exe memory    --workload W --seed S

   [run] measures the end-to-end metrics with tracing off, [trace] the
   per-layer metrics from a separate traced run, [reference] prints the
   digests [run] and [trace] check against; [setup] and [memory] are
   the child processes [run] spawns to time set-up and to measure
   memory. [run] and [trace] print one
   JSON object as their last line. Times are in reference seconds (see
   meter.ml). *)

open Perfbench
module Simulator = Rtlf_sim.Simulator
module Json = Rtlf_obs.Json

let fail fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline s;
      exit 2)
    fmt

let arg name =
  let rec go = function
    | k :: v :: _ when k = name -> v
    | _ :: rest -> go rest
    | [] -> fail "missing %s" name
  in
  go (List.tl (Array.to_list Sys.argv))

let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let pct a p = Rtlf_engine.Stats.percentile a ~p
let mib_of_words w = float_of_int (w * (Sys.word_size / 8)) /. 1048576.0

(* Scenario runs and self-checks, counted against attempts; each failure
   is explained on stderr. *)
type tally = { mutable attempted : int; mutable failed : int }

let tally = { attempted = 0; failed = 0 }

let expect ok fmt =
  Printf.ksprintf
    (fun msg ->
      tally.attempted <- tally.attempted + 1;
      if not ok then begin
        tally.failed <- tally.failed + 1;
        prerr_endline ("FAILED: " ^ msg)
      end)
    fmt

let guard what f =
  try Some (f ())
  with e ->
    expect false "%s raised %s" what (Printexc.to_string e);
    None

let print_result metrics =
  let metric (name, unit, v) =
    (name, Json.Obj [ ("value", Json.Float v); ("unit", Json.Str unit) ])
  in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool (tally.failed = 0));
            ("attempted", Json.Int tally.attempted);
            ("failed", Json.Int tally.failed);
            ("metrics", Json.Obj (List.map metric metrics));
          ]))

(* --- correctness ------------------------------------------------------- *)

(* Checks one simulated scene, one attempt; returns its statistics line. *)
let check_sim refs (scene : Scenes.scene) (r : Simulator.result) =
  let seed = scene.spec.seed in
  let stats = Scenes.stats r in
  let reference =
    match
      Scenes.check refs ~scenario:scene.name ~seed:(string_of_int seed)
        (Scenes.digest stats)
    with
    | Scenes.Match -> []
    | Scenes.Mismatch -> [ "statistics differ from the reference: " ^ stats ]
    | Scenes.Unreferenced ->
      (* Unstored seeds are checked by the invariants alone. *)
      Printf.eprintf "note: no reference for %s seed %d\n%!" scene.name seed;
      []
  in
  let errors = Scenes.invariant_errors r @ reference in
  expect (errors = []) "%s seed %d: %s" scene.name seed
    (String.concat "; " errors);
  stats

let check_experiment refs ~name output =
  match
    Scenes.check refs ~scenario:("figures/" ^ name) ~seed:"*"
      (Scenes.digest output)
  with
  | Scenes.Match -> expect true ""
  | Scenes.Mismatch | Scenes.Unreferenced ->
    expect false "figures: %s output differs from the reference" name

(* --- set-up ------------------------------------------------------------ *)

let setup workload ~seed =
  match workload with
  | Scenes.Figures -> ignore (Sys.opaque_identity Scenes.experiments)
  | Scenes.Sim mk ->
    List.iter (fun seed -> ignore (Scenes.tasks (mk ~seed))) (Scenes.group ~seed)

(* From spawning a process to its being ready for the first simulated
   event: runtime and module initialisation plus task-set synthesis.
   Median of [reps] spawns. *)
let setup_seconds ~workload_name ~seed ~reps =
  let spawn () =
    let pid =
      Unix.create_process Sys.executable_name
        [| Sys.executable_name; "setup"; "--workload"; workload_name;
           "--seed"; string_of_int seed |]
        Unix.stdin Unix.stdout Unix.stderr
    in
    (* The calibration timer can interrupt the wait. *)
    let rec wait () =
      try snd (Unix.waitpid [] pid)
      with Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
    in
    if wait () <> Unix.WEXITED 0 then fail "set-up process failed"
  in
  median
    (List.init reps (fun _ ->
         let (), s, _ = Meter.measure spawn in
         s))

(* --- end-to-end run ---------------------------------------------------- *)

(* One pass over the workload, checked; returns its reference seconds. *)
let pass refs ~seed workload =
  let timed f =
    let r, s, _ = Meter.measure f in
    (r, s)
  in
  match workload with
  | Scenes.Figures ->
    fun () ->
      List.fold_left
        (fun acc (name, f) ->
          let out, s =
            timed (fun () -> guard name (fun () -> Scenes.run_experiment f))
          in
          Option.iter (check_experiment refs ~name) out;
          acc +. s)
        0.0 Scenes.experiments
  | Scenes.Sim mk ->
    let first = Hashtbl.create 4 in
    fun () ->
      List.fold_left
        (fun acc seed ->
          let scene = mk ~seed in
          let r, s =
            timed (fun () ->
                guard scene.name (fun () ->
                    Scenes.simulate scene (Scenes.tasks scene)))
          in
          Option.iter
            (fun r ->
              let stats = check_sim refs scene r in
              match Hashtbl.find_opt first seed with
              | None -> Hashtbl.replace first seed stats
              | Some s ->
                expect (s = stats) "%s seed %d: a repeated run gave other \
                                    statistics" scene.name seed)
            r;
          acc +. s)
        0.0 (Scenes.group ~seed)

(* Peak heap and minor-heap allocation of one unit of work, in a fresh
   process so the peak is that unit's alone: one scene (by scene seed)
   of a sim workload, the whole pass of figures. Prints
   "<top heap words> <minor bytes>". No calibration timer runs, so both
   depend only on the seed. *)
let memory_child workload ~seed =
  let b0 = Meter.minor_bytes () in
  (match workload with
  | Scenes.Figures ->
    List.iter (fun (_, f) -> ignore (Scenes.run_experiment f)) Scenes.experiments
  | Scenes.Sim mk ->
    let scene = mk ~seed in
    ignore (Scenes.simulate scene (Scenes.tasks scene)));
  Printf.printf "%d %.0f\n" (Gc.quick_stat ()).Gc.top_heap_words
    (Meter.minor_bytes () -. b0)

(* Mean peak heap (MiB) over the workload's units and their summed
   allocation (MiB). *)
let memory ~workload_name ~seed workload =
  let units =
    match workload with
    | Scenes.Figures -> [ seed ]
    | Scenes.Sim _ -> Scenes.group ~seed
  in
  let start unit_seed =
    Unix.open_process_args_in Sys.executable_name
      [| Sys.executable_name; "memory"; "--workload"; workload_name;
         "--seed"; string_of_int unit_seed |]
  in
  let finish ic =
    let line = In_channel.input_all ic in
    match (Unix.close_process_in ic, String.split_on_char ' ' (String.trim line)) with
    | Unix.WEXITED 0, [ top; bytes ] ->
      (mib_of_words (int_of_string top), float_of_string bytes /. 1048576.0)
    | _ -> fail "memory process failed"
  in
  (* Nothing is timed meanwhile, so the children run two at a time, one
     per core. *)
  let rec pairs = function
    | a :: b :: rest -> [ a; b ] :: pairs rest
    | [] -> []
    | l -> [ l ]
  in
  let peaks, allocs =
    List.split
      (List.concat_map
         (fun pair -> List.map finish (List.map start pair))
         (pairs units))
  in
  ( List.fold_left ( +. ) 0.0 peaks /. float_of_int (List.length peaks),
    List.fold_left ( +. ) 0.0 allocs )

(* Timed passes follow the memory children while one more would end
   closer to [seconds] than stopping now; the median pass is reported. *)
let run_e2e ~workload_name ~seed ~seconds ~refs workload =
  let pass = pass refs ~seed workload in
  let t_start = Meter.now_ns () in
  let peak_mb, alloc_mb = memory ~workload_name ~seed workload in
  let setup_s = setup_seconds ~workload_name ~seed ~reps:9 in
  let t_passes = Meter.now_ns () in
  let rec go walls =
    let walls = pass () :: walls in
    let mean =
      Meter.seconds_since t_passes /. float_of_int (List.length walls)
    in
    if Meter.seconds_since t_start +. (mean /. 2.0) <= float_of_int seconds
    then go walls
    else walls
  in
  let walls = go [] in
  print_result
    [
      ("setup_s", "s", setup_s);
      ("wall_s", "s", median walls);
      ("peak_heap_mb", "MiB", peak_mb);
      ("alloc_mb", "MiB", alloc_mb);
      ( "ok_frac",
        "frac",
        float_of_int (tally.attempted - tally.failed)
        /. float_of_int (max 1 tally.attempted) );
    ]

(* --- traced run: per-layer metrics ------------------------------------- *)

(* Exporters are timed on at most this many leading trace entries: the
   Chrome-trace exporter is superlinear in the number of jobs, and a
   whole churn_n1000 trace would not export within a run's time
   limit. *)
let export_cap = 50_000

(* Layers of one scene: untraced and traced runs plus the replays.
   Returns the traced result and its entries for the exporters. *)
let scene_layers refs (scene : Scenes.scene) =
  let measure = Meter.measure in
  let tasks = Scenes.tasks scene in
  let make_s =
    median
      (List.init 5 (fun _ ->
           let _, s, _ = measure (fun () -> Scenes.tasks scene) in
           s))
  in
  Gc.compact ();
  let heap0 = (Gc.quick_stat ()).Gc.heap_words in
  let a0 = Meter.minor_bytes () in
  let plain, run0, _ = measure (fun () -> Scenes.simulate scene tasks) in
  let alloc_words = (Meter.minor_bytes () -. a0) /. float_of_int (Sys.word_size / 8) in
  let heap_growth = (Gc.quick_stat ()).Gc.top_heap_words - heap0 in
  let run_s =
    median
      (run0
      :: List.init 2 (fun _ ->
             let _, s, _ = measure (fun () -> Scenes.simulate scene tasks) in
             s))
  in
  let stats = check_sim refs scene plain in
  let traced, run_traced_s, _ =
    measure (fun () -> Scenes.simulate ~trace:true scene tasks)
  in
  expect (Scenes.stats traced = stats) "%s: tracing changed the statistics"
    scene.name;
  let entries = Array.of_list (Rtlf_sim.Trace.entries traced.trace) in
  let job_ns, _, slow_job = measure (fun () -> Replay.job_create_ns ~tasks entries) in
  let q, _, slow_q = measure (fun () -> Replay.queue ~tasks entries) in
  expect q.arrival_order_ok "%s: queue replay popped arrivals out of order"
    scene.name;
  let lv, _, slow_lv = measure (fun () -> Replay.live_view ~tasks entries) in
  expect lv.view_matches "%s: Live_view replay count differs from the trace"
    scene.name;
  let d, _, slow_d =
    measure (fun () ->
        Replay.decide ~tasks ~sync:scene.sync ~n_objects:scene.spec.n_objects
          entries)
  in
  expect
    (Array.length d.decide_ns = plain.sched_invocations)
    "%s: %d replayed decides for %d scheduler invocations" scene.name
    (Array.length d.decide_ns) plain.sched_invocations;
  let decide_s = d.decide_total_s /. slow_d in
  let decide_ns p = pct d.decide_ns p /. slow_d in
  let ops = Replay.sched_ops entries in
  let live = Array.map float_of_int lv.live_at_sched in
  let resolved = float_of_int plain.released in
  let count x = float_of_int x in
  ( (tasks, traced, entries),
    [
      ("workload.make_s", "s", make_s);
      ("workload.tasks", "count", count (List.length tasks));
      ("model.job_create_ns", "ns", job_ns /. slow_job);
      ("engine.queue_ops", "count", count q.queue_ops);
      ("engine.queue_ns_per_op", "ns", q.queue_ns_per_op /. slow_q);
      ("core.decide_calls", "count", count (Array.length d.decide_ns));
      ("core.decide_s", "s", decide_s);
      ("core.decide_ns_p50", "ns", decide_ns 50.0);
      ("core.decide_ns_p99", "ns", decide_ns 99.0);
      ("core.decide_share", "frac", decide_s /. run_s);
      ("core.ops_per_decide_p50", "count", pct ops 50.0);
      ("core.ops_per_decide_p99", "count", pct ops 99.0);
      ("sim.run_s", "s", run_s);
      ("sim.run_traced_s", "s", run_traced_s);
      ("sim.trace_overhead_frac", "frac", (run_traced_s -. run_s) /. run_s);
      ("sim.events", "count", count q.queue_pops);
      ("sim.ns_per_event", "ns", run_s *. 1e9 /. count q.queue_pops);
      ("sim.jobs_per_s", "1/s", resolved /. run_s);
      ("sim.released", "count", resolved);
      ("sim.aborted", "count", count plain.aborted);
      ("sim.completed_frac", "frac", count plain.completed /. resolved);
      ("sim.sched_invocations", "count", count plain.sched_invocations);
      ("sim.preemptions", "count", count plain.preemptions);
      ("sim.retries", "count", count plain.retries_total);
      ("sim.blocked_events", "count", count plain.blocked_events);
      ("sim.live_p50", "count", pct live 50.0);
      ("sim.live_max", "count", Array.fold_left max 0.0 live);
      ("sim.live_view_ns_per_op", "ns", lv.live_ns_per_op /. slow_lv);
      ("sim.alloc_words_per_job", "words", alloc_words /. resolved);
      ("sim.heap_growth_mb", "MiB", mib_of_words heap_growth);
    ] )

let obs_layers ~tasks (traced : Simulator.result) entries =
  let n = Array.length entries in
  let k = min n export_cap in
  let tr = Replay.prefix entries k and half = Replay.prefix entries (k / 2) in
  let timed name f =
    let (), s, _ = Meter.measure f in
    (name, "s", s)
  in
  let attribution, attribution_s, _ =
    Meter.measure (fun () -> Rtlf_obs.Attribution.of_trace ~tasks tr)
  in
  let blame () =
    match attribution with
    | Error msg -> expect false "attribution refused: %s" msg
    | Ok a ->
      let buf = Buffer.create 4096 in
      let fmt = Format.formatter_of_buffer buf in
      Rtlf_obs.Blame.render fmt (Rtlf_obs.Blame.of_attribution a);
      Format.pp_print_flush fmt ()
  in
  [
    ("obs.trace_entries", "count", float_of_int n);
    ("obs.export_entries", "count", float_of_int k);
    ("obs.attribution_s", "s", attribution_s);
    timed "obs.blame_s" blame;
    timed "obs.chrome_trace_s" (fun () ->
        ignore (Rtlf_obs.Chrome_trace.to_string tr));
    timed "obs.chrome_trace_half_s" (fun () ->
        ignore (Rtlf_obs.Chrome_trace.to_string half));
    timed "obs.csv_s" (fun () -> ignore (Rtlf_obs.Csv_export.to_string tr));
    timed "obs.result_json_s" (fun () ->
        ignore (Rtlf_obs.Result_json.to_string traced));
  ]

(* The paper's §6 point at n = 10, lock-free and lock-based, set beside
   the workload's own scene as "<layer>.n10_<sync>_<metric>". *)
let paper_point refs ~seed =
  let pick tag (scene : Scenes.scene) names =
    let _, m = scene_layers refs scene in
    List.map
      (fun name ->
        let _, unit, v = List.find (fun (n, _, _) -> n = name) m in
        let layer, metric =
          match String.split_on_char '.' name with
          | [ l; m ] -> (l, m)
          | _ -> invalid_arg name
        in
        (Printf.sprintf "%s.n10_%s_%s" layer tag metric, unit, v))
      names
  in
  let names =
    [ "core.decide_ns_p50"; "core.decide_ns_p99"; "core.ops_per_decide_p50";
      "engine.queue_ns_per_op"; "sim.run_s" ]
  in
  pick "lf" (Scenes.paper_lf ~seed) names
  @ pick "lb" (Scenes.paper_lb ~seed) names

let experiment_layers refs =
  List.map
    (fun (name, f) ->
      let out, s, _ =
        Meter.measure (fun () ->
            guard name (fun () -> Scenes.run_experiment f))
      in
      Option.iter (check_experiment refs ~name) out;
      (Printf.sprintf "experiments.%s_s" name, "s", s))
    Scenes.experiments

(* figures has no scene of its own; its layers are those of the §6
   lock-free point, which Figs. 8-14 sweep around. *)
let run_traced ~seed ~refs workload =
  let scene =
    match workload with
    | Scenes.Figures -> Scenes.paper_lf ~seed
    | Scenes.Sim mk -> mk ~seed:(List.hd (Scenes.group ~seed))
  in
  let (tasks, traced, entries), own = scene_layers refs scene in
  let obs = obs_layers ~tasks traced entries in
  let paper = paper_point refs ~seed in
  let exps = experiment_layers refs in
  print_result (own @ obs @ paper @ exps)

(* --- reference --------------------------------------------------------- *)

let print_reference ~scene ~seed =
  if scene = "figures" then
    List.iter
      (fun (name, f) ->
        print_endline
          (Scenes.reference_line ~scenario:("figures/" ^ name) ~seed:"*"
             (Scenes.digest (Scenes.run_experiment f))))
      Scenes.experiments
  else
    match List.assoc_opt scene Scenes.scenes with
    | None -> fail "unknown scene %s" scene
    | Some mk ->
      let scene = mk ~seed in
      let r = Scenes.simulate scene (Scenes.tasks scene) in
      print_endline
        (Scenes.reference_line ~scenario:scene.name ~seed:(string_of_int seed)
           (Scenes.digest (Scenes.stats r)))

let () =
  let mode = if Array.length Sys.argv > 1 then Sys.argv.(1) else "" in
  let seed =
    match int_of_string_opt (arg "--seed") with
    | Some s -> s
    | None -> fail "--seed must be an integer"
  in
  let workload () =
    let name = arg "--workload" in
    match List.assoc_opt name Scenes.workloads with
    | Some w -> (name, w)
    | None -> fail "unknown workload %s" name
  in
  let refs () = Scenes.load_reference (arg "--reference") in
  match mode with
  | "setup" -> setup (snd (workload ())) ~seed
  | "reference" -> print_reference ~scene:(arg "--scene") ~seed
  | "run" ->
    let seconds =
      match int_of_string_opt (arg "--seconds") with
      | Some s when s > 0 -> s
      | _ -> fail "--seconds must be a positive integer"
    in
    let workload_name, w = workload () in
    run_e2e ~workload_name ~seed ~seconds ~refs:(refs ()) w
  | "memory" -> memory_child (snd (workload ())) ~seed
  | "trace" -> run_traced ~seed ~refs:(refs ()) (snd (workload ()))
  | _ ->
    fail "usage: main.exe (run|trace|reference|setup) --seed S [--workload W] ..."
