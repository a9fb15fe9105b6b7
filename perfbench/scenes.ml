(* Workloads, their scenes, and the correctness reference.

   A scene is one `rtlf sim` invocation: a synthesised task set plus a
   sync discipline, simulated with the defaults users get (dynamic
   mode, binary-heap queue, one core) over the --fast horizon, which
   keeps one run to a second or two so a measurement holds many runs.
   A scene's seed seeds both task-set synthesis and the simulation, as
   `rtlf sim --seed` does. *)

module Workload = Rtlf_workload.Workload
module Simulator = Rtlf_sim.Simulator
module Common = Rtlf_experiments.Common

type scene = { name : string; spec : Workload.spec; sync : Rtlf_sim.Sync.t }

(* `rtlf sim --fast --tasks T --load 0.9 --exec-us E`: 10 objects, 10
   accesses per job, step TUFs. *)
let sim_scene name ~tasks ~exec_us ~sync ~seed =
  {
    name;
    sync;
    spec =
      {
        Workload.default with
        Workload.n_tasks = tasks;
        n_objects = 10;
        accesses_per_job = 10;
        target_al = 0.9;
        mean_exec = exec_us * 1000;
        seed;
      };
  }

let overload ~seed =
  sim_scene "overload_n100" ~tasks:100 ~exec_us:200 ~sync:Common.lock_free
    ~seed

let churn ~seed =
  sim_scene "churn_n1000" ~tasks:1000 ~exec_us:20 ~sync:Common.lock_free ~seed

(* The paper's §6 operating point (10 tasks, AL 0.9), both disciplines. *)
let paper_lf ~seed =
  sim_scene "paper6_lf" ~tasks:10 ~exec_us:200 ~sync:Common.lock_free ~seed

let paper_lb ~seed =
  sim_scene "paper6_lb" ~tasks:10 ~exec_us:200 ~sync:Common.lock_based ~seed

let scenes =
  [ ("overload_n100", overload); ("churn_n1000", churn);
    ("paper6_lf", paper_lf); ("paper6_lb", paper_lb) ]

type workload = Figures | Sim of (seed:int -> scene)

(* A sim workload's pass simulates its scene on [group_size] task sets,
   scene seeds [group_size·seed] onwards: one task set's cost varies by
   ±15 % with the seed; over ten seeds, the interquartile range of an
   eight-set pass was 10 % of the median for overload_n100, 2 % for
   churn_n1000. *)
let group_size = 8

let group ~seed = List.init group_size (fun i -> (group_size * seed) + i)

let workloads =
  [ ("figures", Figures); ("overload_n100", Sim overload);
    ("churn_n1000", Sim churn) ]

let tasks scene = Workload.make scene.spec

let simulate ?(trace = false) scene tasks =
  Common.simulate ~mode:Common.Fast ~sync:scene.sync ~trace
    ~seed:scene.spec.Workload.seed tasks

(* --- figures ---------------------------------------------------------- *)

(* Every registered experiment but [static_overhead], the one that
   times itself with the host clock. Their inputs are fixed by the
   registry, so the figures workload ignores the seed. *)
let experiments =
  List.filter
    (fun (name, _) -> name <> "static_overhead")
    Rtlf_experiments.All.experiments

(* [blame] prints the attribution pass's own CPU time; that line is the
   only host-dependent output, so its figures are dropped before
   digesting. *)
let mask output =
  let host_line = "attribution self-overhead:" in
  String.split_on_char '\n' output
  |> List.map (fun l ->
         if String.starts_with ~prefix:host_line l then host_line else l)
  |> String.concat "\n"

let run_experiment f =
  let buf = Buffer.create 4096 in
  let fmt = Format.formatter_of_buffer buf in
  f ?mode:(Some Common.Fast) ?jobs:(Some 1) fmt;
  Format.pp_print_flush fmt ();
  mask (Buffer.contents buf)

(* --- correctness reference -------------------------------------------- *)

let digest s = Digest.to_hex (Digest.string s)

(* The simulated statistics a speed-only change must leave identical. *)
let stats (r : Simulator.result) =
  Printf.sprintf
    "released=%d completed=%d met=%d aborted=%d accrued=%h aur=%h cmr=%h \
     retries=%d sched_invocations=%d sched_overhead=%d preemptions=%d \
     migrations=%d final_time=%d"
    r.released r.completed r.met r.aborted r.accrued r.aur r.cmr
    r.retries_total r.sched_invocations r.sched_overhead r.preemptions
    r.migrations r.final_time

(* Checks that need no reference: conservation of the job counts and
   the Theorem-2 audit. *)
let invariant_errors (r : Simulator.result) =
  let per_task f = Array.fold_left (fun acc t -> acc + f t) 0 r.per_task in
  List.filter_map
    (fun (ok, msg) -> if ok then None else Some msg)
    [
      (r.released = r.completed + r.aborted, "released <> completed + aborted");
      (r.met <= r.completed, "met > completed");
      ( per_task (fun t -> t.Simulator.released) = r.released,
        "per-task released does not sum to released" );
      (Rtlf_sim.Audit.ok r.audit, "Theorem-2 retry budget violated");
    ]

(* Reference file: one "<scenario> <seed> <md5>" line per simulated
   scene and seed, and one "figures/<experiment> * <md5>" line per
   experiment (figures output does not depend on the seed). *)
type reference = (string * string, string) Hashtbl.t

let load_reference path : reference =
  let tbl = Hashtbl.create 64 in
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.iter (fun line ->
         match String.split_on_char ' ' (String.trim line) with
         | [ sc; s; d ] when line.[0] <> '#' -> Hashtbl.replace tbl (sc, s) d
         | _ -> ());
  tbl

let reference_line ~scenario ~seed d = Printf.sprintf "%s %s %s" scenario seed d

type verdict = Match | Mismatch | Unreferenced

let check (refs : reference) ~scenario ~seed d =
  match Hashtbl.find_opt refs (scenario, seed) with
  | Some expected when expected = d -> Match
  | Some _ -> Mismatch
  | None -> Unreferenced
