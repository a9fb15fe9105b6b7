(* Reference cross-checks for Engine.Stats percentiles and histograms:
   an independent brute-force oracle (list-based NaN filter + sort +
   closest-rank interpolation) must agree with the implementation on
   random data and on the awkward corners — NaN mixtures, infinities,
   singletons, all-equal arrays. *)

module Stats = Rtlf_engine.Stats

(* Brute-force oracle: same documented convention (drop NaNs, total
   Float.compare sort, rank = p/100 * (n-1), linear interpolation
   between closest ranks), built from scratch on lists. *)
let oracle_percentile (xs : float array) ~p =
  let kept =
    List.filter (fun x -> not (Float.is_nan x)) (Array.to_list xs)
  in
  match List.length kept with
  | 0 -> None
  | n ->
    let sorted = List.sort Float.compare kept in
    let nth i = List.nth sorted i in
    let rank = p /. 100.0 *. float_of_int (n - 1) in
    let lo = int_of_float (floor rank) in
    let hi = int_of_float (ceil rank) in
    if lo = hi then Some (nth lo)
    else
      let frac = rank -. float_of_int lo in
      Some (nth lo +. (frac *. (nth hi -. nth lo)))

let float_eq a b = (Float.is_nan a && Float.is_nan b) || a = b

let check_against_oracle xs ~p =
  let got = Stats.percentile_opt xs ~p in
  let want = oracle_percentile xs ~p in
  match (got, want) with
  | None, None -> ()
  | Some g, Some w when float_eq g w -> ()
  | _ ->
    Alcotest.failf "p%.2f of [%s]: impl %s, oracle %s" p
      (String.concat "; "
         (List.map (Printf.sprintf "%h") (Array.to_list xs)))
      (match got with None -> "None" | Some g -> Printf.sprintf "%h" g)
      (match want with None -> "None" | Some w -> Printf.sprintf "%h" w)

let ps = [ 0.0; 10.0; 25.0; 50.0; 75.0; 90.0; 99.0; 100.0 ]

let test_random_cross_check () =
  let g = Test_support.prng () in
  let module P = Rtlf_engine.Prng in
  for _ = 1 to 500 do
    let n = 1 + P.int g ~bound:40 in
    let xs =
      Array.init n (fun _ ->
          match P.int g ~bound:12 with
          | 0 -> Float.nan
          | 1 -> Float.infinity
          | 2 -> Float.neg_infinity
          | 3 -> 0.0
          | _ -> P.float_in g ~lo:(-1000.0) ~hi:1000.0)
    in
    List.iter (fun p -> check_against_oracle xs ~p) ps;
    check_against_oracle xs ~p:(P.float g ~bound:100.0)
  done

let test_singleton () =
  List.iter
    (fun p ->
      Alcotest.(check (float 0.0))
        (Printf.sprintf "p%.0f of singleton" p)
        7.5
        (Stats.percentile [| 7.5 |] ~p))
    ps

let test_all_equal () =
  let xs = Array.make 9 3.25 in
  List.iter
    (fun p ->
      Alcotest.(check (float 0.0))
        (Printf.sprintf "p%.0f of all-equal" p)
        3.25 (Stats.percentile xs ~p))
    ps

let test_nan_handling () =
  (* NaNs are dropped, not sorted to an arbitrary end. *)
  let xs = [| Float.nan; 3.0; Float.nan; 1.0; 2.0 |] in
  Alcotest.(check (float 0.0)) "p0 skips NaN" 1.0 (Stats.percentile xs ~p:0.0);
  Alcotest.(check (float 0.0)) "p100 skips NaN" 3.0
    (Stats.percentile xs ~p:100.0);
  Alcotest.(check (float 0.0)) "p50 over non-NaN" 2.0
    (Stats.percentile xs ~p:50.0);
  Alcotest.(check bool) "all-NaN -> None" true
    (Stats.percentile_opt [| Float.nan; Float.nan |] ~p:50.0 = None);
  Alcotest.check_raises "all-NaN percentile raises"
    (Invalid_argument "Stats.percentile: no non-NaN samples") (fun () ->
      ignore (Stats.percentile [| Float.nan |] ~p:50.0))

let test_infinities () =
  let xs = [| Float.neg_infinity; 1.0; 2.0; Float.infinity |] in
  Alcotest.(check (float 0.0)) "p0 = -inf" Float.neg_infinity
    (Stats.percentile xs ~p:0.0);
  Alcotest.(check (float 0.0)) "p100 = inf" Float.infinity
    (Stats.percentile xs ~p:100.0);
  Alcotest.(check (float 0.0)) "median finite" 1.5
    (Stats.percentile xs ~p:50.0)

let test_errors () =
  Alcotest.check_raises "empty" (Invalid_argument "Stats.percentile: empty array")
    (fun () -> ignore (Stats.percentile [||] ~p:50.0));
  Alcotest.check_raises "p out of range"
    (Invalid_argument "Stats.percentile: p out of range") (fun () ->
      ignore (Stats.percentile [| 1.0 |] ~p:101.0));
  Alcotest.check_raises "percentile_opt checks p too"
    (Invalid_argument "Stats.percentile: p out of range") (fun () ->
      ignore (Stats.percentile_opt [| 1.0 |] ~p:(-1.0)))

let test_monotone_in_p () =
  let g = Test_support.prng () in
  let module P = Rtlf_engine.Prng in
  for _ = 1 to 100 do
    let xs =
      Array.init (1 + P.int g ~bound:30) (fun _ ->
          P.float_in g ~lo:(-50.0) ~hi:50.0)
    in
    let prev = ref Float.neg_infinity in
    List.iter
      (fun p ->
        let v = Stats.percentile xs ~p in
        if v < !prev then
          Alcotest.failf "percentile not monotone in p at p=%.1f" p;
        prev := v)
      ps
  done

(* --- histogram ------------------------------------------------------- *)

let oracle_mean kept =
  List.fold_left ( +. ) 0.0 kept /. float_of_int (List.length kept)

let check_histogram xs =
  let h = Stats.histogram xs in
  let kept =
    List.filter (fun x -> not (Float.is_nan x)) (Array.to_list xs)
  in
  match kept with
  | [] ->
    Alcotest.(check int) "empty histogram n" 0 h.Stats.n;
    Alcotest.(check int) "no buckets" 0 (Array.length h.Stats.buckets)
  | _ ->
    let sorted = List.sort Float.compare kept in
    Alcotest.(check int) "n counts non-NaN" (List.length kept) h.Stats.n;
    Alcotest.(check bool) "min" true (float_eq h.Stats.min (List.hd sorted));
    Alcotest.(check bool) "max" true
      (float_eq h.Stats.max (List.nth sorted (List.length sorted - 1)));
    List.iter
      (fun (p, got) ->
        match oracle_percentile xs ~p with
        | Some want ->
          if not (float_eq got want) then
            Alcotest.failf "histogram p%.0f: impl %h oracle %h" p got want
        | None -> Alcotest.fail "oracle lost samples")
      [ (50.0, h.Stats.p50); (90.0, h.Stats.p90); (99.0, h.Stats.p99) ];
    Alcotest.(check int) "bucket counts sum to n" h.Stats.n
      (Array.fold_left ( + ) 0 h.Stats.buckets);
    (* Finite data only: mean agrees with the brute-force mean. *)
    if List.for_all Float.is_finite kept then
      Alcotest.(check (float 1e-9)) "mean" (oracle_mean kept) h.Stats.mean

let test_histogram_random () =
  let g = Test_support.prng () in
  let module P = Rtlf_engine.Prng in
  for _ = 1 to 300 do
    let n = P.int g ~bound:50 in
    let xs =
      Array.init n (fun _ ->
          match P.int g ~bound:10 with
          | 0 -> Float.nan
          | _ -> P.float_in g ~lo:0.0 ~hi:100.0)
    in
    check_histogram xs
  done

let test_histogram_edges () =
  check_histogram [||];
  check_histogram [| Float.nan |];
  check_histogram [| 4.0 |];
  check_histogram (Array.make 7 4.0);
  check_histogram [| Float.nan; 4.0; Float.nan |];
  let h = Stats.histogram [| Float.nan; Float.nan |] in
  Alcotest.(check int) "all-NaN histogram is empty" 0 h.Stats.n;
  Alcotest.(check bool) "all-NaN p50 nan" true (Float.is_nan h.Stats.p50)

(* --- one sort per histogram ----------------------------------------- *)

(* The pre-sharing implementation, frozen: NaNs dropped, then one
   [Array.sort Float.compare] of a fresh copy per percentile, and a
   Welford pass for min/max/mean. [histogram] must agree with it bit for
   bit, including where 0.0 and -0.0 land among equal keys. *)
let per_quantile_percentile kept ~p =
  let sorted = Array.copy kept in
  Array.sort Float.compare sorted;
  let n = Array.length sorted in
  let rank = p /. 100.0 *. float_of_int (n - 1) in
  let lo = int_of_float (floor rank) in
  let hi = int_of_float (ceil rank) in
  if lo = hi then sorted.(lo)
  else
    let frac = rank -. float_of_int lo in
    sorted.(lo) +. (frac *. (sorted.(hi) -. sorted.(lo)))

let per_quantile_histogram ~bins xs =
  let kept =
    Array.of_list
      (List.filter (fun x -> not (Float.is_nan x)) (Array.to_list xs))
  in
  let n = Array.length kept in
  if n = 0 then Stats.empty_histogram
  else
    let s = Stats.of_array kept in
    let lo = s.Stats.min in
    let width =
      let span = s.Stats.max -. lo in
      if span <= 0.0 then 1.0 else span /. float_of_int bins
    in
    let buckets = Array.make bins 0 in
    Array.iter
      (fun x ->
        let i = int_of_float ((x -. lo) /. width) in
        let i = if i < 0 then 0 else if i >= bins then bins - 1 else i in
        buckets.(i) <- buckets.(i) + 1)
      kept;
    {
      Stats.n;
      mean = s.Stats.mean;
      min = lo;
      max = s.Stats.max;
      p50 = per_quantile_percentile kept ~p:50.0;
      p90 = per_quantile_percentile kept ~p:90.0;
      p99 = per_quantile_percentile kept ~p:99.0;
      bucket_lo = lo;
      bucket_width = width;
      buckets;
    }

let bits_eq a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)
    || (Float.is_nan a && Float.is_nan b)

let same_histogram (a : Stats.histogram) (b : Stats.histogram) =
  a.Stats.n = b.Stats.n
  && bits_eq a.Stats.mean b.Stats.mean
  && bits_eq a.Stats.min b.Stats.min
  && bits_eq a.Stats.max b.Stats.max
  && bits_eq a.Stats.p50 b.Stats.p50
  && bits_eq a.Stats.p90 b.Stats.p90
  && bits_eq a.Stats.p99 b.Stats.p99
  && bits_eq a.Stats.bucket_lo b.Stats.bucket_lo
  && bits_eq a.Stats.bucket_width b.Stats.bucket_width
  && a.Stats.buckets = b.Stats.buckets

(* Samples drawn to collide: NaNs, both zeros, a handful of repeated
   values and infinities, alongside arbitrary floats. *)
let sample_gen =
  QCheck.Gen.(
    frequency
      [
        (1, return Float.nan);
        (1, return 0.0);
        (1, return (-0.0));
        (2, oneofl [ 1.0; 2.5; -3.0; 1e9 ]);
        (1, oneofl [ Float.infinity; Float.neg_infinity ]);
        (4, float);
      ])

let samples_arb =
  QCheck.make
    ~print:(fun xs ->
      String.concat "; " (List.map (Printf.sprintf "%h") (Array.to_list xs)))
    QCheck.Gen.(
      frequency
        [
          (6, array_size (int_range 0 80) sample_gen);
          (1, map (fun n -> Array.make n Float.nan) (int_range 1 5));
          (1, map2 Array.make (int_range 1 9) sample_gen);
          (1, map (fun x -> [| x |]) sample_gen);
        ])

let prop_histogram_one_sort =
  QCheck.Test.make ~name:"histogram = per-quantile percentiles, bit for bit"
    ~count:2000
    (QCheck.pair (QCheck.int_range 1 12) samples_arb)
    (fun (bins, xs) ->
      let got = Stats.histogram ~bins xs in
      let want = per_quantile_histogram ~bins xs in
      (if want.Stats.n = 0 then got == Stats.empty_histogram
       else same_histogram got want)
      && (want.Stats.n = 0
         || List.for_all
              (fun (p, q) -> bits_eq (Stats.percentile xs ~p) q)
              [ (50.0, want.Stats.p50); (90.0, want.Stats.p90);
                (99.0, want.Stats.p99) ]))

(* --- Metrics.aggregate reads the sojourn histogram -------------------- *)

module Simulator = Rtlf_sim.Simulator
module Metrics = Rtlf_sim.Metrics

(* The percentile_opt form [Metrics.aggregate] replaced: a run with no
   usable sojourn sample contributes nothing to the per-run quantile
   summaries. *)
let percentile_opt_quantiles results =
  List.map
    (fun p ->
      let acc = Stats.create () in
      List.iter
        (fun (res : Simulator.result) ->
          match Stats.percentile_opt res.Simulator.sojourn_samples ~p with
          | Some v -> Stats.add acc v
          | None -> ())
        results;
      Stats.summary acc)
    [ 50.0; 90.0; 99.0 ]

let same_summary (a : Stats.summary) (b : Stats.summary) =
  a.Stats.n = b.Stats.n
  && bits_eq a.Stats.mean b.Stats.mean
  && bits_eq a.Stats.stddev b.Stats.stddev
  && bits_eq a.Stats.ci95 b.Stats.ci95
  && bits_eq a.Stats.min b.Stats.min
  && bits_eq a.Stats.max b.Stats.max

let check_aggregate results =
  let m = Metrics.aggregate results in
  match percentile_opt_quantiles results with
  | [ p50; p90; p99 ] ->
    same_summary m.Metrics.sojourn_p50_ns p50
    && same_summary m.Metrics.sojourn_p90_ns p90
    && same_summary m.Metrics.sojourn_p99_ns p99
  | _ -> false

let sim_run ~horizon ~seed =
  let tasks =
    Rtlf_workload.Workload.make
      { Rtlf_workload.Workload.default with
        Rtlf_workload.Workload.n_tasks = 4; seed }
  in
  Simulator.run
    (Simulator.config ~tasks ~sync:Rtlf_sim.Sync.Ideal ~horizon ~seed ())

let test_aggregate_real_runs () =
  let full = sim_run ~horizon:20_000_000 ~seed:3 in
  let none = sim_run ~horizon:1 ~seed:4 in
  Alcotest.(check bool) "the long run completes jobs" true
    (Array.length full.Simulator.sojourn_samples > 0);
  Alcotest.(check int) "the 1 ns run completes none" 0
    (Array.length none.Simulator.sojourn_samples);
  List.iter
    (fun results ->
      Alcotest.(check bool) "aggregate = percentile_opt form" true
        (check_aggregate results))
    [ [ full ]; [ none ]; [ full; none; full ]; [ none; none ]; [] ]

(* Runs whose sojourn samples are drawn at random (empty and all-NaN
   included), each carrying the histogram [summarise] would build. *)
let prop_aggregate_percentile_opt =
  let base = lazy (sim_run ~horizon:2_000_000 ~seed:5) in
  QCheck.Test.make ~name:"aggregate = percentile_opt form" ~count:300
    (QCheck.list_of_size (QCheck.Gen.int_range 0 6) samples_arb)
    (fun runs ->
      let base = Lazy.force base in
      check_aggregate
        (List.map
           (fun xs ->
             {
               base with
               Simulator.sojourn_samples = xs;
               sojourn_hist = Stats.histogram xs;
             })
           runs))

let () =
  Test_support.run "stats_oracle"
    [
      ( "percentile",
        [
          Alcotest.test_case "random cross-check vs oracle" `Quick
            test_random_cross_check;
          Alcotest.test_case "singleton" `Quick test_singleton;
          Alcotest.test_case "all-equal" `Quick test_all_equal;
          Alcotest.test_case "NaN handling" `Quick test_nan_handling;
          Alcotest.test_case "infinities" `Quick test_infinities;
          Alcotest.test_case "errors" `Quick test_errors;
          Alcotest.test_case "monotone in p" `Quick test_monotone_in_p;
        ] );
      ( "histogram",
        [
          Alcotest.test_case "random cross-check vs oracle" `Quick
            test_histogram_random;
          Alcotest.test_case "edge cases" `Quick test_histogram_edges;
          Test_support.to_alcotest prop_histogram_one_sort;
        ] );
      ( "aggregate",
        [
          Alcotest.test_case "real runs, with and without completions"
            `Quick test_aggregate_real_runs;
          Test_support.to_alcotest prop_aggregate_percentile_opt;
        ] );
    ]
