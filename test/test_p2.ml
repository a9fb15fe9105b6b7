(* Property tests for the P² streaming quantile estimator: against the
   exact-percentile oracle on seeded random streams, exactness for
   tiny n, NaN-skipping, and monotonicity of the tail quartet. *)

module Stats = Rtlf_engine.Stats
module P = Rtlf_engine.Prng

(* P² is an approximation: on n samples from a well-behaved
   distribution the estimate lands near the exact percentile, but
   "near" depends on the shape. The tolerance is a generous fraction
   of the observed range — these tests catch marker-update bugs (which
   produce wildly wrong values or crashes), not statistical drift. *)
let tolerance xs =
  let lo = Array.fold_left Float.min Float.infinity xs in
  let hi = Array.fold_left Float.max Float.neg_infinity xs in
  Float.max 1e-9 (0.15 *. (hi -. lo))

let check_close ~what ~tol want got =
  if Float.abs (want -. got) > tol then
    Alcotest.failf "%s: P2 %g vs exact %g (tolerance %g)" what got want tol

let streams g =
  (* Distinct shapes: uniform, clustered-with-outliers, exponential-ish
     (retry-count-like: mostly zero, long tail). *)
  let n = 200 + P.int g ~bound:2000 in
  let uniform () = P.float_in g ~lo:0.0 ~hi:1000.0 in
  let clustered () =
    if P.int g ~bound:20 = 0 then P.float_in g ~lo:5000.0 ~hi:6000.0
    else P.float_in g ~lo:100.0 ~hi:110.0
  in
  let retry_like () =
    let r = P.int g ~bound:100 in
    if r < 70 then 0.0
    else if r < 95 then float_of_int (1 + P.int g ~bound:3)
    else float_of_int (4 + P.int g ~bound:20)
  in
  [
    ("uniform", Array.init n (fun _ -> uniform ()));
    ("clustered", Array.init n (fun _ -> clustered ()));
    ("retry-like", Array.init n (fun _ -> retry_like ()));
  ]

let quantiles = [ 0.5; 0.9; 0.99 ]

let test_vs_oracle () =
  let g = Test_support.prng () in
  for _ = 1 to 20 do
    List.iter
      (fun (shape, xs) ->
        let tol = tolerance xs in
        List.iter
          (fun q ->
            let est = Stats.P2.create ~p:q in
            Array.iter (Stats.P2.add est) xs;
            let exact = Stats.percentile xs ~p:(100.0 *. q) in
            check_close
              ~what:(Printf.sprintf "%s n=%d p%g" shape (Array.length xs) q)
              ~tol exact (Stats.P2.quantile est))
          quantiles)
      (streams g)
  done

(* With five or fewer samples P² holds the sorted prefix and must
   reproduce Stats.percentile exactly (same interpolation rule). *)
let test_tiny_n_exact () =
  let g = Test_support.prng () in
  for _ = 1 to 200 do
    let n = 1 + P.int g ~bound:5 in
    let xs = Array.init n (fun _ -> P.float_in g ~lo:(-50.0) ~hi:50.0) in
    List.iter
      (fun q ->
        let est = Stats.P2.create ~p:q in
        Array.iter (Stats.P2.add est) xs;
        let exact = Stats.percentile xs ~p:(100.0 *. q) in
        let got = Stats.P2.quantile est in
        if not (Float.abs (exact -. got) <= 1e-9 *. Float.max 1.0 (Float.abs exact))
        then
          Alcotest.failf "tiny n=%d p%g: P2 %h vs exact %h" n q got exact)
      quantiles
  done

let test_empty_is_nan () =
  let est = Stats.P2.create ~p:0.5 in
  Alcotest.(check bool) "nan before any sample" true
    (Float.is_nan (Stats.P2.quantile est));
  Alcotest.(check int) "count 0" 0 (Stats.P2.count est)

let test_nan_skipped () =
  let with_nans = [| 1.0; Float.nan; 2.0; Float.nan; 3.0; 4.0; Float.nan |] in
  let clean = [| 1.0; 2.0; 3.0; 4.0 |] in
  List.iter
    (fun q ->
      let a = Stats.P2.create ~p:q and b = Stats.P2.create ~p:q in
      Array.iter (Stats.P2.add a) with_nans;
      Array.iter (Stats.P2.add b) clean;
      Alcotest.(check int)
        "NaNs not counted" (Stats.P2.count b) (Stats.P2.count a);
      Alcotest.(check (float 0.0))
        (Printf.sprintf "p%g ignores NaNs" q)
        (Stats.P2.quantile b) (Stats.P2.quantile a))
    quantiles

let test_invalid_p () =
  List.iter
    (fun p ->
      Alcotest.check_raises
        (Printf.sprintf "p=%g rejected" p)
        (Invalid_argument "Stats.P2.create: need 0 < p < 1")
        (fun () -> ignore (Stats.P2.create ~p)))
    [ 0.0; 1.0; -0.5; 1.5 ]

(* The estimate must always lie within the observed data range — the
   markers are heights of actual or interpolated observations. *)
let test_within_range () =
  let g = Test_support.prng () in
  for _ = 1 to 50 do
    let n = 6 + P.int g ~bound:500 in
    let xs = Array.init n (fun _ -> P.float_in g ~lo:(-1e6) ~hi:1e6) in
    let lo = Array.fold_left Float.min Float.infinity xs in
    let hi = Array.fold_left Float.max Float.neg_infinity xs in
    List.iter
      (fun q ->
        let est = Stats.P2.create ~p:q in
        Array.iter (Stats.P2.add est) xs;
        let v = Stats.P2.quantile est in
        if v < lo || v > hi then
          Alcotest.failf "p%g estimate %g outside data range [%g, %g]" q v lo
            hi)
      quantiles
  done

let test_tracker_monotone () =
  (* On the same stream, tail quantile estimates should be ordered:
     p50 <= p90 <= p99 <= p99.9. The four estimators are independent
     approximations, so adjacent tails (p99 vs p99.9 of a thin tail)
     can invert by a sliver — allow a small slack, not exact order. *)
  let g = Test_support.prng () in
  let eps = 2.0 (* 2% of the 0..100 sample range *) in
  for _ = 1 to 20 do
    let tr = Stats.P2.tracker () in
    let n = 100 + P.int g ~bound:1000 in
    for _ = 1 to n do
      Stats.P2.track tr (P.float_in g ~lo:0.0 ~hi:100.0)
    done;
    let t = Stats.P2.tails tr in
    Alcotest.(check int) "n tracked" n t.Stats.P2.n;
    if
      not
        (t.Stats.P2.p50 <= t.Stats.P2.p90 +. eps
        && t.Stats.P2.p90 <= t.Stats.P2.p99 +. eps
        && t.Stats.P2.p99 <= t.Stats.P2.p999 +. eps)
    then
      Alcotest.failf "tails not monotone: p50=%g p90=%g p99=%g p999=%g"
        t.Stats.P2.p50 t.Stats.P2.p90 t.Stats.P2.p99 t.Stats.P2.p999
  done

let test_empty_tails () =
  let t = Stats.P2.empty_tails in
  Alcotest.(check int) "n" 0 t.Stats.P2.n;
  Alcotest.(check bool) "p50 nan" true (Float.is_nan t.Stats.P2.p50);
  let tr = Stats.P2.tracker () in
  let t' = Stats.P2.tails tr in
  Alcotest.(check int) "fresh tracker n" 0 t'.Stats.P2.n;
  Alcotest.(check bool) "fresh tracker nan" true
    (Float.is_nan t'.Stats.P2.p999)

(* Constant stream: every marker equals the constant, so the estimate
   is exact whatever the marker arithmetic does. *)
let test_constant_stream () =
  List.iter
    (fun q ->
      let est = Stats.P2.create ~p:q in
      for _ = 1 to 1000 do
        Stats.P2.add est 42.0
      done;
      Alcotest.(check (float 0.0))
        (Printf.sprintf "p%g of constant" q)
        42.0 (Stats.P2.quantile est))
    quantiles

(* A fixed stream, mostly zeros with a spread tail. The expected tails
   are the estimator's exact output on it, so any change to the marker
   arithmetic or to its order shows, not just gross errors. *)
let pinned_stream () =
  let g = ref 12345 in
  List.init 20_000 (fun _ ->
      g := ((!g * 1103515245) + 12345) land 0xffffff;
      float_of_int (if !g mod 4 = 0 then !g mod 23 else 0))

let test_pinned_bits () =
  let tr = Stats.P2.tracker () in
  List.iter (Stats.P2.track tr) (pinned_stream ());
  let t = Stats.P2.tails tr in
  List.iter
    (fun (what, want, got) ->
      Alcotest.(check string) what want (Printf.sprintf "%h" got))
    [
      ("p50", "0x1.077bf50751f6ep-30", t.Stats.P2.p50);
      ("p90", "0x1.a7cfa0c4cf84fp+3", t.Stats.P2.p90);
      ("p99", "0x1.560d100c79a4ap+4", t.Stats.P2.p99);
      ("p999", "0x1.5fffffffffffep+4", t.Stats.P2.p999);
    ]

(* Past the fifth sample [add] allocates nothing in native code: the
   engine calls it four times per resolved job. The samples are boxed
   before measuring, so only [add]'s own allocation counts. *)
let test_add_allocation_free () =
  if Sys.backend_type = Sys.Native then begin
    let xs = pinned_stream () in
    let est = Stats.P2.create ~p:0.99 in
    List.iteri (fun i x -> if i < 5 then Stats.P2.add est x) xs;
    let rec feed = function
      | [] -> ()
      | x :: rest ->
        Stats.P2.add est x;
        feed rest
    in
    let w0 = Gc.minor_words () in
    feed xs;
    let words = Gc.minor_words () -. w0 in
    if words > 64.0 then
      Alcotest.failf "%.0f minor words over %d adds" words (List.length xs)
  end

let () =
  Test_support.run "p2"
    [
      ( "p2",
        [
          Alcotest.test_case "random streams vs exact oracle" `Quick
            test_vs_oracle;
          Alcotest.test_case "n <= 5 exact" `Quick test_tiny_n_exact;
          Alcotest.test_case "empty is nan" `Quick test_empty_is_nan;
          Alcotest.test_case "NaN samples skipped" `Quick test_nan_skipped;
          Alcotest.test_case "invalid p rejected" `Quick test_invalid_p;
          Alcotest.test_case "estimate within data range" `Quick
            test_within_range;
          Alcotest.test_case "tracker tails monotone" `Quick
            test_tracker_monotone;
          Alcotest.test_case "empty tails" `Quick test_empty_tails;
          Alcotest.test_case "constant stream exact" `Quick
            test_constant_stream;
          Alcotest.test_case "pinned stream bit-exact" `Quick
            test_pinned_bits;
          Alcotest.test_case "add allocation-free" `Quick
            test_add_allocation_free;
        ] );
    ]
