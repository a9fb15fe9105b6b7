(* UAM arrival-model tests: constraints, generator/validator agreement,
   special cases, window-counting bounds. *)

module Uam = Rtlf_model.Uam
module Prng = Rtlf_engine.Prng

let gen law ~seed ~horizon =
  Uam.generate law (Prng.create ~seed) ~start:0 ~horizon

(* --- construction ------------------------------------------------------- *)

let test_make_validation () =
  let inv name msg f = Alcotest.check_raises name (Invalid_argument msg) f in
  inv "w=0" "Uam.make: w must be positive" (fun () ->
      ignore (Uam.make ~l:1 ~a:1 ~w:0));
  inv "a=0" "Uam.make: a must be at least 1" (fun () ->
      ignore (Uam.make ~l:0 ~a:0 ~w:10));
  inv "l>a" "Uam.make: need 0 <= l <= a" (fun () ->
      ignore (Uam.make ~l:3 ~a:2 ~w:10));
  inv "l<0" "Uam.make: need 0 <= l <= a" (fun () ->
      ignore (Uam.make ~l:(-1) ~a:2 ~w:10))

let test_periodic_is_special_case () =
  let law = Uam.periodic ~period:500 in
  Alcotest.(check int) "l" 1 law.Uam.l;
  Alcotest.(check int) "a" 1 law.Uam.a;
  Alcotest.(check int) "w" 500 law.Uam.w

(* --- generator ----------------------------------------------------------- *)

let test_periodic_trace_is_periodic () =
  let law = Uam.periodic ~period:1000 in
  let trace = gen law ~seed:3 ~horizon:50_000 in
  (match trace with
  | [] | [ _ ] -> Alcotest.fail "expected several arrivals"
  | first :: _ ->
    Alcotest.(check bool) "first within one window" true (first < 1000));
  let rec gaps = function
    | a :: (b :: _ as rest) -> (b - a) :: gaps rest
    | _ -> []
  in
  List.iter
    (fun g -> Alcotest.(check int) "gap = period" 1000 g)
    (gaps trace)

let test_generator_satisfies_validator () =
  List.iter
    (fun (l, a, w) ->
      let law = Uam.make ~l ~a ~w in
      List.iter
        (fun seed ->
          let trace = gen law ~seed ~horizon:(w * 100) in
          match Uam.validate law trace with
          | Ok () -> ()
          | Error msg ->
            Alcotest.failf "law <%d,%d,%d> seed %d: %s" l a w seed msg)
        [ 1; 2; 3; 4; 5 ])
    [ (1, 1, 1000); (1, 2, 1000); (1, 3, 500); (1, 5, 2000); (2, 4, 1000) ]

let test_generator_nonempty_and_in_horizon () =
  let law = Uam.bursty ~a:3 ~w:1000 in
  let trace = gen law ~seed:9 ~horizon:10_000 in
  Alcotest.(check bool) "nonempty" true (trace <> []);
  List.iter
    (fun t ->
      if t < 0 || t >= 10_000 then Alcotest.failf "out of horizon: %d" t)
    trace

let test_generator_allows_simultaneous () =
  (* With a generous burst, simultaneous (equal-time) arrivals must be
     possible across seeds. *)
  let law = Uam.bursty ~a:5 ~w:100 in
  let found = ref false in
  for seed = 1 to 30 do
    let trace = gen law ~seed ~horizon:10_000 in
    let rec has_dup = function
      | a :: (b :: _ as rest) -> a = b || has_dup rest
      | _ -> false
    in
    if has_dup trace then found := true
  done;
  Alcotest.(check bool) "simultaneous arrivals occur" true !found

let test_worst_burst () =
  let law = Uam.bursty ~a:3 ~w:1000 in
  let trace = Uam.generate_worst_burst law ~start:0 ~horizon:3500 in
  Alcotest.(check (list int)) "bursts at window fronts"
    [ 0; 0; 0; 1000; 1000; 1000; 2000; 2000; 2000; 3000; 3000; 3000 ]
    trace;
  (match Uam.validate law trace with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "worst burst invalid: %s" msg)

(* --- validator ------------------------------------------------------------ *)

let test_validate_rejects_overdense () =
  let law = Uam.make ~l:1 ~a:2 ~w:1000 in
  (* Three arrivals within one window violate the max side. *)
  match Uam.validate law [ 0; 100; 200; 5000 ] with
  | Ok () -> Alcotest.fail "expected max-side violation"
  | Error msg ->
    Alcotest.(check bool) "mentions max side" true
      (String.length msg > 0)

let test_validate_rejects_sparse () =
  let law = Uam.make ~l:1 ~a:2 ~w:1000 in
  (* Gap of 5000 > w violates the min side. *)
  match Uam.validate law [ 0; 5000 ] with
  | Ok () -> Alcotest.fail "expected min-side violation"
  | Error _ -> ()

let test_validate_rejects_unsorted () =
  let law = Uam.periodic ~period:10 in
  match Uam.validate law [ 5; 3 ] with
  | Ok () -> Alcotest.fail "expected sort error"
  | Error msg -> Alcotest.(check string) "message" "trace is not sorted" msg

let test_validate_empty_and_singleton () =
  let law = Uam.bursty ~a:2 ~w:100 in
  Alcotest.(check bool) "empty ok" true (Uam.validate law [] = Ok ());
  Alcotest.(check bool) "singleton ok" true (Uam.validate law [ 42 ] = Ok ())

(* --- window-counting bounds ------------------------------------------------ *)

let test_max_arrivals_in () =
  let law = Uam.make ~l:1 ~a:2 ~w:1000 in
  (* a * (ceil(span/w) + 1) *)
  Alcotest.(check int) "span=w" 4 (Uam.max_arrivals_in law ~span:1000);
  Alcotest.(check int) "span=2.5w" 8 (Uam.max_arrivals_in law ~span:2500);
  Alcotest.(check int) "span < w" 4 (Uam.max_arrivals_in law ~span:500);
  Alcotest.(check int) "span 0" 2 (Uam.max_arrivals_in law ~span:0)

let test_min_arrivals_in () =
  let law = Uam.make ~l:2 ~a:3 ~w:1000 in
  Alcotest.(check int) "span=2w" 4 (Uam.min_arrivals_in law ~span:2000);
  Alcotest.(check int) "span<w" 0 (Uam.min_arrivals_in law ~span:999)

let prop_trace_within_count_bounds =
  (* Any generated trace's count over the whole horizon respects the
     window-counting bound. *)
  QCheck.Test.make ~name:"generated counts below max_arrivals_in" ~count:100
    QCheck.(triple (int_range 1 4) (int_range 100 5_000) (int_range 1 1000))
    (fun (a, w, seed) ->
      let law = Uam.make ~l:1 ~a ~w in
      let horizon = w * 20 in
      let trace = gen law ~seed ~horizon in
      List.length trace <= Uam.max_arrivals_in law ~span:horizon)

let prop_generated_valid =
  QCheck.Test.make ~name:"generate |> validate" ~count:200
    QCheck.(triple (int_range 1 5) (int_range 50 2_000) (int_range 1 10_000))
    (fun (a, w, seed) ->
      let law = Uam.make ~l:1 ~a ~w in
      let trace = gen law ~seed ~horizon:(w * 50) in
      Uam.validate law trace = Ok ())

(* --- stepper ------------------------------------------------------------ *)

(* The list-building generator that preceded [Uam.stepper], kept as the
   oracle: the simulator's arrival stream must draw exactly this. *)
let oracle_generate (law : Uam.t) g ~start ~horizon =
  if horizon <= start then []
  else begin
    let a = law.Uam.a and l = law.Uam.l and w = law.Uam.w in
    let hist = Array.make a start in
    let count = ref 0 in
    let nth_back k = hist.((!count - k) mod a) in
    let acc = ref [] in
    let last = ref start in
    let continue = ref true in
    while !continue do
      let lo = max !last (if !count >= a then nth_back a + w else start) in
      let hi_min =
        if l >= 1 && !count >= l then nth_back l + w
        else if !count = 0 then start + w - 1
        else max_int
      in
      if lo >= horizon then continue := false
      else begin
        let hi = min hi_min (horizon - 1) in
        if hi < lo then continue := false
        else begin
          let time = Prng.int_in g ~lo ~hi in
          acc := time :: !acc;
          hist.(!count mod a) <- time;
          last := time;
          incr count
        end
      end
    done;
    List.rev !acc
  end

let unfold s =
  let rec go acc =
    match Uam.next s with None -> List.rev acc | Some t -> go (t :: acc)
  in
  go []

(* Laws with l = 0 and bursts a > 1, windows down to 1 ns (so arrivals
   coincide), and horizons on either side of the start. *)
let stepper_case_gen =
  QCheck.Gen.(
    let* a = int_range 1 5 in
    let* l = int_range 0 a in
    let* w = oneof [ int_range 1 4; int_range 5 2_000 ] in
    let* start = int_range (-50) 500 in
    let* span = oneof [ int_range (-100) 0; int_range 1 (w * 40) ] in
    let* seed = int_range 0 100_000 in
    return (Uam.make ~l ~a ~w, start, start + span, seed))

let stepper_case_arb =
  QCheck.make stepper_case_gen ~print:(fun (law, start, horizon, seed) ->
      Format.asprintf "%a start=%d horizon=%d seed=%d" Uam.pp law start
        horizon seed)

let prop_stepper_unfold =
  QCheck.Test.make ~name:"generate = stepper unfold = oracle" ~count:500
    stepper_case_arb (fun (law, start, horizon, seed) ->
      let want =
        oracle_generate law (Prng.create ~seed) ~start ~horizon
      in
      let s = Uam.stepper law (Prng.create ~seed) ~start ~horizon in
      let stepped = unfold s in
      want = Uam.generate law (Prng.create ~seed) ~start ~horizon
      && want = stepped
      && Uam.next s = None
      && (horizon > start || want = []))

(* Steppers own their state: advancing several in an interleaved order
   yields each one's own unfold, which is what lets the simulator keep
   one pending arrival per task. *)
let test_steppers_independent () =
  let laws =
    [ Uam.make ~l:0 ~a:3 ~w:7; Uam.periodic ~period:5; Uam.bursty ~a:4 ~w:3 ]
  in
  let root = Prng.create ~seed:11 in
  let gens = List.map (fun _ -> Prng.split root) laws in
  let want =
    List.map2
      (fun law g -> Uam.generate law (Prng.copy g) ~start:0 ~horizon:200)
      laws gens
  in
  let steppers =
    Array.of_list
      (List.map2
         (fun law g -> Uam.stepper law g ~start:0 ~horizon:200)
         laws gens)
  in
  let got = Array.make (Array.length steppers) [] in
  let live = ref true in
  while !live do
    live := false;
    (* A skewed round robin: stepper i advances i + 1 times per turn. *)
    Array.iteri
      (fun i s ->
        for _ = 0 to i do
          match Uam.next s with
          | Some t ->
            got.(i) <- t :: got.(i);
            live := true
          | None -> ()
        done)
      steppers
  done;
  List.iteri
    (fun i w ->
      Alcotest.(check (list int)) (Printf.sprintf "stepper %d" i) w
        (List.rev got.(i)))
    want

let () =
  Test_support.run "uam"
    [
      ( "construction",
        [
          Alcotest.test_case "make validation" `Quick test_make_validation;
          Alcotest.test_case "periodic special case" `Quick
            test_periodic_is_special_case;
        ] );
      ( "generator",
        [
          Alcotest.test_case "periodic trace" `Quick
            test_periodic_trace_is_periodic;
          Alcotest.test_case "generator satisfies validator" `Quick
            test_generator_satisfies_validator;
          Alcotest.test_case "in-horizon, nonempty" `Quick
            test_generator_nonempty_and_in_horizon;
          Alcotest.test_case "simultaneous arrivals possible" `Quick
            test_generator_allows_simultaneous;
          Alcotest.test_case "worst burst trace" `Quick test_worst_burst;
          Test_support.to_alcotest prop_generated_valid;
        ] );
      ( "stepper",
        [
          Test_support.to_alcotest prop_stepper_unfold;
          Alcotest.test_case "interleaved steppers independent" `Quick
            test_steppers_independent;
        ] );
      ( "validator",
        [
          Alcotest.test_case "rejects over-dense" `Quick
            test_validate_rejects_overdense;
          Alcotest.test_case "rejects sparse" `Quick test_validate_rejects_sparse;
          Alcotest.test_case "rejects unsorted" `Quick
            test_validate_rejects_unsorted;
          Alcotest.test_case "empty/singleton ok" `Quick
            test_validate_empty_and_singleton;
        ] );
      ( "bounds",
        [
          Alcotest.test_case "max_arrivals_in" `Quick test_max_arrivals_in;
          Alcotest.test_case "min_arrivals_in" `Quick test_min_arrivals_in;
          Test_support.to_alcotest prop_trace_within_count_bounds;
        ] );
    ]
