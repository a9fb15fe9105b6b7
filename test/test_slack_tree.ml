(* Edge-case suite for the admission feasibility index — the cases the
   scheduler differential suites only reach incidentally: the empty
   range, a single admitted entry, slack ties across every position,
   and storage reuse across [reset]. Plus the order-independence
   invariant the static-mode min-slack reconstruction leans on: under
   the admission protocol ([slack = ect - prefix_rem - rem] at admit
   time, suffix range-add afterwards) the final slack at an admitted
   position [p] is [ect_p] minus the total admitted work at positions
   [<= p], whatever order the positions were admitted in — checked
   against a brute-force sorted-list oracle. *)

module Slack_tree = Rtlf_core.Slack_tree

let sentinel = Slack_tree.sentinel

(* "No admitted position in range" answers are only promised to be
   huge, not exactly [sentinel]: vacant leaves sit at the sentinel but
   still absorb the suffix range-adds of earlier admissions. *)
let is_vacant v = v > sentinel / 2

let test_empty () =
  let t = Slack_tree.create () in
  Slack_tree.reset t ~n:0;
  Alcotest.(check int) "min_all" sentinel (Slack_tree.min_all t);
  Alcotest.(check int) "suffix_min at 0" sentinel
    (Slack_tree.suffix_min t ~pos:0);
  Alcotest.(check int) "suffix_min past end" sentinel
    (Slack_tree.suffix_min t ~pos:5);
  Alcotest.(check int) "prefix_rem" 0 (Slack_tree.prefix_rem t ~pos:0)

let test_single () =
  let t = Slack_tree.create () in
  Slack_tree.reset t ~n:1;
  Alcotest.(check int) "vacant min_all" sentinel (Slack_tree.min_all t);
  Alcotest.(check int) "vacant prefix_rem" 0 (Slack_tree.prefix_rem t ~pos:0);
  Slack_tree.admit t ~pos:0 ~rem:7 ~slack:42;
  Alcotest.(check int) "min_all" 42 (Slack_tree.min_all t);
  Alcotest.(check int) "suffix_min at 0" 42 (Slack_tree.suffix_min t ~pos:0);
  Alcotest.(check int) "suffix_min past end" sentinel
    (Slack_tree.suffix_min t ~pos:1);
  Alcotest.(check int) "prefix_rem" 7 (Slack_tree.prefix_rem t ~pos:0)

(* ect_p = base + (admitted work <= p) makes every final slack equal to
   [base]: ties at every position must not confuse the range-min, and
   the suffix min must be flat wherever an admitted position remains in
   range. Ends by re-resetting smaller, pinning that reused storage
   comes back clean. *)
let test_all_equal () =
  let n = 16 and base = 1000 in
  let rem = Array.init n (fun i -> 1 + (i mod 5)) in
  let t = Slack_tree.create () in
  Slack_tree.reset t ~n;
  for p = 0 to n - 1 do
    let before = Slack_tree.prefix_rem t ~pos:p in
    let ect = base + before + rem.(p) in
    Slack_tree.admit t ~pos:p ~rem:rem.(p) ~slack:(ect - before - rem.(p))
  done;
  Alcotest.(check int) "min_all" base (Slack_tree.min_all t);
  for p = 0 to n - 1 do
    Alcotest.(check int)
      (Printf.sprintf "suffix_min at %d" p)
      base
      (Slack_tree.suffix_min t ~pos:p)
  done;
  Slack_tree.reset t ~n:4;
  Alcotest.(check int) "clean after reset" sentinel (Slack_tree.min_all t);
  Alcotest.(check int) "prefix clean after reset" 0
    (Slack_tree.prefix_rem t ~pos:3)

let shuffle rs arr =
  let a = Array.copy arr in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rs (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done;
  a

let test_order_independence () =
  let rs = Test_support.rand_state () in
  for rep = 1 to 50 do
    let n = 1 + Random.State.int rs 24 in
    let rem = Array.init n (fun _ -> 1 + Random.State.int rs 50) in
    let ect = Array.init n (fun _ -> 100 + Random.State.int rs 2000) in
    let admitted = Array.init n (fun _ -> Random.State.bool rs) in
    let chosen =
      Array.of_list
        (List.filter (fun p -> admitted.(p)) (List.init n (fun p -> p)))
    in
    let build order =
      let t = Slack_tree.create () in
      Slack_tree.reset t ~n;
      Array.iter
        (fun p ->
          let before = Slack_tree.prefix_rem t ~pos:p in
          Slack_tree.admit t ~pos:p ~rem:rem.(p)
            ~slack:(ect.(p) - before - rem.(p)))
        order;
      t
    in
    let t1 = build chosen in
    let t2 = build (shuffle rs chosen) in
    (* Sorted-list oracle over the final admitted set. *)
    let prefix pos =
      let acc = ref 0 in
      for q = 0 to min pos (n - 1) do
        if admitted.(q) then acc := !acc + rem.(q)
      done;
      !acc
    in
    let slack p = ect.(p) - prefix p in
    let suffix pos =
      let best = ref None in
      for q = pos to n - 1 do
        if admitted.(q) then
          best :=
            Some (match !best with None -> slack q | Some b -> min b (slack q))
      done;
      !best
    in
    let msg q = Printf.sprintf "rep=%d n=%d %s" rep n q in
    for pos = 0 to n - 1 do
      Alcotest.(check int)
        (msg (Printf.sprintf "prefix_rem %d" pos))
        (prefix pos)
        (Slack_tree.prefix_rem t1 ~pos);
      let s1 = Slack_tree.suffix_min t1 ~pos
      and s2 = Slack_tree.suffix_min t2 ~pos in
      Alcotest.(check int)
        (msg (Printf.sprintf "suffix_min %d order-independent" pos))
        s1 s2;
      match suffix pos with
      | Some expect ->
        Alcotest.(check int)
          (msg (Printf.sprintf "suffix_min %d vs oracle" pos))
          expect s1
      | None ->
        Alcotest.(check bool)
          (msg (Printf.sprintf "suffix_min %d vacant" pos))
          true (is_vacant s1)
    done;
    let m1 = Slack_tree.min_all t1 in
    Alcotest.(check int) (msg "min_all order-independent") m1
      (Slack_tree.min_all t2);
    match suffix 0 with
    | Some expect -> Alcotest.(check int) (msg "min_all vs oracle") expect m1
    | None ->
      Alcotest.(check bool) (msg "min_all vacant") true (is_vacant m1)
  done

(* Random admit / prefix_rem / suffix_min / min_all sequences against a
   flat-array oracle holding every position's value exactly: a vacant
   position starts at [sentinel], each admission subtracts its [rem]
   from every later position and overwrites its own with [slack]. So
   even "no admitted position in range" answers must match to the unit.
   One tree instance runs every size in turn, then the sizes again in
   reverse, so each [reset] to a smaller n follows a larger, fully
   written one: stale storage and pending adds must not leak. *)
let test_random_vs_oracle () =
  let rs = Test_support.rand_state () in
  let t = Slack_tree.create () in
  let sizes = [ 0; 1; 2; 3; 63; 64; 65; 127; 128; 129; 1000 ] in
  List.iter
    (fun n ->
      Slack_tree.reset t ~n;
      let v = Array.make n sentinel in
      let rem_at = Array.make n 0 in
      let vacant = ref (List.init n (fun p -> p)) in
      let msg q = Printf.sprintf "n=%d %s" n q in
      let check_queries () =
        if n > 0 then begin
          let pos = Random.State.int rs n in
          let expect = ref 0 in
          for q = 0 to pos do
            expect := !expect + rem_at.(q)
          done;
          Alcotest.(check int)
            (msg (Printf.sprintf "prefix_rem %d" pos))
            !expect
            (Slack_tree.prefix_rem t ~pos)
        end;
        let pos = Random.State.int rs (n + 2) in
        let expect = ref sentinel in
        for q = pos to n - 1 do
          expect := min !expect v.(q)
        done;
        Alcotest.(check int)
          (msg (Printf.sprintf "suffix_min %d" pos))
          !expect
          (Slack_tree.suffix_min t ~pos);
        Alcotest.(check int) (msg "min_all")
          (Array.fold_left min sentinel v)
          (Slack_tree.min_all t)
      in
      check_queries ();
      (* Admit about three quarters of the positions, in random order. *)
      for _ = 1 to 3 * n / 4 do
        let k = Random.State.int rs (List.length !vacant) in
        let pos = List.nth !vacant k in
        vacant := List.filter (( <> ) pos) !vacant;
        let rem = 1 + Random.State.int rs 1000 in
        let slack = Random.State.int rs 200_000 - 1000 in
        Slack_tree.admit t ~pos ~rem ~slack;
        for q = pos + 1 to n - 1 do
          v.(q) <- v.(q) - rem
        done;
        v.(pos) <- slack;
        rem_at.(pos) <- rem;
        check_queries ()
      done;
      for pos = 0 to n - 1 do
        let expect = ref sentinel in
        for q = pos to n - 1 do
          expect := min !expect v.(q)
        done;
        Alcotest.(check int)
          (msg (Printf.sprintf "final suffix_min %d" pos))
          !expect
          (Slack_tree.suffix_min t ~pos)
      done)
    (sizes @ List.rev sizes)

let () =
  Test_support.run "slack_tree"
    [
      ( "edges",
        [
          Alcotest.test_case "empty tree" `Quick test_empty;
          Alcotest.test_case "single admitted job" `Quick test_single;
          Alcotest.test_case "all-equal slacks + reset reuse" `Quick
            test_all_equal;
        ] );
      ( "invariants",
        [
          Alcotest.test_case "admission-order independence vs oracle" `Quick
            test_order_independence;
          Alcotest.test_case "random sequences vs flat-array oracle" `Quick
            test_random_vs_oracle;
        ] );
    ]
