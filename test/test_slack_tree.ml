(* Edge-case suite for the admission feasibility index — the cases the
   scheduler differential suites only reach incidentally: the empty
   range, a single admitted entry, slack ties across every position,
   and storage reuse across [reset]. Plus the order-independence
   invariant the static-mode min-slack reconstruction leans on: under
   the admission protocol ([slack = ect - before - rem] at admit time,
   suffix add afterwards) the final slack at an admitted position [p]
   is [ect_p] minus the total admitted work at positions [<= p],
   whatever order the positions were admitted in — checked against a
   brute-force sorted-list oracle. Every query goes through [probe],
   which must change nothing the index answers. *)

module Slack_tree = Rtlf_core.Slack_tree

let sentinel = Slack_tree.sentinel

(* "No admitted position in range" answers are only promised to be
   huge, not exactly [sentinel]: vacant leaves sit at the sentinel but
   still absorb the suffix adds of earlier admissions. *)
let is_vacant v = v > sentinel / 2

let before t pos = (Slack_tree.probe t ~pos).Slack_tree.before
let after t pos = (Slack_tree.probe t ~pos).Slack_tree.after

(* The admission protocol: probe, then admit with the slack the
   probe's prefix gives. *)
let admit_ect t ~pos ~rem ~ect =
  let b = before t pos in
  Slack_tree.admit t ~rem ~slack:(ect - b - rem)

let raises_invalid f =
  match f () with _ -> false | exception Invalid_argument _ -> true

let test_empty () =
  let t = Slack_tree.create () in
  Slack_tree.reset t ~n:0;
  Alcotest.(check int) "min_all" sentinel (Slack_tree.min_all t);
  Alcotest.(check bool) "probe 0 out of range" true
    (raises_invalid (fun () -> Slack_tree.probe t ~pos:0));
  Alcotest.(check bool) "admit without probe" true
    (raises_invalid (fun () -> Slack_tree.admit t ~rem:1 ~slack:1))

let test_single () =
  let t = Slack_tree.create () in
  Slack_tree.reset t ~n:1;
  Alcotest.(check int) "vacant min_all" sentinel (Slack_tree.min_all t);
  Alcotest.(check int) "vacant before" 0 (before t 0);
  Alcotest.(check int) "nothing after" sentinel (after t 0);
  Slack_tree.admit t ~rem:7 ~slack:42;
  Alcotest.(check int) "min_all" 42 (Slack_tree.min_all t);
  Alcotest.(check int) "before" 0 (before t 0);
  Alcotest.(check int) "still nothing after" sentinel (after t 0);
  Alcotest.(check bool) "probe past end" true
    (raises_invalid (fun () -> Slack_tree.probe t ~pos:1));
  Slack_tree.reset t ~n:2;
  ignore (Slack_tree.probe t ~pos:1);
  Slack_tree.admit t ~rem:5 ~slack:9;
  Alcotest.(check bool) "second admit needs a fresh probe" true
    (raises_invalid (fun () -> Slack_tree.admit t ~rem:1 ~slack:1));
  Alcotest.(check int) "before the admitted entry" 0 (before t 0);
  Alcotest.(check int) "after 0" 9 (after t 0)

(* ect_p = base + (admitted work <= p) makes every final slack equal to
   [base]: ties at every position must not confuse the range-min, and
   the minimum after a position must be flat wherever an admitted
   position remains in range. Ends by re-resetting smaller, pinning
   that reused storage comes back clean. *)
let test_all_equal () =
  let n = 16 and base = 1000 in
  let rem = Array.init n (fun i -> 1 + (i mod 5)) in
  let t = Slack_tree.create () in
  Slack_tree.reset t ~n;
  for p = 0 to n - 1 do
    admit_ect t ~pos:p ~rem:rem.(p) ~ect:(base + before t p + rem.(p))
  done;
  Alcotest.(check int) "min_all" base (Slack_tree.min_all t);
  let work = ref 0 in
  for p = 0 to n - 1 do
    Alcotest.(check int) (Printf.sprintf "before %d" p) !work (before t p);
    work := !work + rem.(p);
    Alcotest.(check int)
      (Printf.sprintf "after %d" p)
      (if p = n - 1 then sentinel else base)
      (after t p)
  done;
  Slack_tree.reset t ~n:4;
  Alcotest.(check int) "clean after reset" sentinel (Slack_tree.min_all t);
  Alcotest.(check int) "before clean after reset" 0 (before t 3);
  Alcotest.(check int) "after clean after reset" sentinel (after t 0)

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
        (fun p -> admit_ect t ~pos:p ~rem:rem.(p) ~ect:ect.(p))
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
        (msg (Printf.sprintf "before %d" pos))
        (prefix (pos - 1))
        (before t1 pos);
      let s1 = after t1 pos and s2 = after t2 pos in
      Alcotest.(check int)
        (msg (Printf.sprintf "after %d order-independent" pos))
        s1 s2;
      match suffix (pos + 1) with
      | Some expect ->
        Alcotest.(check int)
          (msg (Printf.sprintf "after %d vs oracle" pos))
          expect s1
      | None ->
        Alcotest.(check bool)
          (msg (Printf.sprintf "after %d vacant" pos))
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

(* Random probe / admit / min_all sequences against a flat-array oracle
   holding every position's value exactly: a vacant position starts at
   [sentinel], each admission subtracts its [rem] from every later
   position and overwrites its own with [slack]. So even "no admitted
   position in range" answers must match to the unit; an empty range
   (after the last position) answers the sentinel. Every answer is
   also read back after a burst of probes elsewhere: a probe must not
   change what the index answers. One tree instance runs every size in
   turn, then the sizes again in reverse, so each [reset] to a smaller
   n follows a larger, fully written one: stale storage and pending
   adds must not leak. *)
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
      let expect_before pos =
        let acc = ref 0 in
        for q = 0 to pos - 1 do
          acc := !acc + rem_at.(q)
        done;
        !acc
      in
      let expect_after pos =
        let acc = ref sentinel in
        for q = pos + 1 to n - 1 do
          acc := min !acc v.(q)
        done;
        !acc
      in
      let check_queries () =
        Alcotest.(check int) (msg "min_all")
          (Array.fold_left min sentinel v)
          (Slack_tree.min_all t);
        if n > 0 then begin
          let pos = Random.State.int rs n in
          let pr = Slack_tree.probe t ~pos in
          let b = pr.Slack_tree.before and a = pr.Slack_tree.after in
          Alcotest.(check int)
            (msg (Printf.sprintf "before %d" pos))
            (expect_before pos) b;
          Alcotest.(check int)
            (msg (Printf.sprintf "after %d" pos))
            (expect_after pos) a;
          let m = Slack_tree.min_all t in
          for _ = 1 to 4 do
            ignore (Slack_tree.probe t ~pos:(Random.State.int rs n))
          done;
          let again = Slack_tree.probe t ~pos in
          Alcotest.(check (pair int int))
            (msg (Printf.sprintf "probe %d unchanged by probes" pos))
            (b, a)
            (again.Slack_tree.before, again.Slack_tree.after);
          Alcotest.(check int) (msg "min_all unchanged by probes") m
            (Slack_tree.min_all t)
        end
      in
      check_queries ();
      (* Admit about three quarters of the positions, in random order. *)
      for _ = 1 to 3 * n / 4 do
        let k = Random.State.int rs (List.length !vacant) in
        let pos = List.nth !vacant k in
        vacant := List.filter (( <> ) pos) !vacant;
        let rem = 1 + Random.State.int rs 1000 in
        let slack = Random.State.int rs 200_000 - 1000 in
        ignore (Slack_tree.probe t ~pos);
        Slack_tree.admit t ~rem ~slack;
        for q = pos + 1 to n - 1 do
          v.(q) <- v.(q) - rem
        done;
        v.(pos) <- slack;
        rem_at.(pos) <- rem;
        check_queries ()
      done;
      for pos = 0 to n - 1 do
        Alcotest.(check int)
          (msg (Printf.sprintf "final before %d" pos))
          (expect_before pos) (before t pos);
        Alcotest.(check int)
          (msg (Printf.sprintf "final after %d" pos))
          (expect_after pos) (after t pos)
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
