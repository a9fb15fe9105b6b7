module Job = Rtlf_model.Job

(* The flat greedy kernel shared by both RUA deciders for the case where
   every dependency chain is the job itself (always, under lock-free
   sharing; under locks, whenever no job waits). The rebuild works on
   flat int and float arrays — candidates are job indices, sorted as int
   permutations — so it holds no job pointers beyond the jobs array.

   Layout: candidates are laid out once in the final schedule's total
   order — (eff_ct, admission rank): ECF with ties resolved by admission
   order, exactly the order [Tentative_schedule.insert_at_ecf] produces
   — so admitting a candidate never shifts anything physically, and
   both feasibility conditions become Fenwick / suffix-min tree queries
   ({!Slack_tree}). *)

type charges = { per_job : int; per_probe_log : int }

(* Lock-free: one PUD per job; per probe, the ordered-structure insert
   and position search. Lock-based: chain, cycle check and chain PUD per
   job; per probe, two [mem] checks and the [insert_at_ecf]. *)
let lock_free = { per_job = 1; per_probe_log = 2 }
let lock_based = { per_job = 3; per_probe_log = 3 }

type t = {
  tree : Slack_tree.t;
  mutable rem : int array; (* job index -> remaining cost *)
  mutable pud : float array; (* job index -> PUD *)
  mutable by_pud : int array; (* candidates; after sorting, rank -> index *)
  mutable by_ecf : int array; (* schedule position -> admission rank *)
  mutable ect_of_rank : int array; (* admission rank -> eff_ct *)
  mutable pos_of_rank : int array; (* admission rank -> schedule position *)
  mutable admitted : bool array; (* schedule position -> admitted? *)
  mutable tmp : int array; (* merge buffer for [sort_ints] *)
}

let create () =
  {
    tree = Slack_tree.create ();
    rem = [||];
    pud = [||];
    by_pud = [||];
    by_ecf = [||];
    ect_of_rank = [||];
    pos_of_rank = [||];
    admitted = [||];
    tmp = [||];
  }

let ensure n arr = if Array.length arr >= n then arr else Array.make (max n 16) 0
let ensure_bool n arr =
  if Array.length arr >= n then arr else Array.make (max n 16) false
let ensure_float n arr =
  if Array.length arr >= n then arr else Array.make (max n 16) 0.0

let reserve t ~n =
  t.rem <- ensure n t.rem;
  t.pud <- ensure_float n t.pud;
  t.by_pud <- ensure n t.by_pud

let rem t = t.rem
let pud t = t.pud
let candidates t = t.by_pud
let min_slack t = Slack_tree.min_all t.tree

let score t ~now ~jobs ~remaining =
  let n = Array.length jobs in
  reserve t ~n;
  let rem_a = t.rem and pud_a = t.pud and cand = t.by_pud in
  let m = ref 0 in
  for i = 0 to n - 1 do
    let j = jobs.(i) in
    if Job.is_live j then begin
      let rem = remaining j in
      rem_a.(i) <- rem;
      pud_a.(i) <- Pud.of_rem ~now ~rem j;
      cand.(!m) <- i;
      incr m
    end
  done;
  !m

(* The two candidate orders, both total (unique tiebreak), so any
   comparison sort yields the reference [List.sort]'s result.
   - [By_pud (pud, jobs)]: job indices by non-increasing PUD, ties by
     jid. NaN-safe: equal to [Float.compare]'s order, off the hot path.
   - [By_ecf ect]: admission ranks by eff_ct ascending, ties by rank —
     the stable-ECF insertion order of the reference schedule. *)
type order = By_pud of float array * Job.t array | By_ecf of int array

let before order x y =
  match order with
  | By_pud (pud, jobs) ->
    let px = pud.(x) and py = pud.(y) in
    if px > py then true
    else if px < py then false
    else if px = py then jobs.(x).Job.jid < jobs.(y).Job.jid
    else (
      match Float.compare py px with
      | 0 -> jobs.(x).Job.jid < jobs.(y).Job.jid
      | d -> d < 0)
  | By_ecf ect ->
    let ex = ect.(x) and ey = ect.(y) in
    ex < ey || (ex = ey && x < y)

(* Merge sort of the int permutation [a.(0 .. n-1)] under [order], with
   [tmp] (length >= n) as the merge buffer. The order is a variant
   rather than a closure so that each comparison is a direct call. *)
let sort_ints a ~n ~tmp order =
  let rec go lo hi =
    if hi - lo <= 8 then
      for i = lo + 1 to hi - 1 do
        let x = a.(i) in
        let j = ref (i - 1) in
        while !j >= lo && before order x a.(!j) do
          a.(!j + 1) <- a.(!j);
          decr j
        done;
        a.(!j + 1) <- x
      done
    else begin
      let mid = (lo + hi) / 2 in
      go lo mid;
      go mid hi;
      if before order a.(mid) a.(mid - 1) then begin
        Array.blit a lo tmp lo (mid - lo);
        let i = ref lo and j = ref mid and k = ref lo in
        while !i < mid do
          if !j < hi && before order a.(!j) tmp.(!i) then begin
            a.(!k) <- a.(!j);
            incr j
          end
          else begin
            a.(!k) <- tmp.(!i);
            incr i
          end;
          incr k
        done
      end
    end
  in
  go 0 n

let rebuild t charges ~now ~jobs ~n =
  let rem_of = t.rem in
  let by_pud = t.by_pud in
  t.tmp <- ensure n t.tmp;
  sort_ints by_pud ~n ~tmp:t.tmp (By_pud (t.pud, jobs));
  let ops = (charges.per_job * n) + (n * Log2.ceil (max n 2)) in
  (* Fixed schedule positions: candidates ordered by (eff_ct,
     admission rank). The admitted subset read in position order is
     exactly the reference's stable-ECF schedule. *)
  t.ect_of_rank <- ensure n t.ect_of_rank;
  t.pos_of_rank <- ensure n t.pos_of_rank;
  t.by_ecf <- ensure n t.by_ecf;
  t.admitted <- ensure_bool n t.admitted;
  let ect_of_rank = t.ect_of_rank
  and pos_of_rank = t.pos_of_rank
  and by_ecf = t.by_ecf
  and admitted = t.admitted in
  for r = 0 to n - 1 do
    ect_of_rank.(r) <- Job.absolute_critical_time jobs.(by_pud.(r));
    by_ecf.(r) <- r
  done;
  sort_ints by_ecf ~n ~tmp:t.tmp (By_ecf ect_of_rank);
  for p = 0 to n - 1 do
    pos_of_rank.(by_ecf.(p)) <- p;
    admitted.(p) <- false
  done;
  let tree = t.tree in
  Slack_tree.reset tree ~n;
  (* Greedy admission, highest PUD first. Feasibility of candidate c
     at position p, against the admitted set S (all currently
     feasible): c itself must finish by its eff_ct after the admitted
     work before it, and every admitted entry after p must absorb
     rem c without going negative. Charges mirror the reference list
     walk exactly: with k entries admitted, [per_probe_log] ordered-
     structure charges of ceil-log2(k+1) plus a feasibility walk of
     k+1. *)
  let ops = ref ops in
  let admitted_count = ref 0 in
  (* [lg = Log2.ceil (k + 1)], stepped as [k] grows past [pow]. *)
  let lg = ref 1 and pow = ref 2 in
  for r = 0 to n - 1 do
    let k = !admitted_count in
    if k + 1 > !pow then begin
      incr lg;
      pow := 2 * !pow
    end;
    ops := !ops + (charges.per_probe_log * !lg) + (k + 1);
    let p = pos_of_rank.(r) in
    let rem = rem_of.(by_pud.(r)) in
    let ect = ect_of_rank.(r) in
    let before = Slack_tree.prefix_rem tree ~pos:p in
    let slack = ect - before - rem - now in
    if slack >= 0 && Slack_tree.suffix_min tree ~pos:(p + 1) >= now + rem
    then begin
      Slack_tree.admit tree ~pos:p ~rem ~slack:(ect - before - rem);
      admitted.(p) <- true;
      incr admitted_count
    end
  done;
  (* Both lists are built back to front, so neither needs reversing. *)
  let rejected = ref [] in
  for r = n - 1 downto 0 do
    if not admitted.(pos_of_rank.(r)) then
      rejected := jobs.(by_pud.(r)).Job.jid :: !rejected
  done;
  let schedule = ref [] in
  for p = n - 1 downto 0 do
    if admitted.(p) then schedule := jobs.(by_pud.(by_ecf.(p))) :: !schedule
  done;
  let schedule = !schedule in
  {
    Scheduler.dispatch = List.find_opt Job.is_runnable schedule;
    aborts = [];
    rejected = !rejected;
    schedule;
    ops = !ops;
  }
