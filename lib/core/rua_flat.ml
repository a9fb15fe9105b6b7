module Job = Rtlf_model.Job

(* The flat greedy kernel shared by both RUA deciders for the case where
   every dependency chain is the job itself (always, under lock-free
   sharing; under locks, whenever no job waits). The rebuild works on
   flat int and float arrays — candidates are job indices, sorted as int
   permutations — so it holds no job pointers beyond the jobs array.

   Layout: candidates are laid out once in the final schedule's total
   order — (eff_ct, admission rank): ECF with ties resolved by admission
   order, exactly the order [Tentative_schedule.insert_at_ecf] produces
   — so admitting a candidate never shifts anything physically, and both
   feasibility conditions become one probe of a {!Slack_tree}.

   Warm start: consecutive rebuilds see nearly the same live set, so
   each rebuild keeps its two orders (as job indices, with its jid
   column) and the next one maps them onto its own jobs array and
   starts both sorts from them. Both orders are total — (PUD desc, jid)
   and (eff_ct, rank) never tie on distinct candidates — so a sort's
   output is the one sorted permutation of its input set, whatever
   permutation of that set it starts from: the hint can only change the
   time taken, never a result. *)

type charges = { per_job : int; per_probe_log : int }

(* Lock-free: one PUD per job; per probe, the ordered-structure insert
   and position search. Lock-based: chain, cycle check and chain PUD per
   job; per probe, two [mem] checks and the [insert_at_ecf]. *)
let lock_free = { per_job = 1; per_probe_log = 2 }
let lock_based = { per_job = 3; per_probe_log = 3 }

type t = {
  tree : Slack_tree.t;
  (* Written by the scoring pass, by job index. *)
  mutable rem : int array;
  mutable pud : float array;
  (* Written by [columns], at every index. *)
  mutable ect : int array; (* eff_ct *)
  mutable jid : int array;
  mutable columns_of : Job.t array; (* the jobs array they describe *)
  mutable by_pud : int array; (* candidates; after sorting, rank -> index *)
  (* Rebuild scratch. *)
  mutable by_ecf : int array; (* schedule position -> admission rank *)
  mutable ect_of_rank : int array; (* admission rank -> eff_ct *)
  mutable pos_of_rank : int array; (* admission rank -> schedule position *)
  mutable admitted : bool array; (* schedule position -> admitted? *)
  mutable tmp : int array; (* merge buffer; also builds the PUD hint *)
  mutable rank_of : int array; (* job index -> admission rank *)
  mutable mark : int array; (* job index -> stamp, see [warm_pud] *)
  mutable stamp : int;
  mutable map : int array; (* previous job index -> job index, or -1 *)
  (* The previous rebuild's orders, as indices into its jobs array. *)
  mutable prev_m : int; (* its candidate count; 0 = no hint *)
  mutable prev_len : int; (* its jobs array's length *)
  mutable prev_jid : int array; (* its jid column *)
  mutable prev_pud : int array; (* its candidates in PUD order *)
  mutable prev_ecf : int array; (* its candidates in ECF order *)
}

let create () =
  {
    tree = Slack_tree.create ();
    rem = [||];
    pud = [||];
    ect = [||];
    jid = [||];
    columns_of = [||];
    by_pud = [||];
    by_ecf = [||];
    ect_of_rank = [||];
    pos_of_rank = [||];
    admitted = [||];
    tmp = [||];
    rank_of = [||];
    mark = [||];
    stamp = 0;
    map = [||];
    prev_m = 0;
    prev_len = 0;
    prev_jid = [||];
    prev_pud = [||];
    prev_ecf = [||];
  }

(* Scratch arrays grow by doubling, so a live set that creeps upwards
   one job at a time costs O(log n) regrowths, not one per job. A grown
   array comes back blank: callers rewrite what they read. *)
let grown n len = max n (max 16 (2 * len))
let ensure n arr =
  if Array.length arr >= n then arr
  else Array.make (grown n (Array.length arr)) 0
let ensure_float n arr =
  if Array.length arr >= n then arr
  else Array.make (grown n (Array.length arr)) 0.0
let ensure_bool n arr =
  if Array.length arr >= n then arr
  else Array.make (grown n (Array.length arr)) false

let reserve t ~n =
  t.rem <- ensure n t.rem;
  t.pud <- ensure_float n t.pud;
  t.ect <- ensure n t.ect;
  t.jid <- ensure n t.jid;
  t.by_pud <- ensure n t.by_pud

let rem t = t.rem
let pud t = t.pud
let candidates t = t.by_pud
let min_slack t = Slack_tree.min_all t.tree

(* A job's jid and eff_ct never change, so while the decider sees the
   same array (membership unchanged) the columns stand. A regrowth in
   [reserve] only happens for a longer array, never the recorded one. *)
let columns t ~jobs =
  if jobs != t.columns_of then begin
    let ect = t.ect and jid = t.jid in
    for i = 0 to Array.length jobs - 1 do
      let j = jobs.(i) in
      jid.(i) <- j.Job.jid;
      ect.(i) <- Job.absolute_critical_time j
    done;
    t.columns_of <- jobs
  end

let score t ~now ~jobs ~remaining =
  let n = Array.length jobs in
  reserve t ~n;
  columns t ~jobs;
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

(* --- the two orders ------------------------------------------------------ *)

(* The insertion-sort block of both merge sorts. A live set this small
   is one insertion sort, and a warm start would cost more than it
   saves, so it also gates the hint. *)
let block = 8

(* Job indices by non-increasing PUD, ties by jid. NaN-safe: equal to
   [Float.compare]'s order, off the hot path. *)
let[@inline] pud_before (pud : float array) (jid : int array) x y =
  let px = pud.(x) and py = pud.(y) in
  if px > py then true
  else if px < py then false
  else if px = py then jid.(x) < jid.(y)
  else
    match Float.compare py px with 0 -> jid.(x) < jid.(y) | d -> d < 0

(* Admission ranks by eff_ct ascending, ties by rank: the stable-ECF
   insertion order of the reference schedule. *)
let[@inline] ecf_before (ect : int array) x y =
  let ex = ect.(x) and ey = ect.(y) in
  ex < ey || (ex = ey && x < y)

(* Merge sorts of the int permutation [a.(lo .. hi-1)], with [tmp] as
   the merge buffer: insertion sort on blocks of [block], and a merge
   skipped when its halves are already in order, so a nearly sorted
   input costs about one comparison per element. One copy per order,
   each calling its comparator directly. *)
let rec sort_pud a tmp pud jid lo hi =
  if hi - lo <= block then
    for i = lo + 1 to hi - 1 do
      let x = a.(i) in
      let j = ref (i - 1) in
      while !j >= lo && pud_before pud jid x a.(!j) do
        a.(!j + 1) <- a.(!j);
        decr j
      done;
      a.(!j + 1) <- x
    done
  else begin
    let mid = (lo + hi) / 2 in
    sort_pud a tmp pud jid lo mid;
    sort_pud a tmp pud jid mid hi;
    if pud_before pud jid a.(mid) a.(mid - 1) then begin
      Array.blit a lo tmp lo (mid - lo);
      let i = ref lo and j = ref mid and k = ref lo in
      while !i < mid do
        if !j < hi && pud_before pud jid a.(!j) tmp.(!i) then begin
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

let rec sort_ecf a tmp ect lo hi =
  if hi - lo <= block then
    for i = lo + 1 to hi - 1 do
      let x = a.(i) in
      let j = ref (i - 1) in
      while !j >= lo && ecf_before ect x a.(!j) do
        a.(!j + 1) <- a.(!j);
        decr j
      done;
      a.(!j + 1) <- x
    done
  else begin
    let mid = (lo + hi) / 2 in
    sort_ecf a tmp ect lo mid;
    sort_ecf a tmp ect mid hi;
    if ecf_before ect a.(mid) a.(mid - 1) then begin
      Array.blit a lo tmp lo (mid - lo);
      let i = ref lo and j = ref mid and k = ref lo in
      while !i < mid do
        if !j < hi && ecf_before ect a.(!j) tmp.(!i) then begin
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

(* Maps the previous rebuild's job indices onto this one's — one merge
   walk over the two jid columns, both ascending when the jobs arrays
   come from [Live_view] — and replaces the candidate list with the
   previous PUD order mapped, followed by the candidates it did not
   hold. The walk matches every index at most once whatever the
   columns hold, so the result is always a permutation of the
   candidates. Marks: [s] = candidate, [s + 1] = placed. *)
let warm_pud t ~len ~n =
  let prev_jid = t.prev_jid and jid = t.jid and map = t.map in
  let i = ref 0 and j = ref 0 in
  while !i < t.prev_len && !j < len do
    let a = prev_jid.(!i) and b = jid.(!j) in
    if a = b then begin
      map.(!i) <- !j;
      incr i;
      incr j
    end
    else if a < b then begin
      map.(!i) <- -1;
      incr i
    end
    else incr j
  done;
  for k = !i to t.prev_len - 1 do
    map.(k) <- -1
  done;
  let s = t.stamp in
  let mark = t.mark and cand = t.by_pud and hint = t.tmp in
  for k = 0 to n - 1 do
    mark.(cand.(k)) <- s
  done;
  let m = ref 0 in
  let prev = t.prev_pud in
  for k = 0 to t.prev_m - 1 do
    let x = map.(prev.(k)) in
    if x >= 0 && mark.(x) = s then begin
      mark.(x) <- s + 1;
      hint.(!m) <- x;
      incr m
    end
  done;
  for k = 0 to n - 1 do
    let x = cand.(k) in
    if mark.(x) = s then begin
      mark.(x) <- s + 1;
      hint.(!m) <- x;
      incr m
    end
  done;
  t.by_pud <- hint;
  t.tmp <- cand

(* The previous ECF order mapped to this rebuild's admission ranks,
   followed by the ranks it did not hold. Marks: [s + 1] = candidate,
   [s + 2] = placed. *)
let warm_ecf t ~n =
  let s = t.stamp in
  let map = t.map and mark = t.mark and rank_of = t.rank_of in
  let by_pud = t.by_pud and by_ecf = t.by_ecf and prev = t.prev_ecf in
  let m = ref 0 in
  for k = 0 to t.prev_m - 1 do
    let x = map.(prev.(k)) in
    if x >= 0 && mark.(x) = s + 1 then begin
      mark.(x) <- s + 2;
      by_ecf.(!m) <- rank_of.(x);
      incr m
    end
  done;
  for r = 0 to n - 1 do
    if mark.(by_pud.(r)) = s + 1 then begin
      by_ecf.(!m) <- r;
      incr m
    end
  done

(* Keeps this rebuild's orders as the next one's hint, or none when the
   live set is below the warm-start cutoff. *)
let keep_orders t ~len ~n =
  if n <= block then t.prev_m <- 0
  else begin
    t.prev_jid <- ensure len t.prev_jid;
    t.prev_pud <- ensure n t.prev_pud;
    t.prev_ecf <- ensure n t.prev_ecf;
    Array.blit t.jid 0 t.prev_jid 0 len;
    Array.blit t.by_pud 0 t.prev_pud 0 n;
    let prev_ecf = t.prev_ecf and by_pud = t.by_pud and by_ecf = t.by_ecf in
    for p = 0 to n - 1 do
      prev_ecf.(p) <- by_pud.(by_ecf.(p))
    done;
    t.prev_len <- len;
    t.prev_m <- n
  end

(* --- the rebuild --------------------------------------------------------- *)

let rebuild t charges ~now ~jobs ~n =
  let len = Array.length jobs in
  let warm = n > block && t.prev_m > 0 in
  t.tmp <- ensure n t.tmp;
  t.ect_of_rank <- ensure n t.ect_of_rank;
  t.pos_of_rank <- ensure n t.pos_of_rank;
  t.by_ecf <- ensure n t.by_ecf;
  t.admitted <- ensure_bool n t.admitted;
  if warm then begin
    t.rank_of <- ensure len t.rank_of;
    t.mark <- ensure len t.mark;
    t.map <- ensure t.prev_len t.map;
    t.stamp <- t.stamp + 3;
    warm_pud t ~len ~n
  end;
  let by_pud = t.by_pud in
  sort_pud by_pud t.tmp t.pud t.jid 0 n;
  let ops = (charges.per_job * n) + (n * Log2.ceil (max n 2)) in
  (* Fixed schedule positions: candidates ordered by (eff_ct,
     admission rank). The admitted subset read in position order is
     exactly the reference's stable-ECF schedule. *)
  let ect_of_rank = t.ect_of_rank
  and pos_of_rank = t.pos_of_rank
  and by_ecf = t.by_ecf
  and admitted = t.admitted
  and ect = t.ect in
  if warm then begin
    let rank_of = t.rank_of in
    for r = 0 to n - 1 do
      let x = by_pud.(r) in
      ect_of_rank.(r) <- ect.(x);
      rank_of.(x) <- r
    done;
    warm_ecf t ~n
  end
  else
    for r = 0 to n - 1 do
      ect_of_rank.(r) <- ect.(by_pud.(r));
      by_ecf.(r) <- r
    done;
  sort_ecf by_ecf t.tmp ect_of_rank 0 n;
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
  let rem_of = t.rem in
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
    let pr = Slack_tree.probe tree ~pos:p in
    let slack = ect_of_rank.(r) - pr.Slack_tree.before - rem in
    if slack - now >= 0 && pr.Slack_tree.after >= now + rem then begin
      Slack_tree.admit tree ~rem ~slack;
      admitted.(p) <- true;
      incr admitted_count
    end
  done;
  keep_orders t ~len ~n;
  (* Both lists are built back to front, so neither needs reversing. *)
  let rejected = ref [] in
  for r = n - 1 downto 0 do
    if not admitted.(pos_of_rank.(r)) then
      rejected := t.jid.(by_pud.(r)) :: !rejected
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
