module Job = Rtlf_model.Job

(* The simulator's live-job set, kept jid-sorted at all times so the
   scheduler view needs no per-invocation fold-and-sort. Jids are
   assigned monotonically, so [add] is an O(1) append in the common
   case. [remove] turns its slot into a hole: the job is replaced by a
   dummy (nothing resolved stays reachable) while the slot keeps its
   jid, so the jid column stays strictly increasing and binary search
   still works. Holes are dropped when they would outnumber the live
   jobs (amortised O(1) per removal) and trimmed off the tail at once.
   The scheduler-facing [view] is a trimmed, hole-free copy rebuilt
   only when a dirty flag says the membership changed since the last
   invocation. *)

let dummy = Rtlf_core.Arena.dummy_job

type t = {
  mutable buf : Job.t array; (* slots [0, len); holes hold [dummy] *)
  mutable jids : int array; (* jid of each slot, holes included *)
  mutable len : int;
  mutable count : int; (* non-hole slots *)
  mutable cache : Job.t array; (* snapshot handed to [view] *)
  mutable dirty : bool;
}

let create ?(capacity = 64) () =
  let cap = max capacity 1 in
  {
    buf = Array.make cap dummy;
    jids = Array.make cap 0;
    len = 0;
    count = 0;
    cache = [||];
    dirty = false;
  }

let count t = t.count

(* Index of the first slot whose jid is >= [jid]. *)
let lower_bound t jid =
  let lo = ref 0 and hi = ref t.len in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if t.jids.(mid) < jid then lo := mid + 1 else hi := mid
  done;
  !lo

let present t i jid = i < t.len && t.jids.(i) = jid && t.buf.(i) != dummy

(* Squeeze the holes out, keeping slot order. *)
let compact t =
  let k = ref 0 in
  for i = 0 to t.len - 1 do
    let j = t.buf.(i) in
    if j != dummy then begin
      if !k < i then begin
        t.buf.(!k) <- j;
        t.jids.(!k) <- t.jids.(i)
      end;
      incr k
    end
  done;
  Array.fill t.buf !k (t.len - !k) dummy;
  t.len <- !k

let ensure_capacity t =
  let cap = Array.length t.buf in
  if t.len = cap then begin
    let nbuf = Array.make (cap * 2) dummy in
    let njids = Array.make (cap * 2) 0 in
    Array.blit t.buf 0 nbuf 0 t.len;
    Array.blit t.jids 0 njids 0 t.len;
    t.buf <- nbuf;
    t.jids <- njids
  end

let add t job =
  let jid = job.Job.jid in
  if t.len = 0 || t.jids.(t.len - 1) < jid then begin
    (* Monotone jids: the hot path. *)
    ensure_capacity t;
    t.buf.(t.len) <- job;
    t.jids.(t.len) <- jid;
    t.len <- t.len + 1
  end
  else begin
    let i = lower_bound t jid in
    if t.jids.(i) = jid then begin
      if t.buf.(i) != dummy then invalid_arg "Live_view.add: duplicate jid";
      (* Refill the hole this jid left. *)
      t.buf.(i) <- job
    end
    else begin
      ensure_capacity t;
      Array.blit t.buf i t.buf (i + 1) (t.len - i);
      Array.blit t.jids i t.jids (i + 1) (t.len - i);
      t.buf.(i) <- job;
      t.jids.(i) <- jid;
      t.len <- t.len + 1
    end
  end;
  t.count <- t.count + 1;
  t.dirty <- true

let find t ~jid =
  let i = lower_bound t jid in
  if present t i jid then Some t.buf.(i) else None

let mem t ~jid = present t (lower_bound t jid) jid

let remove t ~jid =
  let i = lower_bound t jid in
  if present t i jid then begin
    t.buf.(i) <- dummy;
    t.count <- t.count - 1;
    t.dirty <- true;
    if i = t.len - 1 then
      while t.len > 0 && t.buf.(t.len - 1) == dummy do
        t.len <- t.len - 1
      done
    else if t.len - t.count > t.count then compact t
  end

let view t =
  if t.dirty then begin
    t.cache <-
      (if t.count = t.len then Array.sub t.buf 0 t.len
       else begin
         let a = Array.make t.count dummy in
         let k = ref 0 in
         for i = 0 to t.len - 1 do
           let j = t.buf.(i) in
           if j != dummy then begin
             a.(!k) <- j;
             incr k
           end
         done;
         a
       end);
    t.dirty <- false
  end;
  t.cache

let iter f t =
  for i = 0 to t.len - 1 do
    let j = t.buf.(i) in
    if j != dummy then f j
  done
