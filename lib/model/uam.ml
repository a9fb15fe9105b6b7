module Prng = Rtlf_engine.Prng

type t = { l : int; a : int; w : int }

let make ~l ~a ~w =
  if w <= 0 then invalid_arg "Uam.make: w must be positive";
  if a < 1 then invalid_arg "Uam.make: a must be at least 1";
  if l < 0 || l > a then invalid_arg "Uam.make: need 0 <= l <= a";
  { l; a; w }

let periodic ~period = make ~l:1 ~a:1 ~w:period
let bursty ~a ~w = make ~l:1 ~a ~w

let ceil_div num den = (num + den - 1) / den

let max_arrivals_in law ~span =
  if span <= 0 then law.a
  else law.a * (ceil_div span law.w + 1)

let min_arrivals_in law ~span =
  if span <= 0 then 0 else law.l * (span / law.w)

(* Next arrival must be
   - at or after [times[n-a] + w]  (max side), and
   - at or before [times[n-l] + w] (min side, l >= 1),
   where times is the history so far. A stepper keeps the last [a]
   arrival times in a circular buffer (arrival [k] in slot [k mod a])
   and draws one arrival per [next]. *)
type stepper = {
  law : t;
  g : Prng.t;
  start : int;
  horizon : int;
  hist : int array;
  mutable count : int;
  mutable last : int;
  mutable stopped : bool;
}

let stepper law g ~start ~horizon =
  {
    law;
    g;
    start;
    horizon;
    hist = Array.make law.a start;
    count = 0;
    last = start;
    stopped = horizon <= start;
  }

let next s =
  if s.stopped then None
  else begin
    let law = s.law in
    let lo =
      (* Never travel back in time: arrivals may coincide with the
         previous one but not precede it. *)
      max s.last
        (if s.count >= law.a then s.hist.((s.count - law.a) mod law.a) + law.w
         else s.start)
    in
    let hi_min =
      if law.l >= 1 && s.count >= law.l then
        s.hist.((s.count - law.l) mod law.a) + law.w
      else if s.count = 0 then s.start + law.w - 1
      else max_int
    in
    let hi = min hi_min (s.horizon - 1) in
    if lo >= s.horizon || hi < lo then begin
      s.stopped <- true;
      None
    end
    else begin
      let time = Prng.int_in s.g ~lo ~hi in
      s.hist.(s.count mod law.a) <- time;
      s.last <- time;
      s.count <- s.count + 1;
      Some time
    end
  end

let generate law g ~start ~horizon =
  let s = stepper law g ~start ~horizon in
  let rec go acc =
    match next s with None -> List.rev acc | Some time -> go (time :: acc)
  in
  go []

let generate_worst_burst law ~start ~horizon =
  let rec windows t acc =
    if t >= horizon then List.rev acc
    else
      let burst = List.init law.a (fun _ -> t) in
      windows (t + law.w) (List.rev_append burst acc)
  in
  windows start []

let validate law trace =
  let arr = Array.of_list trace in
  let n = Array.length arr in
  let rec sorted i =
    if i >= n then true
    else if arr.(i) < arr.(i - 1) then false
    else sorted (i + 1)
  in
  if n > 1 && not (sorted 1) then Error "trace is not sorted"
  else begin
    let err = ref None in
    (* Max side: t[k + a] - t[k] >= w. *)
    let k = ref 0 in
    while !err = None && !k + law.a < n do
      if arr.(!k + law.a) - arr.(!k) < law.w then
        err :=
          Some
            (Printf.sprintf
               "max side violated: arrivals %d..%d span %d < w=%d" !k
               (!k + law.a)
               (arr.(!k + law.a) - arr.(!k))
               law.w);
      incr k
    done;
    (* Min side: t[k + l] - t[k] <= w, for l >= 1. *)
    if !err = None && law.l >= 1 then begin
      let k = ref 0 in
      while !err = None && !k + law.l < n do
        if arr.(!k + law.l) - arr.(!k) > law.w then
          err :=
            Some
              (Printf.sprintf
                 "min side violated: arrivals %d..%d span %d > w=%d" !k
                 (!k + law.l)
                 (arr.(!k + law.l) - arr.(!k))
                 law.w);
        incr k
      done
    end;
    match !err with None -> Ok () | Some msg -> Error msg
  end

let pp fmt law = Format.fprintf fmt "<%d,%d,%d>" law.l law.a law.w
