module Job = Rtlf_model.Job

(* A loop over local refs rather than a fold over a (time, utility)
   pair, so that the accumulators stay unboxed; the utilities are still
   added head to tail, from 0.0. *)
let of_chain ~now ~remaining chain =
  if chain = [] then invalid_arg "Pud.of_chain: empty chain";
  let finish = ref now and total_utility = ref 0.0 and rest = ref chain in
  while
    match !rest with
    | [] -> false
    | job :: tl ->
      finish := !finish + remaining job;
      total_utility := !total_utility +. Job.utility_at job ~now:!finish;
      rest := tl;
      true
  do
    ()
  done;
  let span = !finish - now in
  if span <= 0 then infinity
  else !total_utility /. float_of_int span

(* Equivalent to [of_chain ~now ~remaining [job]] but allocation-free:
   the schedulers call this once per live job per invocation. *)
let of_rem ~now ~rem job =
  let finish = now + rem in
  let utility = Job.utility_at job ~now:finish in
  let span = finish - now in
  if span <= 0 then infinity else utility /. float_of_int span

let of_job ~now ~remaining job = of_rem ~now ~rem:(remaining job) job
