module Job = Rtlf_model.Job

let of_chain ~now ~remaining chain =
  if chain = [] then invalid_arg "Pud.of_chain: empty chain";
  let finish, total_utility =
    List.fold_left
      (fun (t, u) job ->
        let t = t + remaining job in
        (t, u +. Job.utility_at job ~now:t))
      (now, 0.0) chain
  in
  let span = finish - now in
  if span <= 0 then infinity
  else total_utility /. float_of_int span

(* Equivalent to [of_chain ~now ~remaining [job]] but allocation-free:
   the schedulers call this once per live job per invocation. *)
let of_rem ~now ~rem job =
  let finish = now + rem in
  let utility = Job.utility_at job ~now:finish in
  let span = finish - now in
  if span <= 0 then infinity else utility /. float_of_int span

let of_job ~now ~remaining job = of_rem ~now ~rem:(remaining job) job
