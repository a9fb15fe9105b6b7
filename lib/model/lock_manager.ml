type t = {
  objects : Resource.t;
  owners : (int, int) Hashtbl.t;          (* obj -> jid *)
  held : (int, int list) Hashtbl.t;       (* jid -> objs, newest first *)
  waits : (int, int) Hashtbl.t;           (* jid -> obj *)
  queues : (int, int list) Hashtbl.t;     (* obj -> FIFO of waiting jids *)
}

type grant = Granted | Blocked_on of int

let create ~objects =
  {
    objects;
    owners = Hashtbl.create 16;
    held = Hashtbl.create 16;
    waits = Hashtbl.create 16;
    queues = Hashtbl.create 16;
  }

let owner tbl ~obj =
  Resource.check tbl.objects obj;
  Hashtbl.find_opt tbl.owners obj

let holding tbl ~jid =
  match Hashtbl.find_opt tbl.held jid with Some objs -> objs | None -> []

let waiting_for tbl ~jid = Hashtbl.find_opt tbl.waits jid

let has_waiters tbl = Hashtbl.length tbl.waits > 0

let waiters tbl ~obj =
  Resource.check tbl.objects obj;
  match Hashtbl.find_opt tbl.queues obj with Some q -> q | None -> []

let set_holding tbl ~jid objs =
  if objs = [] then Hashtbl.remove tbl.held jid
  else Hashtbl.replace tbl.held jid objs

let grant_to tbl ~jid ~obj =
  Hashtbl.replace tbl.owners obj jid;
  set_holding tbl ~jid (obj :: holding tbl ~jid)

let request tbl ~jid ~obj =
  Resource.check tbl.objects obj;
  match Hashtbl.find_opt tbl.owners obj with
  | None ->
    grant_to tbl ~jid ~obj;
    Granted
  | Some holder when holder = jid -> Granted
  | Some holder ->
    Hashtbl.replace tbl.waits jid obj;
    Hashtbl.replace tbl.queues obj (waiters tbl ~obj @ [ jid ]);
    Blocked_on holder

let release tbl ~jid ~obj =
  Resource.check tbl.objects obj;
  (match Hashtbl.find_opt tbl.owners obj with
  | Some holder when holder = jid -> ()
  | _ ->
    invalid_arg
      (Printf.sprintf "Lock_manager.release: job %d does not hold %d" jid
         obj));
  Hashtbl.remove tbl.owners obj;
  set_holding tbl ~jid (List.filter (fun o -> o <> obj) (holding tbl ~jid));
  match waiters tbl ~obj with
  | [] ->
    Hashtbl.remove tbl.queues obj;
    None
  | next :: rest ->
    if rest = [] then Hashtbl.remove tbl.queues obj
    else Hashtbl.replace tbl.queues obj rest;
    Hashtbl.remove tbl.waits next;
    grant_to tbl ~jid:next ~obj;
    Some next

let cancel_wait tbl ~jid =
  match Hashtbl.find_opt tbl.waits jid with
  | None -> ()
  | Some obj ->
    Hashtbl.remove tbl.waits jid;
    let q = List.filter (fun j -> j <> jid) (waiters tbl ~obj) in
    if q = [] then Hashtbl.remove tbl.queues obj
    else Hashtbl.replace tbl.queues obj q

let release_all tbl ~jid =
  cancel_wait tbl ~jid;
  let objs = holding tbl ~jid in
  List.map (fun obj -> (obj, release tbl ~jid ~obj)) objs

(* Follow jid -> waited object -> owner -> ... edges. *)
let rec walk tbl ~jid visited acc =
  if List.mem jid visited then (acc, Some jid)
  else
    match waiting_for tbl ~jid with
    | None -> (jid :: acc, None)
    | Some obj -> (
      match Hashtbl.find_opt tbl.owners obj with
      | None -> (jid :: acc, None)
      | Some holder -> walk tbl ~jid:holder (jid :: visited) (jid :: acc))

let dependency_chain tbl ~jid =
  let chain_tail_first, _cycle = walk tbl ~jid [] [] in
  (* walk accumulates tail-first reversed: acc ends with the head job
     first element? We pushed jid before recursing, so acc is
     [holder_k; ...; jid] reversed at the end — the deepest owner is
     pushed last, giving head-first order directly. *)
  chain_tail_first

let find_cycle tbl ~jid =
  let rec go j visited =
    match waiting_for tbl ~jid:j with
    | None -> None
    | Some obj -> (
      match Hashtbl.find_opt tbl.owners obj with
      | None -> None
      | Some holder ->
        if List.mem holder (j :: visited) then begin
          (* Cycle members: the suffix of the walk from [holder]. *)
          let rec suffix = function
            | [] -> []
            | x :: rest -> if x = holder then [ x ] else x :: suffix rest
          in
          Some (List.rev (suffix (j :: visited)))
        end
        else go holder (j :: visited))
  in
  go jid []

let blocked_jobs tbl = Hashtbl.fold (fun jid _ acc -> jid :: acc) tbl.waits []

let assert_consistent tbl =
  Hashtbl.iter
    (fun obj jid ->
      assert (List.mem obj (holding tbl ~jid));
      assert (waiting_for tbl ~jid <> Some obj))
    tbl.owners;
  Hashtbl.iter
    (fun jid obj ->
      assert (Hashtbl.mem tbl.owners obj);
      assert (List.mem jid (waiters tbl ~obj)))
    tbl.waits;
  Hashtbl.iter
    (fun obj q ->
      assert (Hashtbl.mem tbl.owners obj || q = []);
      List.iter (fun jid -> assert (waiting_for tbl ~jid = Some obj)) q)
    tbl.queues
