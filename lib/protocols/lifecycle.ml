type payload_fn = (int -> int) -> (int * int) list

(* --- copy resolution ------------------------------------------------------ *)

(* Read-one/write-all: the copy nearest the issuing site for each read
   item, every copy of each written item. *)
let reads_with rt (txn : Ccdb_model.Txn.t) f =
  let catalog = Runtime.catalog rt in
  List.map
    (fun item ->
      f item (Ccdb_storage.Catalog.read_site catalog ~preferred:txn.site item))
    txn.read_set

let writes_with rt (txn : Ccdb_model.Txn.t) f =
  let catalog = Runtime.catalog rt in
  List.concat_map
    (fun item ->
      List.map (f item) (Ccdb_storage.Catalog.copies catalog item))
    txn.write_set

let read_copies rt txn = reads_with rt txn (fun item site -> (item, site))
let write_copies rt txn = writes_with rt txn (fun item site -> (item, site))

let copies rt txn =
  reads_with rt txn (fun item site -> (item, site, Ccdb_model.Op.Read))
  @ writes_with rt txn (fun item site -> (item, site, Ccdb_model.Op.Write))

(* --- write values --------------------------------------------------------- *)

let writes payload (txn : Ccdb_model.Txn.t) ~reads =
  match payload with
  | Some f ->
    f (fun item -> match List.assoc_opt item reads with Some v -> v | None -> 0)
  | None -> List.map (fun item -> (item, txn.id)) txn.write_set

let value_for (txn : Ccdb_model.Txn.t) writes item =
  match List.assoc_opt item writes with Some v -> v | None -> txn.id

(* --- per-copy queues ------------------------------------------------------ *)

type 'q queues = { make : unit -> 'q; table : (int * int, 'q) Hashtbl.t }

let queues make = { make; table = Hashtbl.create 64 }

let queue qs copy =
  match Hashtbl.find_opt qs.table copy with
  | Some q -> q
  | None ->
    let q = qs.make () in
    Hashtbl.add qs.table copy q;
    q

let fold_queues qs f acc = Hashtbl.fold f qs.table acc

let fold_site qs ~site f acc =
  Hashtbl.fold
    (fun ((_, s) as copy) q acc -> if s = site then f copy q acc else acc)
    qs.table acc

(* --- live transactions ---------------------------------------------------- *)

type detector = Central of Deadlock.t | Probing of Edge_chasing.t

type 'st t = {
  rt : Runtime.t;
  name : string;
  txn_of : 'st -> Ccdb_model.Txn.t;
  states : (int, 'st) Hashtbl.t;
  mutable active : int;
  mutable detector : detector option;
  mutable committer : Commit.t option; (* durable runtimes only *)
}

let create rt ~name ~txn =
  { rt; name; txn_of = txn; states = Hashtbl.create 64; active = 0;
    detector = None; committer = None }

let find lc id = Hashtbl.find_opt lc.states id
let active lc = lc.active

let admit lc (txn : Ccdb_model.Txn.t) make =
  if Hashtbl.mem lc.states txn.id then
    invalid_arg (lc.name ^ ".submit: duplicate transaction id");
  let st = make () in
  Hashtbl.add lc.states txn.id st;
  lc.active <- lc.active + 1;
  Runtime.track lc.rt txn.id;
  st

let commit ?(keep = false) lc st ~submitted_at ~executed_at ~restarts =
  let txn = lc.txn_of st in
  Runtime.emit lc.rt
    (Runtime.Txn_committed { txn; submitted_at; executed_at; restarts });
  if not keep then Hashtbl.remove lc.states txn.id;
  lc.active <- lc.active - 1;
  if lc.active = 0 then
    match lc.detector with
    | Some (Central d) -> Deadlock.stop d
    | Some (Probing _) | None -> ()

let forget lc id = Hashtbl.remove lc.states id

let schedule_restart lc ~site ~base ~attempt f =
  ignore
    (Ccdb_sim.Engine.schedule (Runtime.engine lc.rt)
       ~after:(Runtime.restart_backoff lc.rt ~site ~base ~attempt) f)

(* --- faults --------------------------------------------------------------- *)

(* Crash cleanup restarts the victims in id order, each looked up again
   since an earlier restart may have moved it on. *)
let restart_on_faults lc ~restartable ~touches ~restart =
  Runtime.on_site_crash lc.rt (fun site ->
      Hashtbl.fold
        (fun id st acc ->
          if
            restartable st
            && ((lc.txn_of st).Ccdb_model.Txn.site = site || touches st site)
          then id :: acc
          else acc)
        lc.states []
      |> List.sort Int.compare
      |> List.iter (fun id ->
             match find lc id with Some st -> restart st | None -> ()));
  Runtime.on_stall lc.rt (fun id ->
      match find lc id with
      | Some st when restartable st -> restart st
      | Some _ | None -> ())

let on_wipe ?(announce = true) lc qs ~drop ~kept =
  if Runtime.durable lc.rt then
    Runtime.on_site_wipe lc.rt (fun site ->
        fold_site qs ~site
          (fun (item, _) q (dropped, preserved) ->
            let gone = drop q in
            if announce then
              List.iter
                (fun txn ->
                  Runtime.emit lc.rt
                    (Runtime.Request_dropped
                       { txn; item; site; at = Runtime.now lc.rt }))
                gone;
            (dropped + List.length gone, preserved + kept q))
          (0, 0))

let durable_commit lc ~apply ~commit_point =
  if Runtime.durable lc.rt then
    lc.committer <-
      Some
        (Commit.create lc.rt
           { Commit.apply;
             commit_point =
               (fun ~txn ->
                 match find lc txn with
                 | Some st -> commit_point st
                 | None -> ()) })

let committer lc = lc.committer

let by_site pairs =
  let groups = ref [] in
  List.iter
    (fun (site, x) ->
      match List.assoc_opt site !groups with
      | Some r -> r := x :: !r
      | None -> groups := (site, ref [ x ]) :: !groups)
    pairs;
  List.sort (fun (a, _) (b, _) -> Int.compare a b) !groups
  |> List.map (fun (site, r) -> (site, List.rev !r))

(* --- deadlock detection --------------------------------------------------- *)

type 'st waits = {
  waiting : 'st -> bool;
  restarting : 'st -> bool;
  pick : int list -> int option;
  blocked : 'st -> bool;
  pending_sites : 'st -> int list;
  may_initiate : 'st -> bool;
  abort : 'st -> unit;
}

let detect lc detection qs ~waits_for w =
  let rt = lc.rt in
  let holds id p = match find lc id with Some st -> p st | None -> false in
  let abort id = match find lc id with Some st -> w.abort st | None -> () in
  let deadlock cycle victim =
    Runtime.emit rt
      (Runtime.Deadlock_detected { cycle; victim; at = Runtime.now rt })
  in
  let detector =
    match detection with
    | Deadlock.Centralized { interval; detector_site } ->
      Central
        (Deadlock.create_centralized ~engine:(Runtime.engine rt)
           ~net:(Runtime.net rt) ~interval ~detector_site
           ~edges:(fun () ->
             fold_queues qs (fun _ q acc -> waits_for q @ acc) [])
           ~choose_victim:(fun cycle ->
             (* the cycle is already being broken by an earlier victim *)
             let victim =
               if List.exists (fun id -> holds id w.restarting) cycle then None
               else w.pick cycle
             in
             deadlock cycle victim;
             victim)
           ~victim_site:(fun id ->
             match find lc id with
             | Some st when w.waiting st -> Some (lc.txn_of st).site
             | Some _ | None -> None)
           ~abort)
    | Deadlock.Edge_chasing { probe_delay } ->
      Probing
        (Edge_chasing.create (Runtime.engine rt) (Runtime.net rt)
           { Edge_chasing.probe_delay }
           { Edge_chasing.is_waiting = (fun id -> holds id w.blocked);
             home_site =
               (fun id ->
                 match find lc id with
                 | Some st -> Some (lc.txn_of st).site
                 | None -> None);
             pending_sites =
               (fun id ->
                 match find lc id with
                 | Some st -> w.pending_sites st
                 | None -> []);
             local_waits_on =
               (fun ~site ~txn ->
                 fold_site qs ~site
                   (fun _ q acc ->
                     List.fold_left
                       (fun acc (waiter, holder) ->
                         if waiter = txn then holder :: acc else acc)
                       acc (waits_for q))
                   []
                 |> List.sort_uniq Int.compare);
             may_initiate = (fun id -> holds id w.may_initiate);
             on_deadlock =
               (fun initiator ->
                 deadlock [ initiator ] (Some initiator);
                 abort initiator) })
  in
  lc.detector <- Some detector

let start_detector lc =
  match lc.detector with
  | Some (Central d) -> Deadlock.start d
  | Some (Probing _) | None -> ()

let notify_blocked lc id =
  match lc.detector with
  | Some (Probing ec) -> Edge_chasing.txn_blocked ec id
  | Some (Central _) | None -> ()

let notify_unblocked lc id =
  match lc.detector with
  | Some (Probing ec) -> Edge_chasing.txn_unblocked ec id
  | Some (Central _) | None -> ()

let notify_progress lc id =
  match lc.detector with
  | Some (Probing ec) -> Edge_chasing.txn_progress ec id
  | Some (Central _) | None -> ()

let detector_cycles lc =
  match lc.detector with
  | Some (Central d) -> Deadlock.cycles_found d
  | Some (Probing ec) -> Edge_chasing.deadlocks_found ec
  | None -> 0
