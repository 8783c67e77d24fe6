type config = { backoff_interval : int }

let default_config = { backoff_interval = 8 }

type slot = Waiting | Granted of int | Backed of int

type phase = Negotiating | Computing | Done

type txn_state = {
  txn : Ccdb_model.Txn.t;
  payload : Lifecycle.payload_fn option;
  submitted_at : float;
  mutable ts : int;            (* current timestamp (TS, then TS') *)
  mutable backed_off : bool;   (* already in phase 2 *)
  mutable phase : phase;
  mutable slots : ((int * int) * slot) list;
  mutable reads : (int * int) list;
  mutable executed : float;
}

type t = {
  rt : Runtime.t;
  config : config;
  queues : Pa_queue.t Lifecycle.queues;
  lc : txn_state Lifecycle.t;
}

let set_slot st copy slot =
  st.slots <- List.map (fun (c, s) -> if c = copy then (c, slot) else (c, s)) st.slots

(* --- grant pump -------------------------------------------------------- *)

let rec pump t ((item, site) as copy) =
  let q = Lifecycle.queue t.queues copy in
  let newly = Pa_queue.grant_ready q ~now:(Runtime.now t.rt) in
  let store = Runtime.store t.rt in
  List.iter
    (fun (e : Pa_queue.entry) ->
      Runtime.emit t.rt
        (Runtime.Lock_granted
           { txn = e.txn; protocol = Ccdb_model.Protocol.Pa; op = e.op; item;
             site;
             mode =
               Some
                 (match e.op with
                  | Ccdb_model.Op.Read -> Ccdb_model.Lock.Rl
                  | Ccdb_model.Op.Write -> Ccdb_model.Lock.Wl);
             schedule = Ccdb_model.Lock.Normal; ts = Some e.ts;
             at = Runtime.now t.rt });
      let value = Ccdb_storage.Store.read store ~item ~site in
      let ts = e.ts in
      Ccdb_sim.Net.send (Runtime.net t.rt) ~src:site ~dst:e.site
        ~kind:"pa-grant" (fun () -> on_grant t e.txn ~ts copy value))
    newly

and on_grant t txn_id ~ts copy value =
  match Lifecycle.find t.lc txn_id with
  | None -> ()
  | Some st ->
    if st.ts = ts && st.phase = Negotiating then begin
      set_slot st copy (Granted value);
      check_negotiation t st
    end

and on_backoff t txn_id ~ts ~op copy ts' =
  match Lifecycle.find t.lc txn_id with
  | None -> ()
  | Some st ->
    if st.ts = ts && st.phase = Negotiating then begin
      Runtime.emit t.rt
        (Runtime.Pa_backoff { txn = txn_id; op; at = Runtime.now t.rt });
      set_slot st copy (Backed ts');
      check_negotiation t st
    end

and check_negotiation t st =
  let undecided = List.exists (fun (_, s) -> s = Waiting) st.slots in
  if not undecided then begin
    let backs =
      List.filter_map
        (fun (_, s) -> match s with Backed ts' -> Some ts' | _ -> None)
        st.slots
    in
    match backs with
    | [] -> start_compute t st
    | _ :: _ ->
      (* phase 2: agree on TS' = max over the back-off timestamps and update
         every queue; everything re-enters Waiting *)
      assert (not st.backed_off);
      st.backed_off <- true;
      let ts' = List.fold_left max st.ts backs in
      st.ts <- ts';
      st.slots <- List.map (fun (c, _) -> (c, Waiting)) st.slots;
      st.reads <- [];
      List.iter
        (fun ((item, site), _) ->
          Ccdb_sim.Net.send (Runtime.net t.rt) ~src:st.txn.site ~dst:site
            ~kind:"pa-update" (fun () ->
              (match
                 Pa_queue.update_ts
                   (Lifecycle.queue t.queues (item, site))
                   ~txn:st.txn.id ~ts:ts'
               with
               | (`Moved | `Revoked | `Absent) as r ->
                 if r <> `Absent then
                   Runtime.emit t.rt
                     (Runtime.Ts_updated
                        { txn = st.txn.id; item; site; ts = ts';
                          revoked = (r = `Revoked); at = Runtime.now t.rt }));
              pump t (item, site)))
        st.slots
  end

and start_compute t st =
  (* harvest the read values from the grant slots *)
  let copies = Lifecycle.copies t.rt st.txn in
  List.iter
    (fun (item, site, _) ->
      match List.assoc_opt (item, site) st.slots with
      | Some (Granted v) ->
        if not (List.mem_assoc item st.reads) then
          st.reads <- (item, v) :: st.reads
      | Some (Waiting | Backed _) | None -> assert false)
    copies;
  st.phase <- Computing;
  ignore
    (Ccdb_sim.Engine.schedule (Runtime.engine t.rt) ~after:st.txn.compute_time
       (fun () -> finish t st))

and finish t st =
  let txn = st.txn in
  let value_for =
    Lifecycle.value_for txn (Lifecycle.writes st.payload txn ~reads:st.reads)
  in
  st.phase <- Done;
  st.executed <- Runtime.now t.rt;
  match Lifecycle.committer t.lc with
  | Some c ->
    (* durable: releases wait for the presumed-abort 2PC decision *)
    let participants =
      Lifecycle.by_site
        (List.map
           (fun (item, site, op) ->
             let value =
               match op with
               | Ccdb_model.Op.Write -> Some (value_for item)
               | Ccdb_model.Op.Read -> None
             in
             (site,
              { Ccdb_storage.Wal.item; op; value; attempt = 0;
                granted_at = 0. }))
           (Lifecycle.copies t.rt txn))
    in
    Commit.commit c ~txn:txn.id ~home:txn.site ~participants
  | None ->
    List.iter
      (fun (item, site, op) ->
        let wvalue =
          match op with
          | Ccdb_model.Op.Write -> Some (value_for item)
          | Ccdb_model.Op.Read -> None
        in
        Ccdb_sim.Net.send (Runtime.net t.rt) ~src:txn.site ~dst:site
          ~kind:"pa-release" (fun () ->
            on_release t (item, site) txn.id op wvalue))
      (Lifecycle.copies t.rt txn);
    commit_txn t st

and commit_txn t st =
  Lifecycle.commit t.lc st ~submitted_at:st.submitted_at
    ~executed_at:st.executed ~restarts:0

and on_release t ((item, site) as copy) txn_id op wvalue =
  match Pa_queue.release (Lifecycle.queue t.queues copy) ~txn:txn_id with
  | None -> ()
  | Some entry ->
    let store = Runtime.store t.rt in
    let at = Runtime.now t.rt in
    (* PA operations are implemented at lock release (section 4.3) *)
    (match op, wvalue with
     | Ccdb_model.Op.Write, Some value ->
       Ccdb_storage.Store.apply_write store ~item ~site ~txn:txn_id ~value ~at
     | Ccdb_model.Op.Write, None -> assert false
     | Ccdb_model.Op.Read, _ ->
       Ccdb_storage.Store.log_read store ~item ~site ~txn:txn_id ~at);
    Runtime.emit t.rt
      (Runtime.Lock_released
         { txn = txn_id; protocol = Ccdb_model.Protocol.Pa; op; item; site;
           granted_at = entry.granted_at; at; aborted = false;
           ts = Some entry.ts });
    pump t copy

(* --- submission --------------------------------------------------------- *)

let submit t ?payload txn =
  let copies = Lifecycle.copies t.rt txn in
  let st =
    Lifecycle.admit t.lc txn (fun () ->
        { txn; payload; submitted_at = Runtime.now t.rt;
          ts = Ccdb_model.Timestamp.Source.next (Runtime.ts_source t.rt);
          backed_off = false; phase = Negotiating;
          slots =
            List.map (fun (item, site, _) -> ((item, site), Waiting)) copies;
          reads = []; executed = 0. })
  in
  let ts = st.ts in
  let interval = t.config.backoff_interval in
  List.iter
    (fun (item, site, op) ->
      Ccdb_sim.Net.send (Runtime.net t.rt) ~src:txn.site ~dst:site
        ~kind:"pa-req" (fun () ->
          let q = Lifecycle.queue t.queues (item, site) in
          let verdict =
            Pa_queue.request q ~txn:txn.id ~site:txn.site ~ts ~interval ~op
          in
          Runtime.emit t.rt
            (Runtime.Lock_requested
               { txn = txn.id; protocol = Ccdb_model.Protocol.Pa; op; item;
                 site; origin = txn.site; ts = Some ts;
                 outcome =
                   (match verdict with
                    | Pa_queue.Accepted -> Runtime.Req_admitted
                    | Pa_queue.Backoff ts' -> Runtime.Req_backoff ts');
                 at = Runtime.now t.rt });
          (match verdict with
           | Pa_queue.Accepted -> ()
           | Pa_queue.Backoff ts' ->
             Ccdb_sim.Net.send (Runtime.net t.rt) ~src:site ~dst:txn.site
               ~kind:"pa-backoff" (fun () ->
                 on_backoff t txn.id ~ts ~op (item, site) ts'));
          pump t (item, site)))
    copies

let create ?(config = default_config) rt =
  let t =
    { rt; config; queues = Lifecycle.queues Pa_queue.create;
      lc = Lifecycle.create rt ~name:"Pa_system" ~txn:(fun st -> st.txn) }
  in
  (* Fail-stop wipe: every PA entry survives — admissions and back-offs were
     acknowledged during negotiation (Corollary 1 forbids dropping them into
     a restart) — so the wipe only reports preserved counts. *)
  Lifecycle.on_wipe t.lc t.queues ~drop:(fun _ -> [])
    ~kept:(fun q -> List.length (Pa_queue.entries q));
  Lifecycle.durable_commit t.lc
    ~apply:(fun ~txn ~site actions ->
      List.iter
        (fun (a : Ccdb_storage.Wal.action) ->
          on_release t (a.item, site) txn a.op a.value)
        actions)
    ~commit_point:(commit_txn t);
  t

let active t = Lifecycle.active t.lc
