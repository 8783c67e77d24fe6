type config = { restart_delay : float }

let default_config = { restart_delay = 50. }

type phase = Reading | Computing | Prewriting | Done

type txn_state = {
  txn : Ccdb_model.Txn.t;
  submitted_at : float;
  mutable ts : int;
  mutable restarts : int;
  mutable phase : phase;
  mutable awaiting : (int * int) list;
}

type read_record = {
  r_copy : int * int;
  r_ts : int;
  r_value : int;
}

type t = {
  rt : Runtime.t;
  config : config;
  queues : Mvto_queue.t Lifecycle.queues;
  lc : txn_state Lifecycle.t;
  mutable committed_reads : read_record list;
  (* reads observed per attempt, promoted to committed_reads at commit *)
  pending_reads : (int, read_record list) Hashtbl.t;
}

let record_read t ~txn_id record =
  let cur = Option.value ~default:[] (Hashtbl.find_opt t.pending_reads txn_id) in
  Hashtbl.replace t.pending_reads txn_id (record :: cur)

let emit_op t ~txn_id ~op ~item ~site =
  Runtime.emit t.rt
    (Runtime.Lock_granted
       { txn = txn_id; protocol = Ccdb_model.Protocol.T_o; op; item; site;
         mode = None; schedule = Ccdb_model.Lock.Normal; ts = None;
         at = Runtime.now t.rt })

(* deliver a read value home (skipped for a superseded attempt) *)
let rec send_value t ((item, site) as copy) ~reader ~ts ~value =
  match Lifecycle.find t.lc reader with
  | Some st when st.ts = ts ->
    emit_op t ~txn_id:reader ~op:Ccdb_model.Op.Read ~item ~site;
    record_read t ~txn_id:reader
      { r_copy = copy; r_ts = ts; r_value = value };
    Ccdb_sim.Net.send (Runtime.net t.rt) ~src:site ~dst:st.txn.site
      ~kind:"mv-val" (fun () -> on_read_value t reader ~ts copy)
  | Some _ | None -> ()

and drain t copy =
  List.iter
    (fun (reader, ts, value) -> send_value t copy ~reader ~ts ~value)
    (Mvto_queue.drain_reads (Lifecycle.queue t.queues copy))

and on_read_value t txn_id ~ts copy =
  match Lifecycle.find t.lc txn_id with
  | None -> ()
  | Some st ->
    if st.ts = ts && st.phase = Reading && List.mem copy st.awaiting then begin
      st.awaiting <- List.filter (fun c -> c <> copy) st.awaiting;
      if st.awaiting = [] then start_compute t st
    end

and start_compute t st =
  st.phase <- Computing;
  ignore
    (Ccdb_sim.Engine.schedule (Runtime.engine t.rt) ~after:st.txn.compute_time
       (fun () -> send_prewrites t st))

and send_prewrites t st =
  let txn = st.txn in
  if txn.write_set = [] then commit t st
  else begin
    st.phase <- Prewriting;
    let copies = Lifecycle.write_copies t.rt txn in
    st.awaiting <- copies;
    let ts = st.ts in
    List.iter
      (fun ((_item, site) as copy) ->
        Ccdb_sim.Net.send (Runtime.net t.rt) ~src:txn.site ~dst:site
          ~kind:"mv-prewrite" (fun () ->
            let q = Lifecycle.queue t.queues copy in
            match Mvto_queue.prewrite q ~txn:txn.id ~ts with
            | Mvto_queue.W_rejected ->
              Ccdb_sim.Net.send (Runtime.net t.rt) ~src:site ~dst:txn.site
                ~kind:"mv-reject" (fun () -> on_reject t txn.id ~ts copy)
            | Mvto_queue.W_accepted ->
              Ccdb_sim.Net.send (Runtime.net t.rt) ~src:site ~dst:txn.site
                ~kind:"mv-ack" (fun () -> on_prewrite_ack t txn.id ~ts copy)))
      copies
  end

and on_prewrite_ack t txn_id ~ts copy =
  match Lifecycle.find t.lc txn_id with
  | None -> ()
  | Some st ->
    if st.ts = ts && st.phase = Prewriting && List.mem copy st.awaiting
    then begin
      st.awaiting <- List.filter (fun c -> c <> copy) st.awaiting;
      if st.awaiting = [] then commit t st
    end

and commit t st =
  let txn = st.txn in
  st.phase <- Done;
  let ts = st.ts in
  let copies = Lifecycle.write_copies t.rt txn in
  st.awaiting <- copies;
  List.iter
    (fun ((item, site) as copy) ->
      Ccdb_sim.Net.send (Runtime.net t.rt) ~src:txn.site ~dst:site
        ~kind:"mv-commit" (fun () ->
          let q = Lifecycle.queue t.queues copy in
          Mvto_queue.commit_write q ~txn:txn.id ~value:txn.id;
          emit_op t ~txn_id:txn.id ~op:Ccdb_model.Op.Write ~item ~site;
          (* keep the physical store at the newest committed version *)
          let latest_ts, latest_value = Mvto_queue.latest_committed q in
          if latest_ts = ts then
            Ccdb_storage.Store.apply_write (Runtime.store t.rt) ~item ~site
              ~txn:txn.id ~value:latest_value ~at:(Runtime.now t.rt);
          drain t copy;
          Ccdb_sim.Net.send (Runtime.net t.rt) ~src:site ~dst:txn.site
            ~kind:"mv-wack" (fun () -> on_write_applied t txn.id ~ts copy)))
    copies;
  if copies = [] then finalize t st

and on_write_applied t txn_id ~ts copy =
  match Lifecycle.find t.lc txn_id with
  | None -> ()
  | Some st ->
    if st.ts = ts && st.phase = Done && List.mem copy st.awaiting then begin
      st.awaiting <- List.filter (fun c -> c <> copy) st.awaiting;
      if st.awaiting = [] then finalize t st
    end

and finalize t st =
  let txn = st.txn in
  (* the attempt's reads are now part of the committed execution *)
  (match Hashtbl.find_opt t.pending_reads txn.id with
   | Some reads -> t.committed_reads <- reads @ t.committed_reads
   | None -> ());
  Hashtbl.remove t.pending_reads txn.id;
  Lifecycle.commit t.lc st ~submitted_at:st.submitted_at
    ~executed_at:(Runtime.now t.rt) ~restarts:st.restarts

and on_reject t txn_id ~ts rejected_copy =
  match Lifecycle.find t.lc txn_id with
  | None -> ()
  | Some st ->
    if st.ts = ts && st.phase = Prewriting then
      restart t st ~except:(Some rejected_copy)
        ~reason:(Runtime.To_rejected Ccdb_model.Op.Write)

(* Abort the current attempt and schedule a fresh one.  [except] is the
   copy whose queue already dropped the entry (the rejecting queue). *)
and restart t st ~except ~reason =
  let txn = st.txn in
  Runtime.emit t.rt
    (Runtime.Txn_restarted { txn; reason; at = Runtime.now t.rt });
  st.restarts <- st.restarts + 1;
  st.ts <- -1;
  Hashtbl.remove t.pending_reads txn.id;
  List.iter
    (fun ((_item, site) as copy) ->
      if except <> Some copy then
        Ccdb_sim.Net.send (Runtime.net t.rt) ~src:txn.site ~dst:site
          ~kind:"mv-abort" (fun () ->
            Mvto_queue.abort (Lifecycle.queue t.queues copy) ~txn:txn.id;
            drain t copy))
    (Lifecycle.read_copies t.rt txn @ Lifecycle.write_copies t.rt txn);
  st.phase <- Reading;
  st.awaiting <- [];
  Lifecycle.schedule_restart t.lc ~site:txn.site ~base:t.config.restart_delay
    ~attempt:st.restarts (fun () -> begin_attempt t st)

and begin_attempt t st =
  let txn = st.txn in
  st.ts <- Ccdb_model.Timestamp.Source.next (Runtime.ts_source t.rt);
  st.phase <- Reading;
  let copies = Lifecycle.read_copies t.rt txn in
  st.awaiting <- copies;
  if copies = [] then start_compute t st
  else begin
    let ts = st.ts in
    List.iter
      (fun ((_item, site) as copy) ->
        Ccdb_sim.Net.send (Runtime.net t.rt) ~src:txn.site ~dst:site
          ~kind:"mv-read" (fun () ->
            let q = Lifecycle.queue t.queues copy in
            match Mvto_queue.read q ~txn:txn.id ~ts with
            | Mvto_queue.Value value -> send_value t copy ~reader:txn.id ~ts ~value
            | Mvto_queue.Wait -> ()))
      copies
  end

let create ?(config = default_config) rt =
  let t =
    { rt; config; queues = Lifecycle.queues Mvto_queue.create;
      lc = Lifecycle.create rt ~name:"Mvto_system" ~txn:(fun st -> st.txn);
      committed_reads = []; pending_reads = Hashtbl.create 32 }
  in
  (* Crash and stall cleanup mirror {!To_system}: restart reading /
     prewriting transactions that depend on the dead site, leave
     invalidated attempts ([ts = -1]) to their pending restart, push
     committed writes forward. *)
  Lifecycle.restart_on_faults t.lc
    ~restartable:(fun st ->
      st.ts <> -1 && (st.phase = Reading || st.phase = Prewriting))
    ~touches:(fun st site -> List.exists (fun (_, s) -> s = site) st.awaiting)
    ~restart:(restart t ~except:None ~reason:Runtime.Site_failure);
  (* Fail-stop wipe: parked reads are volatile (the issuer never got an
     answer) and vanish; the version chain — committed history, uncommitted
     prewrites and read floors — is WAL-backed and survives.  MVTO emits no
     request events (reads are never rejected), so the dropped parked reads
     are only counted, not announced: the replay audits key drop markers to
     [Lock_requested] events. *)
  Lifecycle.on_wipe ~announce:false t.lc t.queues ~drop:Mvto_queue.wipe_parked
    ~kept:(fun q -> List.length (Mvto_queue.versions q) - 1);
  t

let submit t txn =
  let st =
    Lifecycle.admit t.lc txn (fun () ->
        { txn; submitted_at = Runtime.now t.rt; ts = 0; restarts = 0;
          phase = Reading; awaiting = [] })
  in
  begin_attempt t st

let active t = Lifecycle.active t.lc

let verify t =
  (* every committed read observed the committed version with the largest
     write timestamp at or below its own *)
  let reads_ok =
    List.for_all
      (fun r ->
        let q = Lifecycle.queue t.queues r.r_copy in
        let governing =
          List.fold_left
            (fun acc (ts, value, committed) ->
              if committed && ts <= r.r_ts then Some (ts, value) else acc)
            None (Mvto_queue.versions q)
        in
        match governing with
        | Some (_, Some value) -> value = r.r_value
        | Some (_, None) | None -> false)
      t.committed_reads
  in
  (* the physical store holds each copy's newest committed version *)
  let store_ok =
    Lifecycle.fold_queues t.queues
      (fun (item, site) q acc ->
        acc
        && snd (Mvto_queue.latest_committed q)
           = Ccdb_storage.Store.read (Runtime.store t.rt) ~item ~site)
      true
  in
  reads_ok && store_ok
