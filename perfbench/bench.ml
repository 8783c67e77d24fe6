(* One benchmark run of one workload, in this process, along the path
   [Ccdb_harness.Driver.execute] takes: generate the arrivals, build the
   runtime and system, schedule the arrivals, drive the engine to
   quiescence, then audit, check and summarize.  Every call into a layer is
   timed from here; nothing inside the library is instrumented. *)

module Rt = Ccdb_protocols.Runtime
module Engine = Ccdb_sim.Engine
module G = Ccdb_workload.Generator
module Stream = Ccdb_analysis.Stream
module Report = Ccdb_analysis.Report
module Finding = Ccdb_analysis.Finding
module Metrics = Ccdb_harness.Metrics
module Collector = Ccdb_insights.Collector
module W = Workloads

(* Timed units of the traced run.  The group before the first dot is the
   layer a unit's self time is charged to in the share table. *)
let l_workload = Spans.layer "workload.generate"
let l_setup = Spans.layer "setup"
let l_sim = Spans.layer "sim"
let l_submit = Spans.layer "protocols.submit"
let l_stl = Spans.layer "stl.submit"
let l_feed = Spans.layer "analysis.feed"
let l_finish = Spans.layer "analysis.finish"
let l_check = Spans.layer "serial.check"
let l_replica = Spans.layer "serial.replica_check"
let l_collect = Spans.layer "insights.collect"
let l_document = Spans.layer "insights.document"
let l_summarize = Spans.layer "metrics.summarize"

let groups =
  [ "workload"; "setup"; "sim"; "protocols"; "stl"; "analysis"; "serial";
    "insights"; "metrics"; "bench" ]

(* Faults forced by the benchmark's own test, one per failure kind. *)
type inject =
  | Skip_submits of int  (** the first [k] arrivals are never submitted *)
  | Raise_in_submit  (** one submit raises *)
  | Max_events of int  (** event budget passed to the engine *)
  | Bad_audit_event  (** a grant that is never promoted reaches the audit *)
  | Corrupt_store  (** one copy gets a write no transaction made *)
  | Tamper_insights  (** the insights document loses its fields *)

type failure =
  | Uncommitted  (** attempted but not committed at quiescence *)
  | Died_exception  (** the run raised *)
  | Died_budget  (** the event budget ran out *)
  | Audit_error  (** named by an error-severity audit finding *)
  | Store_check  (** the post-run store check said false *)
  | Insights_invalid  (** the insights document failed validation *)

let failure_name = function
  | Uncommitted -> "uncommitted"
  | Died_exception -> "exception"
  | Died_budget -> "budget"
  | Audit_error -> "audit"
  | Store_check -> "store_check"
  | Insights_invalid -> "insights"

let all_failures =
  [ Uncommitted; Died_exception; Died_budget; Audit_error; Store_check;
    Insights_invalid ]

(* What one leg (one runtime, one commit engine) leaves behind. *)
type leg = {
  label : string;  (** commit engine *)
  seed : int;  (** the replica's seed *)
  attempted : int;
  committed : int;
  failures : (failure * int) list;  (** txns charged to each kind *)
  failed : int;
  died : string option;  (** the exception that ended the leg *)
  summary : Metrics.summary option;  (** [None] when the run died *)
  events : int;  (** [Engine.processed] *)
  counters : Rt.counters;
  transport : Ccdb_sim.Net.fault_stats option;
  recovery : Ccdb_sim.Recovery.stats option;
  wal_appends : int;
  wal_records : int;  (** traced runs only *)
  store_entries : int;  (** traced runs only *)
  stream : Stream.stats option;
  findings : Finding.t list;
  decisions : (Ccdb_model.Protocol.t * int) list;
  wall_ns : int;
  slices : (int * float * int) array;
      (** per quarter of the arrival window: host ns, words, commits *)
}

let timed traced layer name f = if traced then Spans.phase layer name f else f ()

let sum f l = List.fold_left (fun acc x -> acc + f x) 0 l

let arrivals_of (w : W.t) ~seed ~n =
  let rng = Ccdb_util.Rng.create ~seed:(seed + 7919) in
  match w.phases n with
  | [ (spec, n) ] ->
    G.generate (G.create spec ~sites:w.sites ~items:w.items rng) ~n ~start:0.
  | phases -> G.phased phases ~sites:w.sites ~items:w.items rng

let build_submit (w : W.t) rt =
  let unified =
    { Core.Unified_system.default_config with
      restart_delay = 50.;
      detection = Ccdb_protocols.Deadlock.default_detection }
  in
  match w.system with
  | W.Unified ->
    let sys = Core.Unified_system.create ~config:unified rt in
    ((fun txn -> Core.Unified_system.submit sys txn), l_submit, fun () -> [])
  | W.Dynamic window ->
    let config =
      { Core.Dynamic_cc.default_config with
        unified;
        adaptive = Core.Dynamic_cc.Measured { window };
        reselect_on_restart = true }
    in
    let sys = Core.Dynamic_cc.create ~config rt in
    ( (fun txn -> Core.Dynamic_cc.submit sys txn),
      l_stl,
      fun () -> Core.Dynamic_cc.decisions sys )

let run_leg ~traced ~inject ~(w : W.t) ~seed ~arrivals ~plan ~on_dispatch
    (label, commit) =
  let t0 = Clock.now_ns () in
  let n = List.length arrivals in
  let catalog =
    Ccdb_storage.Catalog.create ~items:w.items ~sites:w.sites
      ~replication:w.replication
  in
  let rt =
    timed traced l_setup "runtime.create" (fun () ->
        Rt.create ~seed ?faults:plan ~restart_cap:800. ~commit
          ~net_config:(Ccdb_sim.Net.default_config ~sites:w.sites)
          ~catalog ())
  in
  let engine = Rt.engine rt in
  let collector =
    if not w.insights then None
    else if traced then begin
      (* listeners run newest first: these two bracket the collector's *)
      Rt.subscribe rt (fun _ -> Spans.leave l_collect);
      let c = Collector.attach ~window:500. rt in
      Rt.subscribe rt (fun _ -> Spans.enter ());
      Some c
    end
    else Some (Collector.attach ~window:500. rt)
  in
  let stream =
    if not w.audit then None
    else begin
      let st = Stream.create ~theorem2:true ~catalog () in
      Rt.subscribe rt
        (if traced then (fun e ->
           Spans.enter ();
           ignore (Stream.feed st e);
           Spans.leave l_feed)
         else fun e -> ignore (Stream.feed st e));
      Some st
    end
  in
  let submit, submit_layer, decisions =
    timed traced l_setup "system.create" (fun () -> build_submit w rt)
  in
  let submit =
    List.fold_left
      (fun submit -> function
        | Skip_submits k ->
          fun (txn : Ccdb_model.Txn.t) -> if txn.id > k then submit txn
        | Raise_in_submit ->
          fun (txn : Ccdb_model.Txn.t) ->
            if txn.id = (n / 2) + 1 then failwith "injected submit failure"
            else submit txn
        | _ -> submit)
      submit inject
  in
  let submit =
    if traced then (fun txn ->
      Spans.enter ();
      submit txn;
      Spans.leave submit_layer)
    else submit
  in
  timed traced l_setup "engine.schedule" (fun () ->
      List.iter
        (fun (at, (txn : Ccdb_model.Txn.t)) ->
          ignore
            (Engine.schedule ~site:txn.site engine ~after:at (fun () ->
                 submit txn)))
        arrivals);
  on_dispatch ();
  let budget =
    List.fold_left
      (fun budget -> function Max_events m -> m | _ -> budget)
      (max 50_000_000 (400 * n))
      inject
  in
  let remaining () = max 0 (budget - Engine.processed engine) in
  let horizon = List.fold_left (fun acc (at, _) -> Float.max acc at) 0. arrivals in
  let committed () = (Rt.counters rt).committed in
  let slices = Array.make 4 (0, 0., 0) in
  let slice k run =
    let ns0 = Clock.now_ns () and w0 = Clock.words () and c0 = committed () in
    timed traced l_sim (Printf.sprintf "sim.slice%d" (k + 1)) run;
    slices.(k) <-
      (Clock.now_ns () - ns0, Clock.words () -. w0, committed () - c0)
  in
  let store = Rt.store rt in
  let outcome =
    match
      for k = 0 to 2 do
        slice k (fun () ->
            Engine.run
              ~until:(horizon *. float_of_int (k + 1) /. 4.)
              ~max_events:(remaining ()) engine)
      done;
      slice 3 (fun () -> Rt.quiesce ~max_events:(remaining ()) rt);
      List.iter
        (function
          | Bad_audit_event ->
            Rt.emit rt
              (Rt.Lock_granted
                 { txn = 1; protocol = Ccdb_model.Protocol.Two_pl;
                   op = Ccdb_model.Op.Write; item = 0;
                   site = List.hd (Ccdb_storage.Catalog.copies catalog 0);
                   mode = Some Ccdb_model.Lock.Wl;
                   schedule = Ccdb_model.Lock.Pre_scheduled; ts = None;
                   at = Rt.now rt })
          | Corrupt_store ->
            Ccdb_storage.Store.apply_write store ~item:0
              ~site:(List.hd (Ccdb_storage.Catalog.copies catalog 0))
              ~txn:(n + 1) ~value:(-1) ~at:(Rt.now rt)
          | _ -> ())
        inject;
      let report =
        Option.map
          (fun st ->
            timed traced l_finish "analysis.finish" (fun () ->
                Stream.report ~store st))
          stream
      in
      (* the two store checks [Metrics.summarize ~verify] runs, timed one
         by one *)
      let serializable, replica_consistent =
        if not w.verify then (true, true)
        else
          ( timed traced l_check "serial.check" (fun () ->
                Ccdb_serial.Check.conflict_serializable
                  (Ccdb_storage.Store.logs store)),
            timed traced l_replica "serial.replica_check" (fun () ->
                Ccdb_serial.Check.replica_consistent store) )
      in
      let summary =
        { (timed traced l_summarize "metrics.summarize" (fun () ->
               Metrics.summarize ~verify:false rt))
          with
          serializable;
          replica_consistent }
      in
      let insights_ok =
        Option.map
          (fun c ->
            timed traced l_document "insights.document" (fun () ->
                let doc =
                  if List.mem Tamper_insights inject then Ccdb_util.Json.Obj []
                  else Collector.to_json c
                in
                Result.is_ok (Collector.validate doc)))
          collector
      in
      (report, summary, insights_ok)
    with
    | v -> Ok v
    | exception e ->
      let kind =
        if Engine.pending engine > 0 && remaining () = 0 then Died_budget
        else Died_exception
      in
      Error (kind, Printexc.to_string e)
  in
  let wall_ns = Clock.now_ns () - t0 in
  let committed = committed () in
  (* each kind's failed txns: [None] for the whole leg, else their ids *)
  let failures, summary, findings =
    match outcome with
    | Error (kind, _) -> ([ (kind, None) ], None, [])
    | Ok (report, summary, insights_ok) ->
      let findings = Option.fold ~none:[] ~some:Report.findings report in
      let errors = Option.fold ~none:[] ~some:Report.errors report in
      let uncommitted =
        if committed = n then []
        else begin
          let done_ = Hashtbl.create n in
          List.iter
            (fun (c : Rt.completion) -> Hashtbl.replace done_ c.txn.id ())
            (Rt.completions rt);
          List.filter_map
            (fun (_, (txn : Ccdb_model.Txn.t)) ->
              if Hashtbl.mem done_ txn.id then None else Some txn.id)
            arrivals
        end
      in
      let audit =
        if List.exists (fun f -> f.Finding.txns = []) errors then None
        else Some (List.concat_map (fun f -> f.Finding.txns) errors)
      in
      let whole ok = if ok then Some [] else None in
      ( [ (Uncommitted, Some uncommitted); (Audit_error, audit);
          ( Store_check,
            whole (summary.Metrics.serializable && summary.replica_consistent)
          );
          (Insights_invalid, whole (Option.value ~default:true insights_ok)) ],
        Some summary,
        findings )
  in
  let size = function
    | None -> n
    | Some ids -> List.length (List.sort_uniq compare ids)
  in
  (* a transaction can fail for several reasons; count it once *)
  let all_failed =
    List.fold_left
      (fun acc (_, ids) -> Option.bind acc (fun a -> Option.map (( @ ) a) ids))
      (Some []) failures
  in
  let wal = Rt.wal rt in
  { label; seed; attempted = n; committed;
    failures =
      List.filter_map
        (fun (k, ids) -> if size ids > 0 then Some (k, size ids) else None)
        failures;
    failed = size all_failed;
    died = (match outcome with Error (_, msg) -> Some msg | Ok _ -> None);
    summary; events = Engine.processed engine; counters = Rt.counters rt;
    transport = Ccdb_sim.Net.fault_stats (Rt.net rt);
    recovery = Rt.recovery_stats rt;
    wal_appends = Ccdb_storage.Wal.appends wal;
    wal_records =
      (if traced then
         sum
           (fun site -> List.length (Ccdb_storage.Wal.records wal ~site))
           (List.init w.sites Fun.id)
       else 0);
    store_entries =
      (if traced then
         sum (fun (_, l) -> List.length l) (Ccdb_storage.Store.logs store)
       else 0);
    stream = Option.map Stream.stats stream; findings;
    decisions = decisions (); wall_ns; slices }

(* The run's simulated outputs, canonically printed: equal for equal seeds
   on any host, whatever the host timings were. *)
let digest_text legs =
  let leg_text l =
    let sim =
      match l.summary with
      | None ->
        Printf.sprintf "died=%s"
          (String.concat "+"
             (List.map (fun (k, _) -> failure_name k) l.failures))
      | Some s ->
        Printf.sprintf "committed=%d meanS=%h p95S=%h msgs=%s" s.committed
          s.mean_system_time s.p95_system_time
          (String.concat ","
             (List.map
                (fun (k, c) -> Printf.sprintf "%s:%d" k c)
                s.messages_by_kind))
    in
    let findings =
      List.map
        (fun (f : Finding.t) ->
          Printf.sprintf "%s/%s" f.check (Finding.severity_to_string f.severity))
        l.findings
      |> List.sort compare
    in
    Printf.sprintf "%s/%d: %s wal=%d findings=[%s] decisions=[%s]" l.label
      l.seed sim
      l.wal_appends
      (String.concat "," findings)
      (String.concat ","
         (List.map
            (fun (p, k) ->
              Printf.sprintf "%s:%d" (Ccdb_model.Protocol.to_string p) k)
            l.decisions))
  in
  String.concat "\n" (List.map leg_text legs)

(* [Count]: a count of simulated work (or a ratio of two), equal for equal
   seeds on any host.  [Host]: a host time, host allocation or a ratio of
   them.  (Allocation is exact across fresh processes too, but not between
   two runs in one process, whose promotions depend on the heap left
   behind.) *)
type kind = Count | Host

type result = {
  workload : string;
  seed : int;
  traced : bool;
  legs : leg list;
  attempted : int;
  failed : int;
  digest : string;
  metrics : (string * kind * float) list;
}

let tag kind = List.map (fun (name, v) -> (name, kind, v))

let per x n = if n = 0 then 0. else x /. float_of_int n

(* committed-weighted mean of a per-leg summary figure *)
let weighted legs f =
  let num, den =
    List.fold_left
      (fun (num, den) l ->
        match l.summary with
        | Some s when s.committed > 0 ->
          (num +. (f s *. float_of_int s.committed), den + s.committed)
        | _ -> (num, den))
      (0., 0) legs
  in
  per num den

let leg_metric_names =
  [ ("commit.messages_per_commit", Count); ("commit.us_per_commit", Host);
    ("wal.appends_per_commit", Count); ("wal.records_at_end", Count) ]

(* Per commit-engine figures over every leg labelled [label]; zeros when
   the workload has no such leg. *)
let leg_metrics legs label =
  let legs = List.filter (fun l -> String.equal l.label label) legs in
  let committed = sum (fun l -> l.committed) legs in
  let commit_msgs l =
    match l.summary with
    | None -> 0
    | Some s ->
      sum
        (fun (k, c) ->
          if String.starts_with ~prefix:"2pc-" k
             || String.starts_with ~prefix:"px-" k
          then c
          else 0)
        s.messages_by_kind
  in
  let total f = float_of_int (sum f legs) in
  List.map2
    (fun (name, kind) v -> (name ^ "." ^ label, kind, v))
    leg_metric_names
    [ per (total commit_msgs) committed;
      per (total (fun l -> l.wall_ns) /. 1e3) committed;
      per (total (fun l -> l.wal_appends)) committed;
      total (fun l -> l.wal_records) ]

let slice_metrics legs =
  let at k =
    List.fold_left
      (fun (ns, words, c) l ->
        let ns', words', c' = l.slices.(k) in
        (ns + ns', words +. words', c + c'))
      (0, 0., 0) legs
  in
  let us k = let ns, _, c = at k in per (float_of_int ns /. 1e3) c in
  let words k = let _, w, c = at k in per w c in
  tag Host
  @@ List.concat_map
    (fun k ->
      [ (Printf.sprintf "sim.slice%d_us_per_commit" (k + 1), us k);
        (Printf.sprintf "sim.slice%d_words_per_commit" (k + 1), words k) ])
    [ 0; 1; 2; 3 ]
  @ [ ("sim.us_per_commit_growth", if us 0 = 0. then 0. else us 3 /. us 0);
      ( "sim.words_per_commit_growth",
        if words 0 = 0. then 0. else words 3 /. words 0 ) ]

let layer_metrics ~legs ~total_ns =
  let committed = sum (fun l -> l.committed) legs in
  let events = sum (fun l -> l.events) legs in
  let counter f = sum (fun l -> f l.counters) legs in
  let restarts = counter (fun c -> c.Rt.restarts) in
  let transport f =
    sum (fun l -> Option.fold ~none:0 ~some:f l.transport) legs
  in
  let recovery f = sum (fun l -> Option.fold ~none:0 ~some:f l.recovery) legs in
  let stream f = sum (fun l -> Option.fold ~none:0 ~some:f l.stream) legs in
  let messages =
    sum
      (fun l ->
        Option.fold ~none:0
          ~some:(fun (s : Metrics.summary) -> sum snd s.messages_by_kind)
          l.summary)
      legs
  in
  let ns (l : Spans.layer) = float_of_int l.self_ns in
  let per_call (l : Spans.layer) x = per x l.calls in
  let span_s name = float_of_int (fst (Spans.span_totals name)) /. 1e9 in
  let root_self = Spans.untimed_ns total_ns in
  let group_ns g =
    if String.equal g "bench" then float_of_int root_self
    else
      List.fold_left
        (fun acc (l : Spans.layer) ->
          match String.split_on_char '.' l.name with
          | g' :: _ when String.equal g g' -> acc +. ns l
          | _ -> acc)
        0. !Spans.layers
  in
  let shares =
    List.concat_map
      (fun g ->
        [ (Printf.sprintf "layer.%s.self_s" g, group_ns g /. 1e9);
          ( Printf.sprintf "layer.%s.share" g,
            group_ns g /. float_of_int total_ns ) ])
      groups
  in
  tag Host
    [ ("workload.generate_ms", span_s "workload.generate" *. 1e3);
      ("sim.dispatch_ns_per_event", per (ns l_sim) events);
      ("protocols.submit_us_per_txn", per_call l_submit (ns l_submit /. 1e3));
      ("stl.submit_us_per_txn", per_call l_stl (ns l_stl /. 1e3));
      ("stl.submit_words_per_txn", per_call l_stl l_stl.self_words);
      ("serial.check_s", span_s "serial.check");
      ("serial.check_words", snd (Spans.span_totals "serial.check"));
      ("serial.replica_check_s", span_s "serial.replica_check");
      ("analysis.feed_ns_per_event", per_call l_feed (ns l_feed));
      ("analysis.finish_s", span_s "analysis.finish");
      ("insights.collect_ns_per_event", per_call l_collect (ns l_collect));
      ("insights.document_ms", span_s "insights.document" *. 1e3);
      ("metrics.summarize_ms", span_s "metrics.summarize" *. 1e3) ]
  @ tag Count
      [ ("sim.events_per_commit", per (float_of_int events) committed);
        ("net.messages_per_commit", per (float_of_int messages) committed);
        ( "net.transmissions_per_commit",
          per (float_of_int (transport (fun t -> t.transmissions))) committed
        );
        ( "net.retransmits_per_commit",
          per (float_of_int (transport (fun t -> t.retransmitted))) committed
        );
        ("recovery.replays", float_of_int (recovery (fun r -> r.replays)));
        ( "recovery.records_replayed",
          float_of_int (recovery (fun r -> r.records_replayed)) );
        ( "protocols.restarts_per_commit",
          per (float_of_int restarts) committed );
        ( "protocols.useful_ratio",
          per (float_of_int committed) (committed + restarts) );
        ( "protocols.deadlock_aborts",
          float_of_int (counter (fun c -> c.Rt.deadlock_aborts)) );
        ( "protocols.backoffs_per_commit",
          per (float_of_int (counter (fun c -> c.Rt.backoffs))) committed );
        ( "store.log_entries_at_end",
          float_of_int (sum (fun l -> l.store_entries) legs) );
        ( "analysis.graph_work_per_event",
          per
            (float_of_int (stream (fun s -> s.graph_work)))
            (stream (fun s -> s.events_fed)) );
        ( "analysis.live_nodes_at_end",
          float_of_int (stream (fun s -> s.live_nodes)) );
        ("metrics.sim_p95_S", weighted legs (fun s -> s.p95_system_time));
        ("metrics.sim_throughput", weighted legs (fun s -> s.throughput)) ]
  @ leg_metrics legs "2pc" @ leg_metrics legs "paxos"
  @ tag Host shares

let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0. else (a.((n - 1) / 2) +. a.(n / 2)) /. 2.

let run ?(traced = false) ?(inject = []) ?txns (w : W.t) ~seed =
  if traced then Spans.reset ();
  let n = Option.value ~default:w.txns txns in
  (* each replica's set-up: from its start (program start for the first)
     to its first dispatched event *)
  let setups = ref [] in
  let replica r =
    let start_ns = if r = 0 then Clock.start_ns else Clock.now_ns () in
    let dispatched = ref false in
    let on_dispatch () =
      if not !dispatched then begin
        dispatched := true;
        setups := (Clock.now_ns () - start_ns) :: !setups
      end
    in
    let base = seed in
    let seed = W.replica_seed ~seed r in
    let arrivals =
      timed traced l_workload "workload.generate" (fun () ->
          arrivals_of w ~seed ~n)
    in
    let plan =
      Option.map
        (fun make ->
          make ~seed:base ~replica:r
            ~horizon:
              (List.fold_left
                 (fun acc (at, _) -> Float.max acc at)
                 0. arrivals))
        w.faults
    in
    List.map
      (run_leg ~traced ~inject ~w ~seed ~arrivals ~plan ~on_dispatch)
      w.legs
  in
  let legs = List.concat_map replica (List.init w.replicas Fun.id) in
  let end_ns = Clock.now_ns () in
  let end_words = Clock.words () in
  let gc = Gc.quick_stat () in
  let total_ns = end_ns - Clock.start_ns in
  let committed = sum (fun l -> l.committed) legs in
  let end_to_end =
    tag Host
      [ ("us_per_commit", per (float_of_int total_ns /. 1e3) committed);
        ("alloc_words_per_commit", per end_words committed);
        ( "peak_heap_mb",
          float_of_int (gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.
        );
        ("setup_s", median (List.map float_of_int !setups) /. 1e9) ]
    @ [ ("sim_mean_S", Count, weighted legs (fun s -> s.mean_system_time)) ]
  in
  let metrics =
    end_to_end @ slice_metrics legs
    @ if traced then layer_metrics ~legs ~total_ns else []
  in
  { workload = w.name; seed; traced; legs;
    attempted = sum (fun (l : leg) -> l.attempted) legs;
    failed = sum (fun (l : leg) -> l.failed) legs;
    digest = Digest.to_hex (Digest.string (digest_text legs));
    metrics }

let to_json r =
  let module J = Ccdb_util.Json in
  let num x = J.Num x and int i = J.Num (float_of_int i) in
  let failures =
    List.map
      (fun k ->
        ( failure_name k,
          int
            (sum
               (fun l -> Option.value ~default:0 (List.assoc_opt k l.failures))
               r.legs) ))
      all_failures
  in
  J.Obj
    [ ("workload", J.Str r.workload); ("seed", int r.seed);
      ("traced", J.Bool r.traced); ("attempted", int r.attempted);
      ("failed", int r.failed); ("failures", J.Obj failures);
      ("digest", J.Str r.digest);
      ( "env",
        J.Obj
          [ ("ocaml", J.Str Sys.ocaml_version);
            ("recommended_domains", int (Domain.recommended_domain_count ())) ]
      );
      ( "counts",
        J.List
          (List.filter_map
             (fun (k, kind, _) ->
               if kind = Count then Some (J.Str k) else None)
             r.metrics) );
      ("metrics", J.Obj (List.map (fun (k, _, v) -> (k, num v)) r.metrics)) ]
