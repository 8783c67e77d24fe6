(* The benchmark's own checks (`dune build @perfbench/selftest`):
   - every failure kind is forced once and shows up counted, without the
     benchmark raising;
   - two runs with one seed agree exactly in the digest and in every count,
     and another seed changes the digest;
   - the sliced drive reaches the same simulated outcome as
     [Ccdb_harness.Driver.run] on the same inputs. *)

module D = Ccdb_harness.Driver
module W = Workloads

let failures = ref 0

let check what ok =
  Printf.printf "%s %s\n%!" (if ok then "ok  " else "FAIL") what;
  if not ok then incr failures

let counted (r : Bench.result) kind =
  List.fold_left
    (fun acc (l : Bench.leg) ->
      acc + Option.value ~default:0 (List.assoc_opt kind l.failures))
    0 r.legs

let small = 150

let forced_failures () =
  let cases =
    [ (W.verified_run, [ Bench.Skip_submits 3 ], [ Bench.Uncommitted ], 3);
      (W.verified_run, [ Bench.Raise_in_submit ], [ Bench.Died_exception ],
       small);
      (W.hot_audited, [ Bench.Max_events 50 ], [ Bench.Died_budget ], small);
      (W.hot_audited, [ Bench.Bad_audit_event ], [ Bench.Audit_error ], 1);
      (W.verified_run, [ Bench.Corrupt_store ], [ Bench.Store_check ], small);
      (W.dynamic_phased, [ Bench.Tamper_insights ], [ Bench.Insights_invalid ],
       small);
      (* txn 1 is both never submitted and named by the audit: one failure *)
      ( W.hot_audited,
        [ Bench.Skip_submits 1; Bench.Bad_audit_event ],
        [ Bench.Uncommitted; Bench.Audit_error ],
        1 ) ]
  in
  List.iter
    (fun ((w : W.t), inject, kinds, expected) ->
      (* each replica and each leg meets the fault once *)
      let expected = expected * w.replicas * List.length w.legs in
      let names = String.concat "+" (List.map Bench.failure_name kinds) in
      match Bench.run ~inject ~txns:small w ~seed:5 with
      | r ->
        check
          (Printf.sprintf "%s: forced %s counts %d failed txns (got %s, %d of %d)"
             w.name names expected
             (String.concat "+"
                (List.map (fun k -> string_of_int (counted r k)) kinds))
             r.failed r.attempted)
          (List.for_all (fun k -> counted r k = expected) kinds
          && r.failed = expected)
      | exception e ->
        check
          (Printf.sprintf "%s: forced %s raised %s" w.name names
             (Printexc.to_string e))
          false)
    cases

let determinism () =
  List.iter
    (fun (w : W.t) ->
      (* long enough for durable-crash to reach its first crash window *)
      let txns = if Option.is_some w.faults then 1_500 else 200 in
      let a = Bench.run ~traced:true ~txns w ~seed:11 in
      let b = Bench.run ~traced:true ~txns w ~seed:11 in
      let c = Bench.run ~txns w ~seed:12 in
      let counts (r : Bench.result) =
        List.filter (fun (_, kind, _) -> kind = Bench.Count) r.metrics
      in
      check (w.name ^ ": one seed, one digest") (String.equal a.digest b.digest);
      check (w.name ^ ": one seed, equal counts") (counts a = counts b);
      check (w.name ^ ": another seed, another digest")
        (not (String.equal a.digest c.digest));
      check (w.name ^ ": clean run") (a.failed = 0 && c.failed = 0))
    W.all

let same_as_driver () =
  let w = W.verified_run and seed = 21 and txns = 400 in
  let r = Bench.run ~txns w ~seed in
  let spec, _ = List.hd (w.phases txns) in
  let setup =
    { D.default_setup with sites = w.sites; items = w.items;
      replication = w.replication; seed;
      net = Ccdb_sim.Net.default_config ~sites:w.sites }
  in
  let d = D.run ~setup ~n_txns:txns D.Unified spec in
  match (List.hd r.legs).summary with
  | None -> check "verified-run matches Driver.run" false
  | Some s ->
    check "verified-run matches Driver.run (committed, S, messages, verdict)"
      (s.committed = d.summary.committed
      && s.mean_system_time = d.summary.mean_system_time
      && s.p95_system_time = d.summary.p95_system_time
      && s.messages_by_kind = d.summary.messages_by_kind
      && s.serializable && d.summary.serializable)

let main () =
  forced_failures ();
  determinism ();
  same_as_driver ();
  if !failures > 0 then begin
    Printf.printf "%d check(s) failed\n" !failures;
    exit 1
  end
