(* Behavioural identity of the protocol systems.

   Every driver mode runs one small workload (80 transactions over 12
   items) under four settings: fault-free, the fail-pause plan of
   `@faults-smoke`, fail-stop crashes under presumed-abort 2PC, and a
   fail-stop coordinator crash under Paxos Commit (f = 1).  Each run is
   reduced to one digest of its rendered event stream plus every summary
   field, and the digests are pinned below.  A refactor of the systems
   that changes any event, its order, or any reported figure changes a
   digest.

   On a mismatch the test prints the actual digest of every run that
   moved, one `(mode, digest)` line each, ready to paste after a change
   that is meant to alter behaviour. *)

module D = Ccdb_harness.Driver
module G = Ccdb_workload.Generator
module P = Ccdb_model.Protocol

let modes =
  [ D.Pure P.Two_pl; D.Pure P.T_o; D.Pure P.Pa; D.Mvto; D.Conservative;
    D.Unified; D.Unified_forced P.Two_pl; D.Unified_forced P.T_o;
    D.Unified_forced P.Pa; D.Unified_full_lock; D.Dynamic ]

(* the workload of `ccdb_cli faults --txns 80 --items 12` *)
let setup = { D.default_setup with items = 12 }

let spec =
  { G.default with
    arrival_rate = 0.08;
    protocol_mix = List.map (fun p -> (p, 1.)) P.all }

let plan s =
  match Ccdb_sim.Fault_plan.of_string s with
  | Ok p -> p
  | Error e -> failwith e

let digest ?faults ?(commit = Ccdb_protocols.Runtime.Two_pc) mode =
  let buf = Buffer.create 65536 in
  let observer rt =
    Ccdb_protocols.Runtime.subscribe rt (fun ev ->
        Buffer.add_string buf
          (Format.asprintf "%a\n" Ccdb_harness.Trace.pp_event ev))
  in
  let r =
    D.run ~setup:{ setup with commit } ~n_txns:80 ~observer ?faults mode spec
  in
  Buffer.add_string buf (Marshal.to_string r.summary [ Marshal.No_sharing ]);
  Digest.to_hex (Digest.string (Buffer.contents buf))

let check_setting ?faults ?commit pinned () =
  let moved =
    List.filter_map
      (fun mode ->
        let name = D.mode_name mode in
        let actual = digest ?faults ?commit mode in
        match List.assoc_opt name pinned with
        | Some expected when String.equal expected actual -> None
        | Some _ | None -> Some (name, actual))
      modes
  in
  if moved <> [] then begin
    List.iter (fun (name, d) -> Printf.printf "(%S, %S);\n" name d) moved;
    Alcotest.failf "%d of %d runs changed behaviour (actual digests above)"
      (List.length moved) (List.length modes)
  end

let fault_free =
  [ ("pure-2PL", "9d39853932fc8f3b0023a7a9cdcb2fd8");
    ("pure-T/O", "3e3f2eda781c38786a0cbe8086b1aa37");
    ("pure-PA", "2fe07727debaffd286b1f6f5c4f9aa22");
    ("pure-mvto", "b03b9fc6568354f3cef740b1624556c6");
    ("pure-cto", "baa0703c527c6971e1f2600727486566");
    ("unified", "58670a8fd23ac584ba53931431d932f0");
    ("unified-2PL", "c046b103d085f283b25e4e9a8de2629f");
    ("unified-T/O", "bc81c2a7c257bde2d1b2f66b84ee71e8");
    ("unified-PA", "ee6f0fde4ac4418a31b7fe611cc08da5");
    ("unified-full-lock", "2bb98a7ed2720d48c0290a1157106296");
    ("dynamic", "df2058f5d0d1d5ad82158d268d224673") ]

let fail_pause =
  [ ("pure-2PL", "fba5a9cc71c4677f33775cd0fbd6ec93");
    ("pure-T/O", "0240feb7fc87546db29a31298106b6d8");
    ("pure-PA", "a4d239bdce5ecf99849c67c2f5eaafd6");
    ("pure-mvto", "cdb8fa64555b03093dab037499fd2732");
    ("pure-cto", "3714ab2ec153727b151d72031b0e6257");
    ("unified", "e19f094d87b393ce638da83bb677429f");
    ("unified-2PL", "d96955c7189678244036e04501099b79");
    ("unified-T/O", "a151de0b071eea89b520a706e444cc9e");
    ("unified-PA", "43127f0e95f46ea65d316507cafbf5de");
    ("unified-full-lock", "2cb3c1c370d833ed22e8874bccaa6ffe");
    ("dynamic", "fed6f4cb002494395416881bba12eb1e") ]

let fail_stop_2pc =
  [ ("pure-2PL", "c0550576a22a7075e443b98fbf5b0fb5");
    ("pure-T/O", "e4f1d6982ce6ebce663b04023d4ed7c2");
    ("pure-PA", "ec18d31923d4875e04d442ba375b2fc3");
    ("pure-mvto", "86cabff7f0e06f132370dc8121be7cd7");
    ("pure-cto", "febab95d56d1e489f0df9cb539912cd9");
    ("unified", "f5603e3e301b5a008fa72a750280f6b3");
    ("unified-2PL", "744b2530fbb7444e047553fa3e75a1f2");
    ("unified-T/O", "911bc9cce3147450e68bb225e81de49d");
    ("unified-PA", "c4c4f1fa7580d7a605ae00ccb9d5dd2d");
    ("unified-full-lock", "f2af98c6af3e7af3587b0767aa8ae655");
    ("dynamic", "1b8256f07a3d57e6c4c50db5d34aa48e") ]

let fail_stop_paxos =
  [ ("pure-2PL", "ca091f3503caa2f3d26002ff68b5750b");
    ("pure-T/O", "d3d07d577cd92d5d7d7769a0f9cbf2e5");
    ("pure-PA", "b421219d5a187e03af6944ff88134072");
    ("pure-mvto", "6e1f30288a0184ccfef66d14b6668d10");
    ("pure-cto", "05973bbeadde6fdec0a8cec2aed77d1d");
    ("unified", "347dfea73b78b47dfc820e1bc30e87f2");
    ("unified-2PL", "0de0143e99db756084bc5f69058324f2");
    ("unified-T/O", "b7ced2245e9c5ee6de42f0a974f410b0");
    ("unified-PA", "dbe4f222aaed175c62c351de2b07c193");
    ("unified-full-lock", "809533d302e7fb0bc2a315b1d92a2933");
    ("dynamic", "99ea12d18b11445972f656d91ee7bfb4") ]

let suites =
  [ ( "identity",
      [ Alcotest.test_case "fault-free" `Quick (check_setting fault_free);
        Alcotest.test_case "fail-pause" `Quick
          (check_setting
             ~faults:(plan "drop=0.1,crash=1@400+300,crash=2@1200+300,seed=11")
             fail_pause);
        Alcotest.test_case "fail-stop 2pc" `Quick
          (check_setting
             ~faults:(plan "crash=1@400+300,crash=2@1200+300,wipe=true,seed=11")
             fail_stop_2pc);
        Alcotest.test_case "fail-stop paxos:1" `Quick
          (check_setting
             ~faults:
               (plan "drop=0.05,crash=coordinator@400+300,wipe=true,seed=11")
             ~commit:(Ccdb_protocols.Runtime.Paxos { f = 1 })
             fail_stop_paxos) ] ) ]
