(* The benchmark's workloads.  Each loads one layer that later changes are
   likely to optimise and bypasses another; NOTES.md records why each was
   chosen.  Everything random is drawn from the benchmark seed. *)

module G = Ccdb_workload.Generator
module Fp = Ccdb_sim.Fault_plan
module Rt = Ccdb_protocols.Runtime

type system =
  | Unified  (** the unified system; each txn keeps its generated protocol *)
  | Dynamic of float
      (** the full dynamic system with the measured-λ window (time units) *)

type t = {
  name : string;
  txns : int;  (** transactions per leg *)
  replicas : int;
      (** independent runs per process, on arrivals and plans drawn from
          seeds derived from the benchmark seed; pooling them narrows the
          seed-to-seed spread of the reported figures *)
  sites : int;
  items : int;
  replication : int;
  system : system;
  phases : int -> (G.spec * int) list;
      (** the arrival phases for a run of [n] transactions per leg *)
  faults : (seed:int -> replica:int -> horizon:float -> Fp.t) option;
      (** fail-stop plan of one replica of a process run with the benchmark
          seed, over the arrival window [0, horizon] *)
  legs : (string * Rt.commit_protocol) list;
      (** one run per entry on identical arrivals and fault plan *)
  audit : bool;  (** streaming audit online, [Stream.report] at the end *)
  verify : bool;  (** post-run store check ([Metrics.summarize ~verify]) *)
  insights : bool;  (** insights collector attached, document validated *)
}

let even_mix = List.map (fun p -> (p, 1.)) Ccdb_model.Protocol.all

let base =
  { G.default with
    arrival_rate = 0.1;
    size_min = 1;
    size_max = 3;
    read_fraction = 0.5;
    compute_mean = 5.;
    protocol_mix = even_mix }

let single spec n = [ (spec, n) ]

(* Replica [r] of a process takes its arrivals and fault plan from this
   seed. *)
let replica_seed ~seed r = seed + (r * 1_000_003)

(* Crash schedule of [durable-crash]: one 400-unit fail-stop window every
   50,000 units across the arrival window, rotating over the sites from a
   first site drawn from the benchmark seed.  Replica [r] of [replicas]
   starts [r * sites / replicas] sites further on, so that one process
   crashes every site equally often: which sites crash changes the Paxos
   leg's cost several-fold.  The plan's fault RNG is seeded from the
   replica's seed. *)
let crash_period = 50_000.
let crash_length = 400.

let rotating_crashes ~sites ~replicas ~seed ~replica ~horizon =
  let rng = Ccdb_util.Rng.create ~seed:(seed + 104_729) in
  let first = Ccdb_util.Rng.int rng sites + (replica * sites / replicas) in
  let rec windows k acc =
    let at = (float_of_int k *. crash_period) +. (crash_period /. 2.) in
    if at > horizon then List.rev acc
    else
      windows (k + 1)
        ({ Fp.site = (first + k) mod sites; at; recover_at = at +. crash_length }
        :: acc)
  in
  Fp.make ~seed:(replica_seed ~seed replica + 15_485_863)
    ~default_link:{ Fp.reliable_link with drop = 0.02 }
    ~crashes:(windows 0 []) ~wipe:true ()

let one_leg = [ ("main", Rt.Two_pc) ]

let verified_run =
  { name = "verified-run"; txns = 5_000; replicas = 1; sites = 4; items = 24;
    replication = 2; system = Unified; phases = single base; faults = None;
    legs = one_leg; audit = false; verify = true; insights = false }

let hot_audited =
  { verified_run with
    name = "hot-audited";
    txns = 20_000;
    replicas = 1;
    phases =
      single { base with arrival_rate = 0.08; size_max = 4; access = G.Zipf 0.8 };
    audit = true;
    verify = false }

let durable_crash =
  { verified_run with
    name = "durable-crash";
    txns = 1_700;
    replicas = 4;
    phases = single { base with arrival_rate = 0.02 };
    faults = Some (rotating_crashes ~sites:4 ~replicas:4);
    legs = [ ("2pc", Rt.Two_pc); ("paxos", Rt.Paxos { f = 1 }) ];
    audit = true;
    verify = false }

(* E14's phase change with a read-heavy calm phase: 90% reads at λ 0.15,
   then a hot-key write storm of single-item pure writes under Zipf 1.0 at
   twice the rate; 4/7 of the transactions are calm. *)
let dynamic_phased =
  { verified_run with
    name = "dynamic-phased";
    txns = 700;
    replicas = 16;
    system = Dynamic 400.;
    phases =
      (fun n ->
        let calm = n * 4 / 7 in
        [ ({ base with arrival_rate = 0.15; read_fraction = 0.9 }, calm);
          ( { base with
              arrival_rate = 0.3;
              size_min = 1;
              size_max = 1;
              read_fraction = 0.;
              access = G.Zipf 1.0 },
            n - calm ) ]);
    insights = true }

let all = [ verified_run; hot_audited; durable_crash; dynamic_phased ]

let find name = List.find_opt (fun w -> String.equal w.name name) all
