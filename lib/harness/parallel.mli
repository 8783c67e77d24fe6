(** Parallel experiment runner: fans the independent measurement points of
    the staged experiment suite (see {!Experiments.staged}) across a
    fixed-size pool of OCaml 5 domains.

    Determinism: every point owns a private engine, RNG and catalog (no
    shared mutable state), each point's result lands in a dedicated slot,
    and outcomes are assembled from the slots in experiment order — so the
    rendered tables are byte-identical to the serial path for every job
    count.  [test/test_parallel.ml] pins this.

    Worker domains are persistent: the first call at a given job count
    spawns a pool that later calls reuse (workers park on a condition
    variable between batches and are joined at exit), so repeated [map]
    calls no longer pay a domain spawn per call. *)

val default_jobs : unit -> int
(** [Ccdb_util.Pool.default_jobs]: [Domain.recommended_domain_count ()]. *)

val cores : unit -> int
(** [Domain.recommended_domain_count ()] — the parallelism actually
    available to this process.  Recorded in BENCH.json so a speedup <= 1 on
    a single-core box reads as "no cores available", not "parallelism
    overhead". *)

val experiments : ?quick:bool -> jobs:int -> unit -> Experiments.outcome list
(** The full suite (22 experiments: E1-E14, E16, X1-X7), points fanned
    across [jobs] domains.  [~jobs:1] takes the plain serial path
    ({!Experiments.all}) without spawning any domain. *)

val map : jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** Order-preserving parallel map over independent work items (e.g. seeded
    [Driver.run] replicas).  [~jobs:1] is [List.map]. *)
