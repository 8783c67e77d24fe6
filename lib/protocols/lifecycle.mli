(** The transaction lifecycle the protocol systems share.

    In the Precedence-Assignment Model (sections 2-3) concurrency-control
    algorithms differ only in how each copy's queue assigns and enforces
    precedence.  Everything around that queue is common plumbing, and it
    lives here: read-one/write-all copy resolution, the per-copy queue
    table, the registry of live transactions (duplicate-id check, commit),
    restart scheduling, the crash/stall/wipe sweeps, the 2PC engine of a
    durable runtime and the deadlock-detector wiring.  Each system keeps
    its own queue discipline, phase machine and the predicates passed in
    here.

    The helpers are polymorphic in the system's queue type ['q] and its
    per-transaction state ['st].  Sweeps, wipes and wait-for snapshots walk
    the tables in [Hashtbl] order, which depends on each table's initial
    size and insertion order; both are part of every run's event stream
    and must not change. *)

type payload_fn = (int -> int) -> (int * int) list
(** A transaction body: given the value read for each item in its access
    sets, produces the [(item, value)] pairs to write.  Without one, every
    written item receives the transaction id. *)

(** {1 Copy resolution (read-one/write-all)} *)

val read_copies : Runtime.t -> Ccdb_model.Txn.t -> (int * int) list
(** One [(item, site)] per read item: the copy nearest the issuing site
    ({!Ccdb_storage.Catalog.read_site}). *)

val write_copies : Runtime.t -> Ccdb_model.Txn.t -> (int * int) list
(** Every copy of every written item. *)

val copies :
  Runtime.t -> Ccdb_model.Txn.t -> (int * int * Ccdb_model.Op.kind) list
(** {!read_copies} then {!write_copies}, each tagged with its operation. *)

(** {1 Write values} *)

val writes :
  payload_fn option -> Ccdb_model.Txn.t -> reads:(int * int) list ->
  (int * int) list
(** Runs the payload over the values read ([0] for an item not read), or
    writes the transaction id to every item of the write set. *)

val value_for : Ccdb_model.Txn.t -> (int * int) list -> int -> int
(** The value {!writes} produced for an item, the transaction id if none. *)

(** {1 Per-copy queues} *)

type 'q queues
(** One queue per physical copy, created on first use. *)

val queues : (unit -> 'q) -> 'q queues

val queue : 'q queues -> int * int -> 'q

val fold_queues : 'q queues -> (int * int -> 'q -> 'a -> 'a) -> 'a -> 'a

val fold_site :
  'q queues -> site:int -> (int * int -> 'q -> 'a -> 'a) -> 'a -> 'a
(** Like {!fold_queues}, restricted to the copies hosted at [site]. *)

(** {1 Live transactions} *)

type 'st t

val create : Runtime.t -> name:string -> txn:('st -> Ccdb_model.Txn.t) -> 'st t
(** [name] prefixes the duplicate-id error; [txn] reads a state's
    (current) transaction. *)

val find : 'st t -> int -> 'st option

val active : _ t -> int
(** Transactions admitted and not yet committed. *)

val admit : 'st t -> Ccdb_model.Txn.t -> (unit -> 'st) -> 'st
(** Registers a new transaction: builds its state, counts it active and
    tracks it for stall detection ({!Runtime.track}).
    @raise Invalid_argument ["<name>.submit: duplicate transaction id"] if
    the id is still live; the state is not built then. *)

val commit :
  ?keep:bool -> 'st t -> 'st -> submitted_at:float -> executed_at:float ->
  restarts:int -> unit
(** Emits [Txn_committed], forgets the state (unless [keep]: a unified
    T/O transaction still drains its semi-locks) and decrements the active
    count; the centralized detector stops when nothing is active. *)

val forget : 'st t -> int -> unit
(** Drops a state kept past its commit. *)

val schedule_restart :
  _ t -> site:int -> base:float -> attempt:int -> (unit -> unit) -> unit
(** Runs the next attempt after {!Runtime.restart_backoff}. *)

(** {1 Faults} *)

val restart_on_faults :
  'st t -> restartable:('st -> bool) -> touches:('st -> int -> bool) ->
  restart:('st -> unit) -> unit
(** On a site crash, restarts every [restartable] transaction whose home
    site crashed or that [touches] the dead site, in id order; on a stall,
    restarts the stalled transaction if it is [restartable]. *)

val on_wipe :
  ?announce:bool -> _ t -> 'q queues -> drop:('q -> int list) ->
  kept:('q -> int) -> unit
(** Fail-stop wipe handler (registered only on a durable runtime): [drop]
    empties a queue's volatile entries and names their transactions, each
    announced as [Request_dropped] unless [announce] is false; [kept]
    counts the entries that survive.  Reports [(dropped, preserved)]. *)

val durable_commit :
  'st t ->
  apply:(txn:int -> site:int -> Ccdb_storage.Wal.action list -> unit) ->
  commit_point:('st -> unit) -> unit
(** On a durable runtime, creates the atomic-commitment engine
    ({!Commit}): [apply] implements a participant's actions once it learns
    the decision, [commit_point] fires for a still-live transaction. *)

val committer : _ t -> Commit.t option
(** The engine {!durable_commit} created, if any. *)

val by_site : (int * 'a) list -> (int * 'a list) list
(** Groups [(site, x)] pairs by site, sites ascending, each group in input
    order: a 2PC participant list. *)

(** {1 Deadlock detection (2PL-capable systems)} *)

type 'st waits = {
  waiting : 'st -> bool;
      (** still waiting for grants: the centralized detector's abort is
          sent only to such a transaction *)
  restarting : 'st -> bool;
      (** already aborted; a cycle through it breaks on its own *)
  pick : int list -> int option;  (** victim of a witness cycle *)
  blocked : 'st -> bool;  (** probes pass through this transaction *)
  pending_sites : 'st -> int list;
      (** queue-manager sites of its outstanding waits *)
  may_initiate : 'st -> bool;  (** starts probe rounds *)
  abort : 'st -> unit;  (** deadlock victim; re-checks its own phase *)
}

val detect :
  'st t -> Deadlock.detection -> 'q queues ->
  waits_for:('q -> (int * int) list) -> 'st waits -> unit
(** Builds the detector over the queues' wait-for edges.  Either kind
    announces each cycle it acts on as [Deadlock_detected]; the centralized
    one skips a cycle with a restarting member. *)

val start_detector : _ t -> unit
(** Starts the centralized detector's periodic scans (no-op otherwise). *)

val notify_blocked : _ t -> int -> unit
val notify_unblocked : _ t -> int -> unit
val notify_progress : _ t -> int -> unit
(** Edge-chasing bookkeeping ({!Edge_chasing.txn_blocked} and friends);
    no-ops under the centralized detector. *)

val detector_cycles : _ t -> int
(** Cycles the detector resolved so far (either mechanism). *)
