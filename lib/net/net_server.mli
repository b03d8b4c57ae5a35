(** Multi-domain TCP server for the ledger wire protocol.

    The first layer of the system that faces real kernel sockets: a
    listening socket shared by [workers] accept/serve domains, each
    running its own [select] loop over the connections it accepted.
    Frames are decoded with {!Net_framing}, dispatched into a backend
    ([bytes -> bytes] — {!Ledger_core.Service.handle} applied to a
    ledger, or {!Ledger_shard.Sharded_service.handle}), and the framed
    response is written back on the same connection.

    Threat model: the service is {e untrusted} by its clients (they
    verify every proof), but the network is untrusted by the {e server}
    too — a peer may send garbage, claim absurd frame lengths, open
    connections and stall, or vanish mid-request.  Every such behaviour
    is answered with a typed refusal or a closed connection, never a
    crash: a framing error gets one framed [Error_r] before the close,
    an over-capacity connection is refused the same way, and a peer
    disappearing mid-write is reaped silently.

    Dispatch is split.  Mutations — and every request when no [read]
    handler is installed — are serialized by a global lock, keeping the
    single-writer ledger structures sequentially consistent.  Reads go
    through the optional [read] handler
    ({!Ledger_core.Service.handle_read},
    {!Ledger_shard.Sharded_service.handle_read}) {e without taking any
    lock}: they are answered from the ledger's atomically-published
    immutable snapshot on whichever worker domain owns the connection,
    so read throughput scales with [workers] instead of queueing behind
    the writer.  Graceful shutdown ({!stop}) closes the listener first
    (freeing the port for an immediate restart — [SO_REUSEADDR] is
    set), then lets every worker drain buffered requests to completion
    — reads still lock-free — before its connections are closed. *)

type config = {
  host : string;  (** bind address, default ["127.0.0.1"] *)
  port : int;  (** 0 picks an ephemeral port; read it back with {!port} *)
  workers : int;  (** accept/serve domains *)
  max_conns : int;  (** global cap; excess connections are refused *)
  max_frame : int;  (** per-frame payload limit, see {!Net_framing} *)
  backlog : int;  (** listen queue depth *)
}

val default_config : config
(** loopback, ephemeral port, 4 workers, 1024 connections, 8 MiB
    frames. *)

type t

val create : ?config:config -> ?read:(bytes -> bytes option) -> (bytes -> bytes) -> t
(** Bind, listen and spawn the worker domains.  The backend runs under
    the server's dispatch lock and must never raise (both [handle]
    entry points already guarantee this).

    [read] is the lock-free fast path: it is called first on every
    frame, concurrently from all worker domains, with no lock held.
    [Some resp] answers the request; [None] routes it to the locked
    backend.  Pass {!Ledger_core.Service.handle_read} (or the sharded
    equivalent) partially applied to the same state as the backend —
    it must be domain-safe and never raise.  Omitting [read] restores
    fully serialized dispatch.
    @raise Unix.Unix_error when the address cannot be bound. *)

val port : t -> int
(** The bound port — the ephemeral port when [config.port] was 0. *)

val stop : t -> unit
(** Graceful drain: close the listener, let workers finish every
    complete request already received (including bytes still in kernel
    buffers), flush responses, close connections, join the domains.
    Idempotent. *)

val running : t -> bool
(** [false] once a stop has begun — by {!stop} or by a signal caught
    through {!install_signal_handlers}. *)

val install_signal_handlers : t -> unit
(** On SIGINT or SIGTERM, begin a stop: workers drain and exit, and
    {!running} turns [false].  The handler never joins a domain (OCaml
    may run it on a worker), so the owner must still call {!stop} —
    typically after polling {!running} — to close the listener and join
    the workers. *)

type stats = {
  accepted : int;  (** connections accepted over the server's lifetime *)
  refused : int;  (** connections refused at [max_conns] *)
  active : int;  (** connections currently open *)
  served : int;  (** requests dispatched (both paths) *)
  read_served : int;  (** requests answered on the lock-free read path *)
  framing_errors : int;  (** connections dropped on a decode failure *)
}

val stats : t -> stats
(** Lifetime counters, readable while serving; independent of the
    {!Ledger_obs.Obs} sink state.  The same events also feed the
    [net_*] metrics when recording is enabled — including
    [net_read_dispatch_total] / [net_locked_dispatch_total] and the
    per-domain [net_read_dispatch_domain_<i>] counters that make
    "reads never took the lock" checkable from a test. *)
