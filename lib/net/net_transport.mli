(** {!Ledger_core.Transport.t} over a real TCP connection.

    The whole client stack — {!Ledger_core.Ledger_client},
    {!Ledger_core.Replica.pull_verbose},
    {!Ledger_shard.Sharded_replica.pull_all} — was written against the
    abstract [bytes -> bytes] channel; this module makes that channel a
    kernel socket without any call-site changing.

    Fault mapping follows the {!Ledger_core.Transport} contract: every
    socket-level failure — connection refused, reset, EOF mid-response,
    a response slower than [response_timeout_s], a response frame that
    fails CRC — closes the connection and raises
    {!Ledger_core.Transport.Timeout}, the transient-fault signal the
    retry policy knows how to back off on.  The next request
    transparently reconnects, so a server restart between requests is
    invisible to a retrying caller.  Definitive service refusals arrive
    as well-formed [Error_r] frames and pass through untouched. *)

type t

val connect :
  ?response_timeout_s:float ->
  ?max_frame:int ->
  host:string ->
  port:int ->
  unit ->
  t
(** A lazily-connecting endpoint: the socket is dialled on first use
    and re-dialled after any fault.  [response_timeout_s] (default 5 s
    of {e wall} clock, enforced with [SO_RCVTIMEO]) bounds how long one
    request waits for its response frame. *)

val transport : t -> Ledger_core.Transport.t
(** The channel to hand to [Transport.request],
    {!Ledger_core.Ledger_client} or a replica pull.  Serialized by an
    internal lock, so one endpoint may be shared across threads. *)

val close : t -> unit
(** Drop the current connection (if any).  The endpoint stays usable —
    the next request reconnects. *)
