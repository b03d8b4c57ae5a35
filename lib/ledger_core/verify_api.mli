(** The unified Verify API of §IV-C:

    {v Verify(lgid, CLUE, *{key, txdata, rho, root}, level) v}

    A single entry point dispatching on the verification target (journal
    existence, whole clue, clue version range, LSP receipt) and the trust
    level ([Server] when the LSP is trusted and verifies in place;
    [Client] when proof objects are assembled, shipped, and replayed by
    the caller).  This mirrors how the production service exposes one
    Verify endpoint over the underlying mechanisms. *)

open Ledger_crypto

type level = Server | Client
(** Where the validation runs (paper §II-C: "verified at server side when
    LSP can be fully trusted; verified at client side when LSP is
    distrusted"). *)

type target =
  | Existence of { jsn : int; payload_digest : Hash.t option }
      (** journal existence against the fam commitment *)
  | Clue of { key : string }
      (** entire N-lineage of a clue *)
  | Clue_range of { key : string; first : int; last : int }
      (** lineage within version boundaries *)
  | Receipt_check of Receipt.t
      (** an LSP receipt held by the client *)
  | Query_complete of {
      spec : Ledger_query.Range_query.spec;
      window : Ledger_query.Range_query.window option;
      page_size : int;
    }
      (** a full paginated range/prefix scan replayed with completeness
          proofs against the ordered query index (DESIGN.md §16); at
          [Server] level the ordered index is checked for internal
          consistency instead *)

type outcome = {
  target : target;
  level : level;
  ok : bool;
  detail : string;
}

val spec_str : Ledger_query.Range_query.spec -> string
(** Short human-readable rendering of a query spec (audit subjects,
    outcome printing). *)

val level_name : level -> string
(** ["server"] or ["client"]: the audit-trail verifier name of a level. *)

val record_audit : verifier:string -> outcome -> unit
(** Append the outcome to {!Ledger_obs.Audit_log} under [verifier], its
    target mapped to the audited subject (a query spec is filed as a
    clue subject).  A no-op while observability is off. *)

val check : Ledger.t -> level:level -> target -> outcome
(** Replay the target's proofs against the ledger's current state on
    every call, as the paper's Verify does; nothing is memoized, so a
    verdict always reflects erasures by purge, occult and
    {!Ledger.reorganize}.  Records nothing: for a verifier that files
    the verdict under its own name (the sharded one). *)

val verify : Ledger.t -> level:level -> target -> outcome
(** {!check}, its outcome then recorded with {!record_audit} under
    {!level_name}: one audit entry per verdict (the ledger checks it
    calls record nothing). *)

val verify_all : Ledger.t -> level:level -> target list -> outcome list * bool
(** All targets; the conjunction is the second component (any failure
    fails the batch, as in the audit). *)

val pp_outcome : Format.formatter -> outcome -> unit
