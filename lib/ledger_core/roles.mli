(** Ledger membership and roles.

    Members are registered with CA-certified public keys (threat model,
    §II-B).  Roles gate the mutation operations: purge needs the DBA and
    all affected members (Prerequisite 1); occult needs the DBA and a
    regulator (Prerequisite 2). *)

open Ledger_crypto

type role = Regular_user | Dba | Regulator

type member = { name : string; role : role; pub : Ecdsa.public_key; id : Hash.t }

type registry

val create_registry : unit -> registry

val register : registry -> name:string -> role:role -> Ecdsa.public_key -> member
(** @raise Invalid_argument if a member with the same key is already
    registered. *)

val find : registry -> Hash.t -> member option
val find_by_name : registry -> string -> member option
val members : registry -> member list

val members_wire : registry -> (string * string * bytes) list
(** Every member as its [Get_members] wire triple [(name, role, public
    key bytes)], sorted by name (equal names by key bytes).  Each triple
    is encoded once, by {!register}, which replaces the list; reading it
    is O(1), and a list already handed out never changes. *)

val w_member : Wire.writer -> string * string * bytes -> unit
(** One {!members_wire} triple: name, role tag and key bytes, each
    length-prefixed ([Get_members] replies and [members.ldb] frames). *)

val r_member : Wire.reader -> string * string * bytes

val with_role : registry -> role -> member list
val cardinal : registry -> int

val role_to_string : role -> string

val role_of_string : string -> role option
(** Inverse of {!role_to_string}. *)

(** {1 Member certification (§II-B)}

    The threat model assumes every participant's public key is certified
    by a CA.  Certificates are recorded alongside the registry; when a
    ledger is configured with a member CA, registration and the audit's
    who pass require them. *)

type certificate = { subject : Hash.t; signature : Ecdsa.signature }

val certify : ca_priv:Ecdsa.private_key -> Ecdsa.public_key -> certificate
(** CA-sign a member key (the signed message is the key's id). *)

val verify_certificate :
  ca_pub:Ecdsa.public_key -> Ecdsa.public_key -> certificate -> bool

val record_certificate : registry -> certificate -> unit
val certificate_of : registry -> Hash.t -> certificate option
