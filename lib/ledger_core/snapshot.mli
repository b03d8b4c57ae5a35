(** The on-disk snapshot format, the one owner of its bytes:
    {!Ledger.save} writes through it, {!Replica} stages a pulled ledger
    through it, and {!Ledger.load} reads both back through it.

    A snapshot directory holds five files:
    - [journals.ldb]: one CRC-32 frame ({!Ledger_storage.Framing}) per
      journal, [[32-byte tx][Journal_codec encoding]] — the retained leaf
      first, since occulted and purged journals cannot be re-hashed;
    - [members.ldb]: a ["role\thex-pubkey\thex-cert\tname"] line per
      member ([-] for no certificate);
    - [blocks.ldb]: a line per sealed block, every field, hashes in hex;
    - [survivors.ldb]: one frame per {!survivor_record};
    - [meta.ldb]: [key=value] checkpoints a load must reproduce. *)

open Ledger_crypto

val journals_file : string
val members_file : string
val blocks_file : string
val survivors_file : string
val meta_file : string

val write : ?append:bool -> dir:string -> string -> (out_channel -> 'a) -> 'a
(** Run the writer on [dir/file], truncated or appended to, then close it. *)

val output_journal : out_channel -> tx:Hash.t -> bytes -> unit

val fold_journals :
  string ->
  init:'a ->
  ('a -> tx:Hash.t -> bytes -> 'a option) ->
  'a * Ledger_storage.Framing.ending
(** {!Ledger_storage.Framing.fold} over a journals file, each frame split
    into its leaf and its encoding; a frame too short to hold a leaf ends
    the walk as [Rejected]. *)

val output_member :
  out_channel ->
  role:string ->
  pub:bytes ->
  cert:bytes option ->
  name:string ->
  unit
(** The role as {!Roles.role_to_string}, key and certificate in wire form. *)

val iter_members :
  string ->
  (name:string ->
  role:Roles.role ->
  certificate:Roles.certificate option ->
  Ecdsa.public_key ->
  unit) ->
  unit
(** Decode each line, in file order, and pass it on; also reads the
    legacy line without a certificate column.
    @raise Failure on an undecodable key or certificate. *)

val output_block : out_channel -> Block.t -> unit
val read_blocks : string -> Block.t list

val survivor_record : jsn:int -> bytes -> bytes
(** A survival-stream record: the journal's jsn, then its payload. *)

val survivor_of_record : bytes -> (int * bytes) option

type checkpoint = {
  size : int option;
  nonce : int option;
  commitment : Hash.t option;  (** [None] for an empty ledger *)
  clue_root : Hash.t option;
}
(** What [meta.ldb] records; a missing key reads as [None]. *)

val output_meta :
  out_channel ->
  name:string ->
  size:int ->
  nonce:int ->
  commitment:Hash.t ->
  clue_root:Hash.t ->
  pseudo_genesis:int option ->
  unit

val read_meta : string -> checkpoint
(** @raise Failure on a malformed number or hash. *)
