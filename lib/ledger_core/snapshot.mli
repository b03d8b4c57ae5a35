(** The on-disk snapshot format, the one owner of its bytes:
    {!Ledger.save} writes through it, {!Replica} stages a pulled ledger
    through it, and {!Ledger.load} reads both back through it.

    A snapshot directory holds five files, each a sequence of CRC-32
    frames ({!Ledger_storage.Framing}) whose fields are {!Wire} fields:
    - [journals.ldb]: one frame per journal,
      [[32-byte tx][Journal_codec encoding]] — the retained leaf first,
      since occulted and purged journals cannot be re-hashed;
    - [members.ldb]: one frame per member, its {!Roles.w_member} triple
      and an optional certificate signature;
    - [blocks.ldb]: one {!Block.w_block} frame per sealed block;
    - [survivors.ldb]: one frame per {!survivor_record};
    - [meta.ldb]: one {!checkpoint} frame, the record the service's
      [Checkpoint_r] carries.

    Only [journals.ldb] may end in a torn tail; damage anywhere else, a
    record that does not decode, and a snapshot in an older layout are
    refused. *)

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
  out_channel -> string * string * bytes -> cert:Ecdsa.signature option -> unit
(** A {!Roles.members_wire} triple and the member's certificate
    signature, if any. *)

val iter_members :
  string ->
  (name:string ->
  role:Roles.role ->
  certificate:Roles.certificate option ->
  Ecdsa.public_key ->
  unit) ->
  unit
(** Decode every record, then pass each on in file order.
    @raise Failure on a damaged frame, an unknown role or an undecodable
    key. *)

val output_block : out_channel -> Block.t -> unit

val read_blocks : string -> Block.t list
(** @raise Failure on a damaged or undecodable frame. *)

val survivor_record : jsn:int -> bytes -> bytes
(** A survival-stream record: the journal's jsn, then its payload. *)

val survivor_of_record : bytes -> (int * bytes) option

val read_survivors : string -> (int * bytes) list
(** Every record of a survivors file as [(jsn, payload)].
    @raise Failure on a damaged or undecodable frame. *)

type checkpoint = {
  name : string;
  size : int;
  block_count : int;
  commitment : Hash.t;  (** {!Hash.zero} for an empty ledger *)
  clue_root : Hash.t;
  nonce : int;
  pseudo_genesis : int option;
}
(** What a load must reproduce: the ledger as it stood when it was saved
    or served. *)

val w_checkpoint : Wire.writer -> checkpoint -> unit
val r_checkpoint : Wire.reader -> checkpoint
val output_checkpoint : out_channel -> checkpoint -> unit

val read_checkpoint : string -> checkpoint
(** @raise Failure unless the file is exactly one intact checkpoint
    frame. *)
