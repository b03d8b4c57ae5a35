open Ledger_crypto
open Ledger_storage

type certificate = {
  subject : Hash.t;
  issuer_sig : Ecdsa.signature;
  root_sig : Ecdsa.signature;
}

type t = {
  clock : Clock.t;
  endorse_rtt_us : int64;
  priv : Ecdsa.private_key;
  pub : Ecdsa.public_key;
  id : Hash.t;
  cert : certificate;
}

(* A process-wide simulated CA with a self-signed root. *)
let ca = lazy (Ecdsa.generate ~seed:"simulated-root-ca")
let ca_public_key () = snd (Lazy.force ca)

let ca_root_digest = lazy (Ecdsa.public_key_id (ca_public_key ()))

let issue_certificate subject =
  let ca_priv, _ = Lazy.force ca in
  {
    subject;
    issuer_sig = Ecdsa.sign ca_priv subject;
    root_sig = Ecdsa.sign ca_priv (Lazy.force ca_root_digest);
  }

type token = {
  digest : Hash.t;
  timestamp : int64;
  tsa_id : Hash.t;
  signature : Ecdsa.signature;
}

let create ?(endorse_rtt_ms = 50.) ~clock name =
  let priv, pub = Ecdsa.generate ~seed:("tsa:" ^ name) in
  let id = Ecdsa.public_key_id pub in
  {
    clock;
    endorse_rtt_us = Clock.us_of_ms endorse_rtt_ms;
    priv;
    pub;
    id;
    cert = issue_certificate id;
  }

let public_key t = t.pub

let token_signing_digest digest timestamp =
  let buf = Buffer.create 64 in
  Buffer.add_string buf "tsa-token:";
  Buffer.add_bytes buf (Hash.to_bytes digest);
  Buffer.add_string buf (Int64.to_string timestamp);
  Hash.digest_bytes (Buffer.to_bytes buf)

let endorse t digest =
  Clock.advance t.clock t.endorse_rtt_us;
  let timestamp = Clock.now t.clock in
  let signature = Ecdsa.sign t.priv (token_signing_digest digest timestamp) in
  { digest; timestamp; tsa_id = t.id; signature }

let verify_token pub token =
  Ecdsa.verify pub
    (token_signing_digest token.digest token.timestamp)
    token.signature

let verify_token_with_chain t token =
  let ca_pub = ca_public_key () in
  verify_token t.pub token
  && Ecdsa.verify ca_pub t.cert.subject t.cert.issuer_sig
  && Ecdsa.verify ca_pub (Lazy.force ca_root_digest) t.cert.root_sig

type pool = { members : t array; mutable next : int }

let pool = function
  | [] -> invalid_arg "Tsa.pool: empty"
  | members -> { members = Array.of_list members; next = 0 }

let pool_endorse p digest =
  let t = p.members.(p.next) in
  p.next <- (p.next + 1) mod Array.length p.members;
  endorse t digest

let pool_find p id_ =
  Array.find_opt (fun t -> Hash.equal t.id id_) p.members

let pool_verify p token =
  match pool_find p token.tsa_id with
  | None -> false
  | Some t -> verify_token t.pub token
