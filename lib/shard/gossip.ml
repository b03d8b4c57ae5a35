open Ledger_crypto
open Ledger_obs

type announcement = {
  ledger : string;
  epoch : int;
  super : Hash.t;
  sealed_at : int64;
  signature : Ecdsa.signature;
}

let announcement_digest ~ledger ~epoch ~super ~sealed_at =
  Hash.combine
    (Hash.digest_string
       (Printf.sprintf "ledgerdb:announce:%s:%d:%Ld" ledger epoch sealed_at))
    super

let sign ~priv ~ledger ~epoch ~super ~sealed_at =
  let signature =
    Ecdsa.sign priv (announcement_digest ~ledger ~epoch ~super ~sealed_at)
  in
  { ledger; epoch; super; sealed_at; signature }

let announcement_valid ~service_pub a =
  Ecdsa.verify service_pub
    (announcement_digest ~ledger:a.ledger ~epoch:a.epoch ~super:a.super
       ~sealed_at:a.sealed_at)
    a.signature

let w_announcement w a =
  Wire.w_string w a.ledger;
  Wire.w_int w a.epoch;
  Wire.w_hash w a.super;
  Wire.w_int64 w a.sealed_at;
  Wire.w_bytes w (Ecdsa.signature_to_bytes a.signature)

let r_announcement r =
  let ledger = Wire.r_string r in
  let epoch = Wire.r_int r in
  let super = Wire.r_hash r in
  let sealed_at = Wire.r_int64 r in
  let signature =
    match Ecdsa.signature_of_bytes (Wire.r_bytes r) with
    | Some s -> s
    | None -> raise Wire.Corrupt
  in
  { ledger; epoch; super; sealed_at; signature }

let encode_announcement a = Wire.encode (fun w -> w_announcement w a)

let decode_announcement b = Wire.decode b r_announcement

(* --- fork evidence --------------------------------------------------------- *)

type fork_evidence = { first : announcement; second : announcement }

(* Signatures are not checked here; {!verify_fork} is the judge. *)
let fork_evidence a b =
  if a.ledger = b.ledger && a.epoch = b.epoch && not (Hash.equal a.super b.super)
  then Some { first = a; second = b }
  else None

let verify_fork ~service_pub ev =
  ev.first.ledger = ev.second.ledger
  && ev.first.epoch = ev.second.epoch
  && (not (Hash.equal ev.first.super ev.second.super))
  && announcement_valid ~service_pub ev.first
  && announcement_valid ~service_pub ev.second

let fork_to_string ev =
  Printf.sprintf
    "fork evidence: %s equivocated at epoch %d (%s vs %s, both service-signed)"
    ev.first.ledger ev.first.epoch
    (Hash.short_hex ev.first.super)
    (Hash.short_hex ev.second.super)

let w_fork w ev =
  w_announcement w ev.first;
  w_announcement w ev.second

let r_fork r =
  let first = r_announcement r in
  let second = r_announcement r in
  (* refuse frames that are not even fork-shaped: same epoch & ledger,
     different roots — the signatures are for [verify_fork] to judge *)
  if
    first.ledger <> second.ledger
    || first.epoch <> second.epoch
    || Hash.equal first.super second.super
  then raise Wire.Corrupt;
  { first; second }

let encode_fork ev = Wire.encode (fun w -> w_fork w ev)

let decode_fork b = Wire.decode b r_fork

(* --- peer state ------------------------------------------------------------ *)

type verdict = Fresh | Confirmed | Forked of fork_evidence | Rejected of string

let verdict_to_string = function
  | Fresh -> "fresh"
  | Confirmed -> "confirmed"
  | Forked ev -> fork_to_string ev
  | Rejected msg -> "rejected: " ^ msg

type t = {
  name : string;
  service_pub : Ecdsa.public_key;
  ledger : string;
  seen : (int, announcement) Hashtbl.t;
  mutable evidence_rev : fork_evidence list;
}

let create ?(name = "peer") ~service_pub ~ledger () =
  { name; service_pub; ledger; seen = Hashtbl.create 16; evidence_rev = [] }

let observe t (a : announcement) =
  Metrics.incr "gossip_announcements_total";
  if a.ledger <> t.ledger then
    Rejected (Printf.sprintf "announcement for %S, expected %S" a.ledger t.ledger)
  else if not (announcement_valid ~service_pub:t.service_pub a) then begin
    Metrics.incr "gossip_bad_signatures_total";
    Rejected "bad service signature"
  end
  else begin
    match Hashtbl.find_opt t.seen a.epoch with
    | None ->
        Hashtbl.replace t.seen a.epoch a;
        Fresh
    | Some prior -> (
        match fork_evidence prior a with
        | None -> Confirmed
        | Some ev ->
            (* only count evidence once per conflicting pair *)
            if
              not
                (List.exists
                   (fun e ->
                     e.first.epoch = ev.first.epoch
                     && Hash.equal e.second.super ev.second.super)
                   t.evidence_rev)
            then begin
              t.evidence_rev <- ev :: t.evidence_rev;
              Metrics.incr "gossip_fork_evidence_total";
              Audit_log.record ~verifier:("gossip:" ^ t.name)
                (Audit_log.Fork_epoch ev.first.epoch)
                (Audit_log.Repudiated (fork_to_string ev))
            end;
            Forked ev)
  end

let exchange a b =
  let found = ref None in
  let feed src dst =
    Hashtbl.iter
      (fun _ ann ->
        match observe dst ann with
        | Forked ev when !found = None -> found := Some ev
        | _ -> ())
      src.seen
  in
  feed a b;
  feed b a;
  (match !found with
  | None ->
      (* either side may already hold evidence from earlier exchanges *)
      found :=
        (match (a.evidence_rev, b.evidence_rev) with
        | ev :: _, _ | _, ev :: _ -> Some ev
        | [], [] -> None)
  | Some _ -> ());
  !found

let compromised t = t.evidence_rev <> []

let condemn t client =
  if compromised t then Ledger_core.Ledger_client.note_verification_failure client
