open Ledger_crypto
open Ledger_storage
open Ledger_core

type deployment = Local | Cloud

type t = {
  ledger : Ledger.t;
  clock : Clock.t;
  member : Roles.member;
  priv : Ecdsa.private_key;
  deployment : deployment;
  entry_io_ms : float; (* one CM-Tree2 entry random I/O *)
  server_base_ms : float; (* fixed per-verification server work *)
}

let make deployment ~clock =
  let latency, crypto =
    match deployment with
    | Local ->
        ( { Latency_model.default with net_rtt_us = 0. },
          Crypto_profile.Simulated { sign_us = 6.; verify_us = 10. } )
    | Cloud ->
        ( Latency_model.cloud_service,
          Crypto_profile.Simulated { sign_us = 10.; verify_us = 15. } )
  in
  let config =
    { Ledger.name = "app-ledger"; latency; crypto;
      fam_delta = 15; block_size = 256; member_ca = None }
  in
  let ledger = Ledger.create ~config ~clock () in
  let member, priv =
    Ledger.new_member ledger ~name:"app-client" ~role:Roles.Regular_user
  in
  {
    ledger;
    clock;
    member;
    priv;
    deployment;
    entry_io_ms = 0.1;
    server_base_ms = (match deployment with Local -> 2.0 | Cloud -> 0.5);
  }

let create_local ~clock = make Local ~clock
let create_cloud ~clock = make Cloud ~clock

let charge_ms t ms = Clock.advance t.clock (Clock.us_of_ms ms)

let charge_rtt t =
  match t.deployment with
  | Local -> Latency_model.charge_net Latency_model.default t.clock
  | Cloud -> Latency_model.charge_cloud Latency_model.cloud_service t.clock

let log2i n =
  let rec go acc n = if n <= 1 then acc else go (acc + 1) (n lsr 1) in
  go 0 (max 1 n)

(* per-append index maintenance grows logarithmically with ledger size *)
let charge_index_cost t =
  let us = 0.2 *. float_of_int (log2i (Ledger.size t.ledger + 1)) in
  Clock.advance t.clock (Int64.of_float us)

let insert t ~id data =
  charge_rtt t;
  charge_index_cost t;
  ignore (Ledger.append t.ledger ~member:t.member ~priv:t.priv ~clues:[ id ] data)

(* Closed-loop throughput variant: requests are pipelined, so the client
   round trip does not serialize; only server-side work is charged. *)
let insert_pipelined t ~id data =
  charge_index_cost t;
  ignore (Ledger.append t.ledger ~member:t.member ~priv:t.priv ~clues:[ id ] data)

let retrieve t ~id =
  charge_rtt t;
  match Ledger.clue_jsns t.ledger id with
  | [] -> None
  | jsn :: _ -> Ledger.payload t.ledger jsn

(* One verification: server resolves the clue, reads each entry with one
   random I/O, assembles the batch proof; client replays it locally. *)
let verify_clue_charged t ~key =
  charge_rtt t;
  charge_ms t t.server_base_ms;
  let entries = Ledger.clue_entries t.ledger key in
  charge_ms t (float_of_int entries *. t.entry_io_ms);
  match Ledger.prove_clue t.ledger ~clue:key () with
  | None -> false
  | Some proof -> Ledger.verify_clue_client t.ledger proof

let verify t ~id = verify_clue_charged t ~key:id

let put_version t ~key data =
  charge_rtt t;
  charge_index_cost t;
  ignore
    (Ledger.append t.ledger ~member:t.member ~priv:t.priv ~clues:[ key ] data)

let version_count t ~key = Ledger.clue_entries t.ledger key
let verify_lineage t ~key = verify_clue_charged t ~key

let verify_lineage_server t ~key =
  let entries = Ledger.clue_entries t.ledger key in
  if entries = 0 then false
  else begin
    charge_ms t (float_of_int entries *. t.entry_io_ms);
    Ledger.verify_clue_server t.ledger ~clue:key
  end

let size t = Ledger.size t.ledger
