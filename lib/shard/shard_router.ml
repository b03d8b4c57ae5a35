open Ledger_crypto

type t = { shards : int }

let create ~shards =
  if shards < 1 || shards > 1024 then
    invalid_arg "Shard_router.create: shards must be in [1,1024]";
  { shards }

(* The "#" prefix keeps digest keys out of the clue namespace. *)
let routing_key ~clues ~payload =
  match clues with
  | clue :: _ -> clue
  | [] -> "#" ^ Hash.to_hex (Hash.digest_bytes payload)

(* First 8 digest bytes as a non-negative big-endian integer: enough
   entropy that `mod shards` is uniform for any shard count we allow. *)
let route_key t key =
  let d = Hash.to_bytes (Hash.digest_string key) in
  let n = ref 0 in
  for i = 0 to 7 do
    n := (!n lsl 8) lor Char.code (Bytes.get d i)
  done;
  let v = (!n land max_int) mod t.shards in
  Ledger_obs.Metrics.observe_int "shard_routing" v;
  v

let route t ~clues ~payload = route_key t (routing_key ~clues ~payload)
let route_clue t clue = route_key t clue
