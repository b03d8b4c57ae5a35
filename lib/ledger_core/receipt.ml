open Ledger_crypto

type t = {
  jsn : int;
  request_hash : Hash.t;
  tx_hash : Hash.t;
  block_hash : Hash.t;
  timestamp : int64;
  lsp_sig : Ecdsa.signature;
}

let signing_digest ~jsn ~request_hash ~tx_hash ~block_hash ~timestamp =
  Wire.encode_digest (fun w ->
      Wire.w_string w "receipt";
      Wire.w_int w jsn;
      Wire.w_hash w request_hash;
      Wire.w_hash w tx_hash;
      Wire.w_hash w block_hash;
      Wire.w_int64 w timestamp)

let make ~lsp_priv ~jsn ~request_hash ~tx_hash ~block_hash ~timestamp =
  let digest = signing_digest ~jsn ~request_hash ~tx_hash ~block_hash ~timestamp in
  { jsn; request_hash; tx_hash; block_hash; timestamp;
    lsp_sig = Ecdsa.sign lsp_priv digest }

let verify ~lsp_pub t =
  let digest =
    signing_digest ~jsn:t.jsn ~request_hash:t.request_hash ~tx_hash:t.tx_hash
      ~block_hash:t.block_hash ~timestamp:t.timestamp
  in
  Ecdsa.verify lsp_pub digest t.lsp_sig

let is_final t = not (Hash.equal t.block_hash Hash.zero)
