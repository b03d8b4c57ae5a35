let block_size = 64

(* A key's two padded blocks and the two contexts every message under it
   is hashed with, reset for each one: a key used for many messages
   (batch signing derives every nonce under the private key) builds
   them once.  Owned by one caller; never shared. *)
type keyed = {
  ipad : bytes;
  opad : bytes;
  inner : Sha256.ctx;
  outer : Sha256.ctx;
}

let keyed key =
  let key =
    if Bytes.length key > block_size then Sha256.digest_bytes key else key
  in
  let klen = Bytes.length key in
  let pad_key c =
    let b = Bytes.make block_size c in
    let cc = Char.code c in
    for i = 0 to klen - 1 do
      Bytes.unsafe_set b i
        (Char.unsafe_chr (Char.code (Bytes.unsafe_get key i) lxor cc))
    done;
    b
  in
  { ipad = pad_key '\x36'; opad = pad_key '\x5c'; inner = Sha256.init ();
    outer = Sha256.init () }

let mac_keyed k msg =
  Sha256.reset k.inner;
  Sha256.update k.inner k.ipad;
  Sha256.update k.inner msg;
  let inner_digest = Sha256.finalize k.inner in
  Sha256.reset k.outer;
  Sha256.update k.outer k.opad;
  Sha256.update k.outer inner_digest;
  Sha256.finalize k.outer

let mac ~key msg = mac_keyed (keyed key) msg

let mac_string ~key msg =
  mac ~key:(Bytes.of_string key) (Bytes.of_string msg)
