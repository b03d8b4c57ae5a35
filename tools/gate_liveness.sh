#!/bin/sh
# Gate liveness: shows that each byte-level golden gate of `dune runtest`,
# the bench schema check, the dead-export gate, the minor-words gates of
# the commit path, of batch signing, of wire digests and of one-shot
# digests, the contention tests of the encoding scratch and of the
# secp256k1 points buffer, the secp256k1 known answers and limit
# properties, the forced-portable SHA-256 property and the serve smoke's
# receipt check can still fail.  For every gate it applies one
# known-bad mutation to a scratch copy of the working tree, runs `dune
# runtest` there, and checks that the run fails on the gates the
# mutation targets.  It prints, per mutation, every gate the run turned
# red.
#
#   gate_liveness.sh <scratch-dir>
#
# <scratch-dir> must not exist yet.  It keeps the copy and one log per
# run (<scratch-dir>/_liveness/<mutation>.log) for inspection.  Each
# mutation keeps encoder and decoder consistent where it can, so the
# round-trip tests pass and only the byte pins can catch it.  Not part
# of `dune runtest`: one pass rebuilds the tree once per mutation.
# Exits 1 if the unmutated copy fails, a mutation no longer applies, or
# a mutation leaves its gate green.
set -eu

[ $# -eq 1 ] || { echo "usage: gate_liveness.sh <scratch-dir>" >&2; exit 2; }
dest=$1
[ ! -e "$dest" ] || { echo "gate_liveness: $dest already exists" >&2; exit 2; }
root=$(cd "$(dirname "$0")/.." && pwd)
mkdir -p "$dest"
(cd "$root" && tar --exclude=./_build --exclude=./.git -cf - .) |
  (cd "$dest" && tar -xf -)
cd "$dest"
mkdir _liveness # dune skips directories whose name starts with '_'

gates="commit_path read_view golden_snapshot mpt bench_values frame_damage schema dead_exports minor_words crypto_minor_words digest_minor_words oneshot_minor_words scratch_guard points_guard crypto_vectors fe_limits fe_random_limbs group_law sha_portable serve_verify"

# The output that shows a gate failed.
pattern() {
  case $1 in
  commit_path) echo '\[FAIL\] +commit-path +[0-9]+ +golden' ;;
  read_view) echo '\[FAIL\] +read-view +[0-9]+ +golden' ;;
  golden_snapshot) echo '\[FAIL\] +persistence +[0-9]+ +golden snapshot' ;;
  mpt) echo '\[FAIL\] +mpt +[0-9]+ +golden' ;;
  bench_values) echo 'deterministic smoke values diverged' ;;
  frame_damage) echo '\[FAIL\] +net +[0-9]+ +framing: damage' ;;
  schema) echo 'bench_smoke: key set of .* diverged from' ;;
  dead_exports) echo '^dead exports: (referenced nowhere|used only inside)' ;;
  minor_words) echo '\[FAIL\] +commit-path +[0-9]+ +minor words per committed' ;;
  crypto_minor_words) echo '\[FAIL\] +crypto-props +[0-9]+ +minor words per sign' ;;
  digest_minor_words) echo '\[FAIL\] +commit-path +[0-9]+ +minor words per wire digest' ;;
  oneshot_minor_words) echo '\[FAIL\] +crypto-props +[0-9]+ +minor words per one-shot digest' ;;
  scratch_guard) echo '\[FAIL\] +service +[0-9]+ +encode scratch' ;;
  points_guard) echo '\[FAIL\] +crypto-props +[0-9]+ +points buffer' ;;
  crypto_vectors) echo '\[FAIL\] +secp256k1 +[0-9]+ ' ;;
  fe_limits) echo '\[FAIL\] +crypto-props +[0-9]+ +fe ops at the magnitude bounds' ;;
  fe_random_limbs) echo '\[FAIL\] +crypto-props +[0-9]+ +fe ops at random magnitudes' ;;
  group_law) echo '\[FAIL\] +crypto-props +[0-9]+ +group law: ' ;;
  sha_portable) echo '\[FAIL\] +crypto-props +[0-9]+ +sha256: both compression loops' ;;
  serve_verify) echo 'bench_serve: cryptographic verification failed' ;;
  esac
}

# Sets [file] and the sed script [expr], optionally a second [file2] and
# [expr2], and [targets], the gates it must turn red.
mutation() {
  file2="" expr2=""
  case $1 in
  kind-tag) # journal kind tag 'N' becomes 'n', both ways
    file=lib/ledger_core/journal_codec.ml
    expr="s/'N'/'n'/g"
    targets=commit_path ;;
  wire-le) # Wire's 8-byte ints little-endian, both ways
    file=lib/crypto/wire.ml
    expr='s/_int64_be/_int64_le/g'
    targets=read_view ;;
  journal-magic) # journal magic LDBJ1 becomes LDBJ2
    file=lib/ledger_core/journal_codec.ml
    expr='s/"LDBJ1"/"LDBJ2"/'
    targets=golden_snapshot ;;
  mpt-nibble) # MPT proof nibbles written as 16..31, read back
    file=lib/mpt/mpt.ml
    expr='s/Wire.w_u8 w (Nibble.get path i)/Wire.w_u8 w (Nibble.get path i + 16)/
/^let r_nibbles/,/^$/s/let v = Wire.r_u8 r in/let v = Wire.r_u8 r - 16 in/'
    targets=mpt ;;
  step-width) # proof-step direction widened from 1 to 8 bytes
    file=lib/merkle/proof_codec.ml
    expr='s/Wire.w_u8 w (match dir/Wire.w_int w (match dir/
/^let r_step/,/^$/s/Wire.r_u8 r/Wire.r_int r/'
    targets=bench_values ;;
  crc-seed) # frame CRC seeded with 1 instead of 0, both ways
    file=lib/storage/framing.ml
    expr='s/Crc32.update 0l/Crc32.update 1l/'
    targets=frame_damage ;;
  block-codec) # clue root and world-state root swapped in the block codec
    file=lib/ledger_core/block.ml
    expr='s/w t.clue_root/w t.SWAP/; s/w t.world_state_root/w t.clue_root/
s/w t.SWAP/w t.world_state_root/
s/let clue_root = /let SWAP = /; s/let world_state_root = /let clue_root = /
s/let SWAP = /let world_state_root = /'
    targets="read_view golden_snapshot" ;;
  unused-val) # an exported value nothing uses
    file=lib/ledger_core/block.mli
    expr='$a\
\
val liveness_probe_unused : int'
    file2=lib/ledger_core/block.ml
    expr2='$a\
let liveness_probe_unused = 0'
    targets=dead_exports ;;
  common-name-val) # an exported value nothing uses, under a common name
    file=lib/ledger_core/roles.mli
    expr='$a\
\
val digest : unit -> unit'
    file2=lib/ledger_core/roles.ml
    expr2='$a\
let digest () = ()'
    targets=dead_exports ;;
  schema-key) # one key dropped from one bench's JSON writer
    file=bench/bench_par.ml
    expr='/("figure", Str "par");/d'
    targets=schema ;;
  minor-words) # 2 000 cons cells (6 000 minor words) of garbage per entry
    file=lib/ledger_core/ledger.ml
    expr='s/List.iter count_append chunk;/List.iter (fun j -> count_append j; ignore (Sys.opaque_identity (List.init 2000 Fun.id))) chunk;/'
    targets=minor_words ;;
  crypto-minor-words) # 110 cons cells (330 minor words) of garbage per signed item
    file=lib/crypto/ecdsa.ml
    expr='s/Secp256k1.mul_base_into c ks.(m) pts m/Secp256k1.mul_base_into c ks.(m) pts m; ignore (Sys.opaque_identity (List.init 110 Fun.id))/'
    targets=crypto_minor_words ;;
  digest-copy) # wire digests hash a copy of their input again
    file=lib/crypto/wire.ml
    expr='s/Hash.digest_sub w.buf 0 w.len/Hash.digest_bytes (contents w)/'
    targets=digest_minor_words ;;
  digest-alloc) # 64 bytes (10 minor words) of garbage per one-shot digest
    file=lib/crypto/sha256.ml
    expr='s/digest_into b 0 (Bytes.length b) out;/digest_into b 0 (Bytes.length b) out; ignore (Sys.opaque_identity (Bytes.create 64));/'
    targets=oneshot_minor_words ;;
  sha-portable) # one round constant wrong in the portable SHA-256 loop only
    file=lib/crypto/hash_stubs.c
    expr='s/t1 = hh + s1 + ch + K\[i\] + w\[i\];/t1 = hh + s1 + ch + (K[i] ^ (i == 17)) + w[i];/'
    targets=sha_portable ;;
  scratch-guard) # the domain's scratch handed out even while in use
    file=lib/crypto/wire.ml
    expr='s/if Atomic.compare_and_set s.busy false true then begin/if true then begin/'
    targets=scratch_guard ;;
  points-guard) # the domain's points buffer handed out even while in use
    file=lib/crypto/secp256k1.ml
    expr='s/if Atomic.compare_and_set sc.busy false true then begin/if true then begin/'
    targets=points_guard ;;
  kernel-fold) # the C field product drops its last fold, at 2^256
    file=lib/crypto/secp256k1_stubs.c
    expr='s/c = c \* R256 + r0;/c = r0;/'
    targets="crypto_vectors fe_limits fe_random_limbs group_law" ;;
  serve-lsp-key) # the load generator checks receipts against another LSP key
    file=lib/net/load_gen.ml
    expr='s/Ecdsa.generate ~seed:("lsp:" ^ lname)/Ecdsa.generate ~seed:("lsp-wrong:" ^ lname)/'
    targets=serve_verify ;;
  esac
}

status=0

# Prints the gates the run logged in $1 turned red.
red_gates() {
  red=""
  for g in $gates; do
    if grep -Eq "$(pattern "$g")" "$1"; then red="$red $g"; fi
  done
  echo "${red# }"
}

echo "gate_liveness: unmutated copy"
if ! dune runtest >_liveness/unmutated.log 2>&1; then
  echo "gate_liveness: the unmutated copy fails; see $dest/_liveness/unmutated.log"
  exit 1
fi

# Applies sed script $2 to file $1, keeping the original in _liveness/.
apply() {
  cp "$1" "_liveness/$(basename "$1").orig"
  sed -e "$2" "_liveness/$(basename "$1").orig" >"$1"
  ! cmp -s "$1" "_liveness/$(basename "$1").orig"
}

restore() {
  cp "_liveness/$(basename "$1").orig" "$1"
}

for m in kind-tag wire-le journal-magic mpt-nibble step-width crc-seed \
  block-codec unused-val common-name-val schema-key minor-words \
  crypto-minor-words digest-copy digest-alloc scratch-guard points-guard \
  kernel-fold sha-portable serve-lsp-key; do
  mutation "$m"
  applied=yes
  apply "$file" "$expr" || applied=no
  if [ -n "$file2" ]; then apply "$file2" "$expr2" || applied=no; fi
  if [ "$applied" = no ]; then
    restore "$file"
    [ -z "$file2" ] || restore "$file2"
    echo "gate_liveness: $m no longer applies to $file $file2"
    status=1
    continue
  fi
  rc=0
  dune runtest >"_liveness/$m.log" 2>&1 || rc=$?
  restore "$file"
  [ -z "$file2" ] || restore "$file2"
  red=$(red_gates "_liveness/$m.log")
  verdict=ok
  for t in $targets; do
    case " $red " in
    *" $t "*) ;;
    *) verdict="FAILED: $t stayed green"; status=1 ;;
    esac
  done
  [ "$rc" -ne 0 ] || { verdict="FAILED: runtest passed"; status=1; }
  printf '%-16s %-26s red: %-60s %s\n' "$m" "$targets" "${red:-none}" "$verdict"
done
exit "$status"
