#!/bin/sh
# Gate liveness: shows that each byte-level golden gate of `dune runtest`
# can still fail.  For every gate it applies one known-bad codec mutation
# to a scratch copy of the working tree, runs `dune runtest` there, and
# checks that the run fails on that gate.  It prints, per mutation, every
# gate the run turned red.
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

gates="commit_path read_view golden_snapshot mpt bench_values frame_damage"

# The output that shows a gate failed.
pattern() {
  case $1 in
  commit_path) echo '\[FAIL\] +commit-path +[0-9]+ +golden' ;;
  read_view) echo '\[FAIL\] +read-view +[0-9]+ +golden' ;;
  golden_snapshot) echo '\[FAIL\] +persistence +[0-9]+ +golden snapshot' ;;
  mpt) echo '\[FAIL\] +mpt +[0-9]+ +golden' ;;
  bench_values) echo 'deterministic smoke values diverged' ;;
  frame_damage) echo '\[FAIL\] +net +[0-9]+ +framing: damage' ;;
  esac
}

# Sets [file], the sed script [expr] and the gate it must turn red.
mutation() {
  case $1 in
  kind-tag) # journal kind tag 'N' becomes 'n', both ways
    file=lib/ledger_core/journal_codec.ml
    expr="s/'N'/'n'/g"
    target=commit_path ;;
  wire-le) # Wire's 8-byte ints little-endian, both ways
    file=lib/crypto/wire.ml
    expr='s/_int64_be/_int64_le/g'
    target=read_view ;;
  journal-magic) # journal magic LDBJ1 becomes LDBJ2
    file=lib/ledger_core/journal_codec.ml
    expr='s/"LDBJ1"/"LDBJ2"/'
    target=golden_snapshot ;;
  mpt-nibble) # MPT proof nibbles written as 16..31, read back
    file=lib/mpt/mpt.ml
    expr='s/Wire.w_u8 w (Nibble.get path i)/Wire.w_u8 w (Nibble.get path i + 16)/
/^let r_nibbles/,/^$/s/let v = Wire.r_u8 r in/let v = Wire.r_u8 r - 16 in/'
    target=mpt ;;
  step-width) # proof-step direction widened from 1 to 8 bytes
    file=lib/merkle/proof_codec.ml
    expr='s/Wire.w_u8 w (match dir/Wire.w_int w (match dir/
/^let r_step/,/^$/s/Wire.r_u8 r/Wire.r_int r/'
    target=bench_values ;;
  crc-seed) # frame CRC seeded with 1 instead of 0, both ways
    file=lib/storage/framing.ml
    expr='s/Crc32.update 0l/Crc32.update 1l/'
    target=frame_damage ;;
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

for m in kind-tag wire-le journal-magic mpt-nibble step-width crc-seed; do
  mutation "$m"
  cp "$file" _liveness/original
  sed -e "$expr" _liveness/original >"$file"
  if cmp -s "$file" _liveness/original; then
    echo "gate_liveness: $m no longer applies to $file"
    status=1
    continue
  fi
  rc=0
  dune runtest >"_liveness/$m.log" 2>&1 || rc=$?
  cp _liveness/original "$file"
  red=$(red_gates "_liveness/$m.log")
  case " $red " in
  *" $target "*) verdict=ok ;;
  *) verdict="FAILED: $target stayed green"; status=1 ;;
  esac
  [ "$rc" -ne 0 ] || { verdict="FAILED: runtest passed"; status=1; }
  printf '%-14s %-16s red: %-60s %s\n' "$m" "$target" "${red:-none}" "$verdict"
done
exit "$status"
