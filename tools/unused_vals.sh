#!/bin/sh
# Dead-export gate: lists every `val` declared in lib/**/*.mli whose name
# occurs as a word in no OCaml source (*.ml, *.mli) under lib/ bin/ bench/
# test/ examples/ benchmark/ except its own declaration and definition,
# and fails when it finds one.
#
#   unused_vals.sh
#
# Matching is by word, so a mention in a comment counts as a use and the
# gate flags only code that is certainly dead.  A name is flagged when it
# occurs at most twice in the scanned sources: once after `val` in the
# .mli and, at most, once where the .ml defines it.
set -eu

cd "$(dirname "$0")/.."
dirs="lib bin bench test examples benchmark"

counts=$(mktemp)
trap 'rm -f "$counts"' EXIT
# shellcheck disable=SC2086
grep -rhow --include='*.ml' --include='*.mli' --exclude-dir='.*' \
  "[A-Za-z_][A-Za-z0-9_']*" $dirs |
  sort | uniq -c > "$counts"

unused=$(
  find lib -name '*.mli' ! -path '*/.*' | sort |
    xargs sed -n "s/^[[:space:]]*val[[:space:]]\{1,\}\([a-z_][A-Za-z0-9_']*\).*/\1/p" |
    sort -u |
    awk 'NR == FNR { n[$2] = $1; next } n[$1] <= 2' "$counts" -
)

if [ -n "$unused" ]; then
  echo "unused vals: declared in lib/ but referenced nowhere:"
  echo "$unused" | sed 's/^/  /'
  exit 1
fi
echo "unused vals check passed"
