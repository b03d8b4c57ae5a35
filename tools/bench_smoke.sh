#!/bin/sh
# Smoke-check the machine-readable bench output.
#
#   bench_smoke.sh --run <bench-exe> <outdir>
#       run the fixed-seed smoke benches, writing BENCH_*.json to <outdir>
#
#   bench_smoke.sh --check <BENCH_x.json> <schema.keys>
#       fail if the JSON's key set differs from the checked-in schema
#       (a renamed or dropped metric breaks downstream consumers)
#
#   bench_smoke.sh --values <BENCH_x.json>...
#       print one "<figure> <path> <value>" line per scalar of each JSON,
#       leaving out the wall-clock fields (see values_of)
#
#   bench_smoke.sh --check-values <golden> <BENCH_x.json>...
#       fail if those lines differ from the checked-in golden (a moved
#       simulated cost, proof size or count)
set -eu

usage() {
  echo "usage: bench_smoke.sh --run <bench-exe> <outdir>" >&2
  echo "       bench_smoke.sh --check <json> <schema.keys>" >&2
  echo "       bench_smoke.sh --values <json>..." >&2
  echo "       bench_smoke.sh --check-values <golden> <json>..." >&2
  exit 2
}

keys_of() {
  # every quoted object key ("name":), sorted and deduplicated
  grep -o '"[^"]*"[[:space:]]*:' "$1" | sed 's/"[[:space:]]*:$/"/' | sort -u
}

# Flatten one compact JSON object (as Json_out writes it) into
# "<figure> <path> <value>" lines, the path joining object keys and
# array indices with dots.  Every value is deterministic for a fixed
# seed except the wall-clock ones, left out by name: wall_us_* in every
# figure, query's verify_us and fig7's what_ms/when_ms/who_ms.
values_of() {
  fig=$(basename "$1" .json)
  fig=${fig#BENCH_}
  awk -v fig="$fig" '
  { s = s $0 }
  function wall(name) {
    return name ~ /^wall_us_/ ||
      (fig == "query" && name == "verify_us") ||
      (fig == "fig7" && name ~ /^(what|when|who)_ms$/)
  }
  function emit(tok,   d, path, name) {
    path = ""
    for (d = 1; d <= depth; d++)
      path = path (d > 1 ? "." : "") (kind[d] == "{" ? key[d] : idx[d])
    name = kind[depth] == "{" ? key[depth] : ""
    if (!wall(name)) print fig, path, tok
  }
  END {
    n = length(s); depth = 0; i = 1
    while (i <= n) {
      c = substr(s, i, 1)
      if (c == "{" || c == "[") {
        depth++; kind[depth] = c; idx[depth] = 0; want_key = (c == "{"); i++
      } else if (c == "}" || c == "]") {
        depth--; i++
      } else if (c == ",") {
        if (kind[depth] == "[") idx[depth]++; else want_key = 1
        i++
      } else if (c == ":" || c == " " || c == "\t") {
        i++
      } else {
        if (c == "\"") {
          j = i + 1
          while (substr(s, j, 1) != "\"") j += substr(s, j, 1) == "\\" ? 2 : 1
          tok = substr(s, i, j - i + 1); i = j + 1
        } else {
          j = i
          while (j <= n && index(",}] ", substr(s, j, 1)) == 0) j++
          tok = substr(s, i, j - i); i = j
        }
        if (kind[depth] == "{" && want_key) {
          key[depth] = substr(tok, 2, length(tok) - 2); want_key = 0
        } else emit(tok)
      }
    }
  }' "$1"
}

case "${1:-}" in
--run)
  [ $# -eq 3 ] || usage
  exe=$2
  outdir=$3
  mkdir -p "$outdir"
  "$exe" micro fig7 batch shard par recover serve query --smoke --json "$outdir"
  ;;
--check)
  [ $# -eq 3 ] || usage
  json=$2
  schema=$3
  [ -f "$json" ] || { echo "bench_smoke: missing $json" >&2; exit 1; }
  [ -f "$schema" ] || { echo "bench_smoke: missing schema $schema" >&2; exit 1; }
  tmp=$(mktemp)
  trap 'rm -f "$tmp"' EXIT
  keys_of "$json" >"$tmp"
  if ! diff -u "$schema" "$tmp"; then
    echo "bench_smoke: key set of $json diverged from $schema" >&2
    echo "bench_smoke: if intentional, regenerate the schema:" >&2
    echo "  grep -o '\"[^\"]*\"[[:space:]]*:' $json | sed 's/\"[[:space:]]*:\$/\"/' | sort -u > $schema" >&2
    exit 1
  fi
  echo "bench_smoke: $json matches $schema"
  ;;
--values)
  [ $# -ge 2 ] || usage
  shift
  for json in "$@"; do
    [ -f "$json" ] || { echo "bench_smoke: missing $json" >&2; exit 1; }
    values_of "$json"
  done
  ;;
--check-values)
  [ $# -ge 3 ] || usage
  golden=$2
  shift 2
  [ -f "$golden" ] || { echo "bench_smoke: missing golden $golden" >&2; exit 1; }
  tmp=$(mktemp)
  trap 'rm -f "$tmp"' EXIT
  sh "$0" --values "$@" >"$tmp"
  if ! diff -u "$golden" "$tmp"; then
    echo "bench_smoke: deterministic smoke values diverged from $golden" >&2
    echo "bench_smoke: if intentional, say why in CHANGES.md and regenerate:" >&2
    echo "  sh tools/bench_smoke.sh --values $* > $golden" >&2
    exit 1
  fi
  echo "bench_smoke: $* match $golden"
  ;;
*)
  usage
  ;;
esac
