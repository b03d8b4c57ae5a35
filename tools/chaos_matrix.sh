#!/bin/sh
# Run the scripted survivability matrix (chaos_check matrix) under a
# handful of seed offsets, via the LEDGERDB_CHAOS_SEED override.  Every
# (scenario, seed) pair must end in PASS; the first failing seed stops
# the sweep with that run's exit status, and its offset reproduces the
# run byte-identically:
#
#   LEDGERDB_CHAOS_SEED=<offset> dune exec bin/chaos_check.exe matrix
#
#   chaos_matrix.sh <chaos-check-exe> [offset...]
#       default offsets: 0 17 4242
#
# A bare exe name (dune's %{exe:...} expands to one) is run from the
# current directory, not looked up on PATH.
set -eu

[ $# -ge 1 ] || { echo "usage: chaos_matrix.sh <chaos-check-exe> [offset...]" >&2; exit 2; }
exe=$1
shift
case $exe in
  */*) ;;
  *) exe=./$exe ;;
esac
[ $# -ge 1 ] || set -- 0 17 4242

for offset in "$@"; do
  echo "chaos_matrix: offset $offset"
  LEDGERDB_CHAOS_SEED="$offset" "$exe" matrix || {
    status=$?
    echo "chaos_matrix: offset $offset failed (exit $status); reproduce with" >&2
    echo "  LEDGERDB_CHAOS_SEED=$offset dune exec bin/chaos_check.exe matrix" >&2
    exit "$status"
  }
done
echo "chaos_matrix: all offsets passed"
