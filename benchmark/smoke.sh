#!/bin/sh
# Smoke run for `dune runtest`.  Every workload in --quick mode with
# seed 1 must verify every answer, fail no operation, and print exactly
# the result keys recorded in schema.keys.
#
#   smoke.sh <ledgerdb_bench.exe> <tools/bench_smoke.sh> <schema.keys>
set -eu
[ $# -eq 3 ] || { echo "usage: smoke.sh <bench-exe> <bench_smoke.sh> <schema.keys>" >&2; exit 2; }
exe=$1 check=$2 schema=$3
case $exe in */*) ;; *) exe=./$exe ;; esac
for w in notarize verify audit ingest; do
  if ! "$exe" --workload "$w" --seed 1 --quick >"smoke-$w.out" 2>"smoke-$w.log"; then
    cat "smoke-$w.log" >&2
    exit 1
  fi
  tail -n 1 "smoke-$w.out" >"smoke-$w.json"
  if ! grep -q '^{"correct": true, "attempted": [0-9]*, "failed": 0, ' "smoke-$w.json"; then
    echo "smoke: $w did not verify cleanly or had failed operations:" >&2
    cat "smoke-$w.json" >&2
    exit 1
  fi
  sh "$check" --check "smoke-$w.json" "$schema"
done
