#!/bin/sh
# Build the benchmark from source, then run it; every argument is passed
# through (see README.md).  Run from anywhere inside a checkout:
#
#   sh benchmark/run.sh --workload verify --seed 1 --seconds 10 --trace 0
#
# Build output goes to stderr, so the last line of stdout is the result.
set -eu
cd "$(dirname "$0")/.."
command -v dune >/dev/null 2>&1 || eval "$(opam env 2>/dev/null)"
# no shared build cache: the run reads and writes inside the checkout only
export DUNE_CACHE=disabled
dune build --root . --display quiet ./benchmark/ledgerdb_bench.exe 1>&2
exec ./_build/default/benchmark/ledgerdb_bench.exe "$@"
