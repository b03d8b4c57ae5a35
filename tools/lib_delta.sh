#!/bin/sh
# Report the line delta under lib/ (*.ml, *.mli and *.c) between a base
# revision and the working tree:
#
#   lib_delta.sh [base]      base defaults to HEAD~1
#
# Prints "lib/: +<added> -<removed> net <added - removed>" from
# `git diff --numstat`.  Counts every line, comments included.
set -eu

base=${1:-HEAD~1}
cd "$(git rev-parse --show-toplevel)"
git diff --numstat "$base" -- 'lib/*.ml' 'lib/*.mli' 'lib/*.c' |
  awk '{ added += $1; removed += $2 }
       END { printf "lib/: +%d -%d net %+d\n", added, removed, added - removed }'
