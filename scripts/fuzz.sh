#!/usr/bin/env sh
# fuzz.sh — run every Fuzz* target in the module for a fixed time.
#
# Targets are auto-discovered by scanning _test.go files for
# `func Fuzz...`, so a new fuzz target joins the run by existing, not
# by being listed here. Exits non-zero on the first failing target, or
# when no target is found.
#
# Usage: scripts/fuzz.sh <fuzztime>     e.g. scripts/fuzz.sh 5s
#        make fuzz                      (30s per target)

set -eu

if [ $# -ne 1 ]; then
    echo "usage: scripts/fuzz.sh <fuzztime>" >&2
    exit 2
fi
FUZZTIME=$1

cd "$(dirname "$0")/.."

FUZZ_FILES=$(grep -rl --include='*_test.go' '^func Fuzz' . | sort)
if [ -z "$FUZZ_FILES" ]; then
    echo "no fuzz targets found (expected at least one)" >&2
    exit 1
fi
for f in $FUZZ_FILES; do
    dir=$(dirname "$f")
    for target in $(sed -n 's/^func \(Fuzz[A-Za-z0-9_]*\).*/\1/p' "$f" | sort); do
        echo "    $dir: $target"
        go test -run='^$' -fuzz="^${target}\$" -fuzztime="$FUZZTIME" "$dir"
    done
done
