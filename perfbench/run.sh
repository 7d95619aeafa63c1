#!/usr/bin/env bash
# Builds the benchmark from the source tree around it and runs it:
#
#   bash perfbench/run.sh --workload swim-paper --seed 1 --seconds 30 --trace 0
#
# Run from the repository root. Everything the build and the run write
# (Go build cache, binary, temporary files) stays under the build
# directory, $CARGO_TARGET_DIR if set, else .bench_build.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/tmp" "$out/config"

export GOCACHE=$out/gocache GOMODCACHE=$out/gomodcache GOPATH=$out/gopath \
	XDG_CONFIG_HOME=$out/config TMPDIR=$out/tmp GOTMPDIR=$out/tmp \
	GOTOOLCHAIN=local GOPROXY=off GOENV=off

commit=unknown
if [ -e .git ]; then
	commit=$(git rev-parse HEAD 2>/dev/null || echo unknown)
fi
source=$(find . -path ./.bench_build -prune -o -path "$out" -prune -o \( -name '*.go' -o -name go.mod \) -type f -print |
	LC_ALL=C sort | xargs sha256sum | sha256sum | cut -c1-16)

(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" --commit "$commit" --source "$source" "$@"
