#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it:
#
#   bash perfbench/run.sh --workload lib-read --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Everything the Go toolchain writes
# (build cache, temporary files, the binary) stays under .bench_build
# (or $CARGO_TARGET_DIR when set) inside the checkout.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/perfbench/go.mod" ] || [ ! -f "$root/go.mod" ]; then
	echo "perfbench: run from the repository root (needs go.mod and perfbench/go.mod)" >&2
	exit 2
fi
out=${CARGO_TARGET_DIR:-.bench_build}
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=-buildvcs=false GOPROXY=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
