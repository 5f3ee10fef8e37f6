#!/usr/bin/env bash
# Builds the stack benchmark from source and runs it with the given flags:
#
#   bash stackbench/run.sh --workload bulk --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Everything the Go toolchain writes
# (build cache, temporary files, the binary, trace spans) stays under
# $CARGO_TARGET_DIR, or .bench_build when that is unset.
set -euo pipefail

root=$(pwd)
src="$root/stackbench"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath" "$out/config" "$out/traces"

export GOCACHE="$out/gocache"
export GOTMPDIR="$out/gotmp"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config"
export GOFLAGS=-mod=readonly
export GOPROXY=off
export GOTOOLCHAIN=local
export GOENV=off

(cd "$src" && go build -o "$out/stackbench" .)
exec "$out/stackbench" -trace-dir "$out/traces" "$@"
