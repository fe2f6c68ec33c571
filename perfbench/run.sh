#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given flags (see main.go). Run from the repository root:
#
#	bash perfbench/run.sh --workload repair-closure --seed 1 --seconds 20 --trace 0
#
# Build output, the Go build cache and temporary files (the generated
# inputs) stay under .bench_build/, or $CARGO_TARGET_DIR when set.
set -euo pipefail
root=$(pwd)
out="${CARGO_TARGET_DIR:-$root/.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTOOLCHAIN=local GOFLAGS= GOPROXY=off \
	XDG_CONFIG_HOME="$out/config" GOPATH="$out/gopath" TMPDIR="$out/tmp"
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
