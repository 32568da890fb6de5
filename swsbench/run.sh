#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it.
#
#   bash swsbench/run.sh --workload uts-t1 --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ at the
# root of the checkout: the Go build and module caches, the toolchain's
# config and telemetry directory, temp files, the binary and trace files.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/config" "$out/tmp"

(
	cd "$root/swsbench"
	export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" GOTMPDIR="$out/tmp"
	export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
	go build -o "$out/swsbench" .
) >&2
cd "$root"
exec "$out/swsbench" "$@"
