#!/usr/bin/env bash
# Builds perfbench from the source tree it sits in and runs it with the given
# arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload replay --seed 1 --seconds 10 --trace 0
#
# Build output, the Go build cache and the toolchain's own config and
# telemetry files stay inside the checkout (.bench_build), and the toolchain
# is never asked to download anything.
set -euo pipefail
root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out"
export GOCACHE="$out/go-cache" GOMODCACHE="$out/go-mod" GOPATH="$out/go-path" XDG_CONFIG_HOME="$out/config" \
  GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
