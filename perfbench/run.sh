#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it, passing every
# argument through:
#
#   bash perfbench/run.sh --workload pull_tcp --seed 1 --seconds 30 --trace 0
#
# Run from the repository root. Build outputs and scratch files stay in
# .bench_build (or $CARGO_TARGET_DIR when set) inside the checkout.
set -euo pipefail

root="$(pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export TMPDIR="$out/tmp"
export GOTOOLCHAIN=local
export GOPROXY=off
# The benchmark's Go runtime returns freed heap pages with MADV_FREE, so
# a page the next build or sweep reuses is not faulted in again: in a VM
# the cost of a fresh page depends on the host's memory, not on the
# program.
export GODEBUG=madvdontneed=0

(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" --workdir "$out" "$@"
