#!/usr/bin/env bash
# Builds the benchmark program and the avqserve server from the source tree
# it sits in, then runs the program with the given arguments:
#
#   bash perfbench/run.sh --workload hot-point --seed 1 --seconds 36 --trace 0
#
# Run it from the repository root. Build outputs and the Go build cache go
# to .bench_build/ under the root (or $CARGO_TARGET_DIR when set), so the
# benchmark reads and writes nothing outside the checkout.
set -euo pipefail
root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in /*) ;; *) build=$root/$build ;; esac
export GOCACHE=$build/gocache GOPATH=$build/gopath XDG_CONFIG_HOME=$build/config GOENV=off \
	GOPROXY=off GOTOOLCHAIN=local GOFLAGS=-mod=readonly
mkdir -p "$build/bin"
(
	cd "$root/perfbench"
	go build -o "$build/bin/perfbench" .
	go build -o "$build/bin/avqserve" repro/cmd/avqserve
) >&2
exec "$build/bin/perfbench" -build "$build" -server "$build/bin/avqserve" "$@"
