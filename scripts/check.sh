#!/usr/bin/env sh
# check.sh — the repo's one-command verification gate.
#
# Runs, in order: formatting, go vet, the build, the avqlint static-analysis
# suite (internal/analysis), the full test suite, the race-focused test
# run over the concurrency-sensitive packages, and vet plus the smoke test
# of the benchmark module under perfbench/ (its own go.mod), so an API the
# benchmark calls cannot disappear unnoticed. Fails fast on the first
# broken stage so CI output points at one problem.
set -eu

cd "$(dirname "$0")/.."

echo "== gofmt"
unformatted=$(gofmt -l cmd internal examples perfbench *.go)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet"
go vet ./...

echo "== go build"
go build ./...

echo "== avqlint (baseline-gated)"
# Fails on any finding not recorded in the committed baseline AND on stale
# baseline entries, so accepted findings can only change via an explicit
# `make lint-baseline` regeneration that shows up in review.
go run ./cmd/avqlint -baseline scripts/avqlint-baseline.json ./...

echo "== go test"
go test ./...

echo "== crash matrix (kill-at-every-syscall recovery proof)"
go test ./internal/wal -run 'TestKillEverySyscall|TestKillDuringRecovery' -count=1

echo "== go test -race (concurrency-sensitive packages)"
go test -race ./internal/buffer ./internal/table ./internal/simdisk \
    ./internal/blockstore ./internal/extsort ./internal/exec ./internal/obs \
    ./internal/core ./internal/analysis ./internal/wal \
    ./internal/backend ./internal/shard ./internal/server

echo "== perfbench (benchmark module: vet + smoke test against the current API)"
(cd perfbench && go vet ./... && go test ./...)

echo "check.sh: all gates passed"
