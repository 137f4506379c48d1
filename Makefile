# Standard entry points; `make check` is the full verification gate that
# scripts/check.sh (and CI) run.

GO ?= go

.PHONY: check test race lint lint-baseline build fmt avqbench bench-pruning bench-obs bench-decode bench-wal bench-shard bench-serve bench-join benchgate crash

check:
	sh scripts/check.sh

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./internal/buffer ./internal/table ./internal/simdisk \
		./internal/blockstore ./internal/extsort ./internal/exec ./internal/obs \
		./internal/core ./internal/analysis ./internal/wal \
	./internal/backend ./internal/shard ./internal/server

# The kill-at-every-syscall fault-injection matrix: crash at each I/O
# point, recover, and prove the table replays every acknowledged write.
crash:
	$(GO) test ./internal/wal -run 'TestKillEverySyscall|TestKillDuringRecovery' -count=1 -v

# The bench targets run a built avqbench, not `go run`: only `go build`
# stamps the VCS revision each result records as host.commit.
avqbench:
	$(GO) build -o bin/avqbench ./cmd/avqbench

# Each writes BENCH_<experiment>.json in the repository root.
bench-pruning bench-obs bench-decode bench-wal bench-shard bench-serve bench-join: avqbench
	bin/avqbench -exp $(@:bench-%=%)

# Reruns decode, wal, shard, serve and join in process and checks every
# gate plus the decode baselines against the committed BENCH files;
# writes no file.
benchgate: avqbench
	bin/avqbench -exp gate

lint:
	$(GO) vet ./...
	$(GO) run ./cmd/avqlint -baseline scripts/avqlint-baseline.json ./...

# Regenerate the accepted-findings baseline. Run this deliberately after
# triaging new findings or retiring old ones; the diff is the review artifact.
lint-baseline:
	$(GO) run ./cmd/avqlint -baseline scripts/avqlint-baseline.json -write-baseline ./...

fmt:
	gofmt -w cmd internal examples *.go
