#!/usr/bin/env sh
# benchgate.sh — the decode-kernel performance gate.
#
# Runs `avqbench -exp decode` (writing a fresh BENCH_decode.json) and
# holds it against the committed baselines:
#
#   1. the experiment's own gate must pass: steady-state arena tuple
#      decode and φ slab decode at 0 allocs/op, on a one-limb and a
#      four-limb schema;
#   2. the macro workload (BulkLoad + CountRange, the same shape
#      BENCH_obs.json measures) must not regress more than TOLERANCE_PCT
#      against the committed BENCH_decode.json, nor against the
#      uninstrumented baseline in BENCH_obs.json.
#
# Wall-clock numbers are noisy across hosts, so the tolerance is
# deliberately generous (default 25%); the allocation gate inside the
# experiment is the precise one.
set -eu

cd "$(dirname "$0")/.."

TOLERANCE_PCT=${TOLERANCE_PCT:-25}

if [ ! -f BENCH_decode.json ]; then
    echo "benchgate: no committed BENCH_decode.json baseline" >&2
    exit 1
fi

# jget FILE KEY — extract a scalar field from a flat JSON file without
# depending on jq (not in the base image).
jget() {
    sed -n "s/^.*\"$2\": *\([0-9.truefalse][0-9.truefalse]*\),*$/\1/p" "$1" | head -n 1
}

base_load=$(jget BENCH_decode.json load_ms)
base_count=$(jget BENCH_decode.json count_ms)

tmpdir=$(mktemp -d)
trap 'rm -rf "$tmpdir"' EXIT
cp BENCH_decode.json "$tmpdir/baseline.json"

echo "== benchgate: running avqbench -exp decode"
go run ./cmd/avqbench -exp decode

pass=$(jget BENCH_decode.json pass)
zero=$(jget BENCH_decode.json zero_alloc_pass)
new_load=$(jget BENCH_decode.json load_ms)
new_count=$(jget BENCH_decode.json count_ms)

# The fresh run replaces the committed file in the working tree; restore
# the baseline so the gate never silently rewrites it.
cp BENCH_decode.json "$tmpdir/fresh.json"
cp "$tmpdir/baseline.json" BENCH_decode.json

fail=0
if [ "$pass" != "true" ]; then
    echo "benchgate: experiment gates failed (zero_alloc_pass=$zero)" >&2
    fail=1
fi

# within BASE NEW — NEW must not exceed BASE by more than TOLERANCE_PCT.
within() {
    awk -v base="$1" -v new="$2" -v tol="$TOLERANCE_PCT" \
        'BEGIN { exit !(base <= 0 || new <= base * (1 + tol / 100)) }'
}

if ! within "$base_load" "$new_load"; then
    echo "benchgate: bulk load regressed: ${new_load}ms vs baseline ${base_load}ms (+${TOLERANCE_PCT}% allowed)" >&2
    fail=1
fi
if ! within "$base_count" "$new_count"; then
    echo "benchgate: count-range regressed: ${new_count}ms vs baseline ${base_count}ms (+${TOLERANCE_PCT}% allowed)" >&2
    fail=1
fi

# Cross-check against the uninstrumented obs baseline, when present: the
# decode experiment runs the identical workload, so a blow-up against
# BENCH_obs.json means the arena refactor slowed the read stack.
if [ -f BENCH_obs.json ]; then
    obs_load=$(jget BENCH_obs.json base_load_ms)
    obs_count=$(jget BENCH_obs.json base_count_ms)
    if ! within "$obs_load" "$new_load"; then
        echo "benchgate: bulk load regressed vs BENCH_obs.json: ${new_load}ms vs ${obs_load}ms" >&2
        fail=1
    fi
    if ! within "$obs_count" "$new_count"; then
        echo "benchgate: count-range regressed vs BENCH_obs.json: ${new_count}ms vs ${obs_count}ms" >&2
        fail=1
    fi
fi

if [ "$fail" -ne 0 ]; then
    echo "benchgate: FAIL (fresh run kept at $tmpdir/fresh.json is gone after exit; re-run avqbench -exp decode to inspect)" >&2
    exit 1
fi

echo "benchgate: PASS (load ${new_load}ms <= ${base_load}ms+${TOLERANCE_PCT}%, count ${new_count}ms <= ${base_count}ms+${TOLERANCE_PCT}%)"

# -- group commit gate -------------------------------------------------------
# The WAL experiment carries its own absolute gate (group commit must beat
# naive per-append fsync by >= 5x on the simulated disk); the speedup is a
# ratio on one host, so no cross-host baseline comparison is needed.
if [ -f BENCH_wal.json ]; then
    cp BENCH_wal.json "$tmpdir/wal-baseline.json"
fi

echo "== benchgate: running avqbench -exp wal"
go run ./cmd/avqbench -exp wal

wal_pass=$(jget BENCH_wal.json pass)
wal_speedup=$(jget BENCH_wal.json speedup)
wal_min=$(jget BENCH_wal.json min_speedup)

if [ -f "$tmpdir/wal-baseline.json" ]; then
    cp "$tmpdir/wal-baseline.json" BENCH_wal.json
fi

if [ "$wal_pass" != "true" ]; then
    echo "benchgate: group commit gate failed: ${wal_speedup}x < required ${wal_min}x" >&2
    exit 1
fi

echo "benchgate: PASS (group commit ${wal_speedup}x >= ${wal_min}x naive fsync-per-append)"

# -- φ-range sharding gate ---------------------------------------------------
# The shard experiment carries its own absolute gates: 4-shard scatter scan
# >= 2x the single-shard scan (waived below 4 CPUs), catalog pruning >= the
# single-table fence-prune rate at ~1% selectivity, and the count-range
# arena path holding O(1) allocations per query. All are ratios or counts
# on one host, so no cross-host baseline comparison is needed.
if [ -f BENCH_shard.json ]; then
    cp BENCH_shard.json "$tmpdir/shard-baseline.json"
fi

echo "== benchgate: running avqbench -exp shard"
go run ./cmd/avqbench -exp shard

shard_pass=$(jget BENCH_shard.json pass)
shard_scale=$(jget BENCH_shard.json scale_pass)
shard_prune=$(jget BENCH_shard.json prune_pass)
shard_alloc=$(jget BENCH_shard.json alloc_pass)

if [ -f "$tmpdir/shard-baseline.json" ]; then
    cp "$tmpdir/shard-baseline.json" BENCH_shard.json
fi

if [ "$shard_pass" != "true" ]; then
    echo "benchgate: shard gates failed (scale_pass=$shard_scale prune_pass=$shard_prune alloc_pass=$shard_alloc)" >&2
    exit 1
fi

echo "benchgate: PASS (shard scale_pass=$shard_scale prune_pass=$shard_prune alloc_pass=$shard_alloc)"

# -- query-server gate -------------------------------------------------------
# The serve experiment carries its own absolute gates: end-to-end p99 under
# the (generous) 250ms ceiling, admission control shedding load with 429s
# under saturation without losing a request, the token-bucket handoff
# costing <= 5% of a representative block-visiting query, and a drain that
# leaves zero pinned frames and live snapshots. All are ratios or absolute
# bounds on one host, so no cross-host baseline comparison is needed.
if [ -f BENCH_serve.json ]; then
    cp BENCH_serve.json "$tmpdir/serve-baseline.json"
fi

echo "== benchgate: running avqbench -exp serve"
go run ./cmd/avqbench -exp serve

serve_pass=$(jget BENCH_serve.json pass)
serve_p99=$(jget BENCH_serve.json p99_ms)
serve_lat=$(jget BENCH_serve.json latency_pass)
serve_over=$(jget BENCH_serve.json overload_pass)
serve_adm=$(jget BENCH_serve.json admission_overhead_pct)
serve_ovh=$(jget BENCH_serve.json overhead_pass)
serve_drain=$(jget BENCH_serve.json drain_pass)

if [ -f "$tmpdir/serve-baseline.json" ]; then
    cp "$tmpdir/serve-baseline.json" BENCH_serve.json
fi

if [ "$serve_pass" != "true" ]; then
    echo "benchgate: serve gates failed (latency_pass=$serve_lat p99=${serve_p99}ms overload_pass=$serve_over overhead_pass=$serve_ovh overhead=${serve_adm}% drain_pass=$serve_drain)" >&2
    exit 1
fi

echo "benchgate: PASS (serve p99 ${serve_p99}ms, admission overhead ${serve_adm}%, overload_pass=$serve_over drain_pass=$serve_drain)"

# -- φ-slab execution gate ------------------------------------------------
# The join experiment carries its own absolute gates: every codec's slab
# decode kernel at 0 allocs/op on a one-limb and a four-limb schema, and
# the single-table and 4-shard merge joins and the φ-prefix group-by
# byte-identical to a decode-all-then-join oracle. Both are exact checks
# on one host, so no cross-host baseline comparison is needed.
if [ -f BENCH_join.json ]; then
    cp BENCH_join.json "$tmpdir/join-baseline.json"
fi

echo "== benchgate: running avqbench -exp join"
go run ./cmd/avqbench -exp join

join_pass=$(jget BENCH_join.json pass)
join_zero=$(jget BENCH_join.json zero_alloc_pass)
join_diff=$(jget BENCH_join.json differential_pass)

if [ -f "$tmpdir/join-baseline.json" ]; then
    cp "$tmpdir/join-baseline.json" BENCH_join.json
fi

if [ "$join_pass" != "true" ]; then
    echo "benchgate: slab execution gates failed (zero_alloc_pass=$join_zero differential_pass=$join_diff)" >&2
    exit 1
fi

echo "benchgate: PASS (zero_alloc_pass=$join_zero differential_pass=$join_diff)"
