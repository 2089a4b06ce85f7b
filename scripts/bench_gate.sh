#!/usr/bin/env sh
# bench_gate.sh — compare a fresh in-process load run against the
# checked-in serving baseline (BENCH_service.json, section "load").
#
# The gate is noise-aware and warn-only by default: shared CI boxes can
# be several times slower than the machine that recorded the baseline,
# so a violation prints a WARN and exits 0 unless BENCH_GATE_STRICT=1,
# in which case it fails the build. Thresholds live in
# internal/loadgen/gate.go (achieved rps ≥ 50% of baseline, p99 ≤ 3×
# baseline). Every recorded study section ("slo", "cluster",
# "rebalance") is checked under the same warn-only/BENCH_GATE_STRICT
# policy: it must record a passing run.
#
# Usage: scripts/bench_gate.sh [baseline.json]
set -eu

cd "$(dirname "$0")/.."
baseline="${1:-BENCH_service.json}"

if [ ! -f "$baseline" ]; then
    echo "bench_gate: baseline $baseline not found; nothing to gate against" >&2
    exit 1
fi

exec go run ./cmd/lbload -study gate -json "$baseline"
