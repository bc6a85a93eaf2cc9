#!/usr/bin/env bash
# Runs the predictor / search / inference-kernel benchmarks with
# -benchmem and records the results as one JSON document (default
# BENCH_predictor.json) so the perf trajectory is tracked from PR 3
# onward, plus the bandwidth-estimator benchmark as BENCH_bwe.json. The
# PredictSpeed benchmarks fan out with -cpu, the way concurrent jobs
# share one predictor; the OptimizePlan benchmarks time one search on
# the calling goroutine.
#
# Usage: scripts/bench.sh [output.json]
# Env:   BENCHTIME (default 100x), CPUS (default 1,4,8)
set -euo pipefail
cd "$(dirname "$0")/.."

out=${1:-BENCH_predictor.json}
benchtime=${BENCHTIME:-100x}
cpus=${CPUS:-1,4,8}
tmp=$(mktemp)
bindir=$(mktemp -d)
trap 'rm -f "$tmp"; rm -rf "$bindir"' EXIT

# to_json renders `go test -bench` output on stdin as one JSON document.
# An optional first argument becomes a "note" field.
to_json() {
  awk -v date="$(date -u +%Y-%m-%dT%H:%M:%SZ)" -v note="${1:-}" '
BEGIN {
  printf "{\n  \"generated\": \"%s\",\n", date
  if (note != "") printf "  \"note\": \"%s\",\n", note
  printf "  \"benchmarks\": [\n"
}
/^Benchmark/ {
  ns = ""; bop = ""; aop = ""
  for (i = 3; i < NF; i++) {
    if ($(i+1) == "ns/op")     ns  = $i
    if ($(i+1) == "B/op")      bop = $i
    if ($(i+1) == "allocs/op") aop = $i
  }
  line = sprintf("    {\"name\": \"%s\", \"iterations\": %s", $1, $2)
  if (ns  != "") line = line sprintf(", \"ns_per_op\": %s", ns)
  if (bop != "") line = line sprintf(", \"bytes_per_op\": %s", bop)
  if (aop != "") line = line sprintf(", \"allocs_per_op\": %s", aop)
  line = line "}"
  if (n++) printf ",\n"
  printf "%s", line
}
END { print "\n  ]\n}" }
'
}

go test -run '^$' -bench '^BenchmarkPredictSpeed$' \
  -benchmem -benchtime "$benchtime" -cpu "$cpus" . | tee "$tmp"
go test -run '^$' -bench '^BenchmarkOptimizePlan(Hybrid)?$' \
  -benchmem -benchtime "$benchtime" . | tee -a "$tmp"
go test -run '^$' -bench '^BenchmarkInfer$' \
  -benchmem -benchtime "$benchtime" ./internal/nn | tee -a "$tmp"
to_json < "$tmp" > "$out"
echo "wrote $out"

go test -run '^$' -bench '^BenchmarkEstimatorObserve$' \
  -benchmem -benchtime "${BENCHTIME:-10000x}" ./internal/bwe | tee "$tmp.bwe"
to_json < "$tmp.bwe" > BENCH_bwe.json
rm -f "$tmp.bwe"
echo "wrote BENCH_bwe.json"

# Optimizer hot path: batched + incremental candidate scoring
# (BENCH_optimizer.json). A search scores on the calling goroutine, so
# the OptimizePlan benchmarks need no -cpu sweep.
go test -run '^$' -bench '^BenchmarkOptimizePlan(Hybrid)?$' \
  -benchmem -benchtime "${BENCHTIME:-300x}" . | tee "$tmp.opt"
go test -run '^$' -bench '^BenchmarkInferBatch$' \
  -benchmem -benchtime "${BENCHTIME:-300x}" ./internal/nn | tee -a "$tmp.opt"
to_json "nproc=$(nproc); one search per op, scored on the calling goroutine" \
  < "$tmp.opt" > BENCH_optimizer.json
rm -f "$tmp.opt"
echo "wrote BENCH_optimizer.json"

# Daemon soak (BENCH_daemon.json): the load harness drives a
# 1000-concurrent-job closed loop against one real spawned autopiped
# with a group-committed journal. The headline numbers are
# result.admission_latency.p99_ms and result.syncs_per_append. The run
# also SIGKILLs the daemon afterwards and gates on journal-replay
# recovery time.
# Env: SOAK_DURATION (default 15s).
soak=${SOAK_DURATION:-15s}
go build -o "$bindir/autopiped" ./cmd/autopiped
go build -o "$bindir/autopipe-load" ./cmd/autopipe-load
soak_common=(-spawn 1 -autopiped "$bindir/autopiped" -mode closed \
  -concurrency 1000 -pool 8 -max-queue 512 -duration "$soak" \
  -slo-retry-after-range -slo-max-error-rate 0.01)
"$bindir/autopipe-load" "${soak_common[@]}" \
  -measure-recovery -slo-max-recovery-sec 30 \
  -json "$bindir/gc.json" | tail -n 6
{
  printf '{\n  "generated": "%s",\n' "$(date -u +%Y-%m-%dT%H:%M:%SZ)"
  printf '  "note": "1000-concurrent-job closed-loop soak against one spawned autopiped (pool 8, queue 512, %s) on the group-committed journal. Headline: result.admission_latency.p99_ms and result.syncs_per_append.",\n' "$soak"
  printf '  "group_commit": %s\n}\n' "$(cat "$bindir/gc.json")"
} > BENCH_daemon.json
echo "wrote BENCH_daemon.json"

# Fleet partition soak (BENCH_fleet.json): a 3-node fleet under
# open-loop Poisson load, with a scripted symmetric partition isolating
# one node mid-run — netfault block rules are installed and healed over
# each daemon's POST /v1/netfault control surface (inbound HTTP is never
# impaired, which is what makes the scripted heal possible). Headline
# numbers: result.partition_recovery_sec (heal-to-quorum on the isolated
# node), result.jobs_fenced_out_total / result.fence_rejections_total
# (stale-owner state discarded or refused at heal), and
# result.shed_503 (minority-gateway sheds, each carrying a derived
# Retry-After). A forward to the isolated owner before the survivors
# declare it dead is shed the same way, 503 with Retry-After.
# Env: FLEET_DURATION (default 25s), PARTITION_AT (5s), PARTITION_FOR (10s).
"$bindir/autopipe-load" -spawn 3 -autopiped "$bindir/autopiped" \
  -mode open -rate 150 -concurrency 64 -duration "${FLEET_DURATION:-25s}" \
  -pool 4 -max-queue 256 -heartbeat-every 100ms \
  -partition-at "${PARTITION_AT:-5s}" -partition-for "${PARTITION_FOR:-10s}" \
  -slo-max-partition-recovery-sec 30 -slo-retry-after-range \
  -slo-max-error-rate 0.05 \
  -json BENCH_fleet.json | tail -n 8
echo "wrote BENCH_fleet.json"
