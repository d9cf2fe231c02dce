#!/usr/bin/env bash
# bench.sh — record the repo's performance trajectory.
#
# Runs the core engine and aggregation benchmarks at -cpu 1 and 4 (the
# multicore scaling probes) plus one benchmark per paper exhibit, and
# emits a machine-readable BENCH_<N>.json with ns/op, bytes/op and
# allocs/op per benchmark so successive PRs can compare both speed and
# allocation discipline. A quick-mode experiment run's RUN_REPORT.json
# (validated by scripts/checkreport) is embedded as "run_report", so
# each record also carries end-to-end stage times and metric totals.
#
# The diameter stage records the exact ε-sweep/diameter workload
# (DiameterSweep) next to ReachBounds: one certifying-resolution
# envelope build plus the certified diameter bounds, the cost of
# cmd/diameter -approx; the daemon no longer builds envelopes. Records
# up to BENCH_6 also carried "tiered_vs_exact", the speedup of a
# reach-backed fast tier inside the exact analysis; that tier no
# longer exists.
#
# The ingest stage records the streaming pipeline: the marginal cost of
# Extending a warm engine by the final 1% of a trace next to the cold
# rebuild+recompute it replaces (their same-run ratio is emitted as
# "extend_vs_cold"; the ISSUE gate requires extend < 10% of cold, i.e.
# a ratio above 10), plus steady-state Appender throughput in
# contacts/sec ("append_contacts_per_sec") and the end-to-end latency
# of one live epoch — append a batch, snapshot, Extend to queryable —
# as "append_to_queryable_ns".
#
# The loadgen stage measures the serving path under real HTTP load: an
# opportunetd daemon is booted on an ephemeral port and cmd/loadgen
# drives an open-loop RPS ramp through it (default 8:1:1 query mix).
# The validated LOADGEN_REPORT.json is embedded as "loadgen" — one
# latency-vs-rate point per ramp step with per-query-type p50/p90/p99,
# throughput, and shed/error counts (records up to BENCH_6 also count
# degraded bounds-only answers, which the daemon no longer serves).
#
# Usage: scripts/bench.sh [output.json]
# Without an argument the output is BENCH_<N+1>.json, one past the
# highest index already recorded.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -ge 1 ]; then
    OUT=$1
else
    last=$(ls BENCH_*.json 2>/dev/null |
        sed -nE 's/^BENCH_([0-9]+)\.json$/\1/p' | sort -n | tail -1)
    OUT="BENCH_$(( ${last:-0} + 1 )).json"
fi
TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

echo "== quick suite run report =="
go run ./cmd/experiments -quick -report "$TMP/run_report.json" all > /dev/null
go run ./scripts/checkreport "$TMP/run_report.json"

echo "== engine + aggregation, -cpu 1,4 =="
go test -run '^$' -bench 'BenchmarkEngineCompute$|BenchmarkDelayCDFAggregation$' \
    -cpu 1,4 -benchtime 3x . | tee "$TMP/scaling.txt"

echo "== per-exhibit benchmarks (quick mode) =="
go test -run '^$' -bench 'Benchmark(Table1|Figure[0-9]+|PhaseCheck|Forwarding)$' \
    -benchtime 1x . | tee "$TMP/exhibits.txt"

echo "== diameter: exact sweep, reach envelope bounds =="
go test -run '^$' -bench 'Benchmark(ReachBounds|DiameterSweep)$' \
    -benchtime 3x . | tee "$TMP/reach.txt"

echo "== timeline index: build, queries, shared-vs-cold engine setup =="
go test -run '^$' -bench 'Benchmark(IndexBuild|Meet|DeriveRemovalView|ComputeSetupShared|ComputeSetupCold)$' \
    -benchtime 10x ./internal/timeline | tee "$TMP/timeline.txt"

echo "== streaming ingest: incremental extend vs cold, append path =="
go test -run '^$' -bench 'Benchmark(IncrementalExtend|ColdRecompute|AppendToQueryable)$' \
    -benchtime 3x ./internal/core | tee "$TMP/ingest.txt"
go test -run '^$' -bench 'Benchmark(AppendThroughput|SegmentMeet)$' \
    -benchtime 1000x ./internal/timeline | tee -a "$TMP/ingest.txt"

echo "== serving path under load: RPS ramp through opportunetd =="
go build -o "$TMP/opportunetd" ./cmd/opportunetd
go build -o "$TMP/tracegen" ./cmd/tracegen
go build -o "$TMP/loadgen" ./cmd/loadgen
"$TMP/tracegen" -random -n 40 -lambda 0.3 -slots 50 -quiet -o "$TMP/feed.trace"
"$TMP/opportunetd" -addr 127.0.0.1:0 -trace synth="$TMP/feed.trace" \
    > /dev/null 2> "$TMP/daemon_err.txt" &
daemon_pid=$!
trap 'kill "$daemon_pid" 2>/dev/null || true; rm -rf "$TMP"' EXIT
addr=
for _ in $(seq 1 600); do
    addr=$(sed -n 's|.*serving queries on http://\([^]]*\)\].*|\1|p' "$TMP/daemon_err.txt" | head -1)
    [ -n "$addr" ] && break
    kill -0 "$daemon_pid" 2>/dev/null || break
    sleep 0.1
done
if [ -z "$addr" ]; then
    echo "bench: opportunetd never reached serving:" >&2
    cat "$TMP/daemon_err.txt" >&2
    exit 1
fi
# Warm the daemon's caches off the record, then sweep three rates up
# through the 10k+ regime the serving path is sized for.
"$TMP/loadgen" -url "http://$addr" -mode closed -requests 500 -workers 16 -out /dev/null
"$TMP/loadgen" -url "http://$addr" -mode ramp -ramp 2500:12500:5000 \
    -step-duration 2s -workers 256 -out "$TMP/loadgen_report.json"
go run ./scripts/checkreport -loadgen -min-phases 3 "$TMP/loadgen_report.json"
kill -TERM "$daemon_pid" && wait "$daemon_pid" || true

# Benchmark output lines look like:
#   BenchmarkEngineCompute-4   3   123456789 ns/op   61700000 B/op   46494 allocs/op
# The -N suffix is GOMAXPROCS (absent when it equals the default 1-run).
# B/op and allocs/op appear only for benchmarks that call ReportAllocs;
# they are emitted as null when missing so the schema stays uniform.
awk -v host="$(go env GOOS)/$(go env GOARCH)" -v cores="$(nproc)" -v gover="$(go env GOVERSION)" '
BEGIN {
    printf "{\n  \"host\": \"%s\",\n  \"physical_cores\": %s,\n  \"go\": \"%s\",\n  \"benchmarks\": [\n", host, cores, gover
    n = 0
}
/^Benchmark/ {
    name = $1
    nsop = ""; bop = "null"; aop = "null"
    for (i = 2; i < NF; i++) {
        if ($(i+1) == "ns/op") nsop = $i
        if ($(i+1) == "B/op") bop = $i
        if ($(i+1) == "allocs/op") aop = $i
    }
    if (nsop == "") next
    if (n++) printf ",\n"
    printf "    {\"name\": \"%s\", \"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s}", name, nsop, bop, aop
}
END { printf "\n  ]\n}\n" }
' "$TMP/scaling.txt" "$TMP/exhibits.txt" "$TMP/reach.txt" "$TMP/timeline.txt" "$TMP/ingest.txt" > "$TMP/bench.json"

# Streaming-pipeline headline numbers from this run's own lines:
# cold-recompute over incremental-extend (the <10%-of-cold gate wants
# this above 10), the append→queryable epoch latency, and Appender
# throughput (each AppendThroughput op ingests one 512-contact batch).
EXTEND_VS_COLD=$(awk '
$1 ~ /^BenchmarkIncrementalExtend(-[0-9]+)?$/ { for (i = 2; i < NF; i++) if ($(i+1) == "ns/op") ext = $i }
$1 ~ /^BenchmarkColdRecompute(-[0-9]+)?$/ { for (i = 2; i < NF; i++) if ($(i+1) == "ns/op") cold = $i }
END { if (ext && cold) printf "%.2f", cold / ext; else printf "null" }
' "$TMP/ingest.txt")
APPEND_TO_QUERYABLE=$(awk '
$1 ~ /^BenchmarkAppendToQueryable(-[0-9]+)?$/ { for (i = 2; i < NF; i++) if ($(i+1) == "ns/op") lat = $i }
END { if (lat) printf "%s", lat; else printf "null" }
' "$TMP/ingest.txt")
APPEND_RATE=$(awk '
$1 ~ /^BenchmarkAppendThroughput(-[0-9]+)?$/ { for (i = 2; i < NF; i++) if ($(i+1) == "ns/op") ns = $i }
END { if (ns) printf "%.0f", 512 * 1e9 / ns; else printf "null" }
' "$TMP/ingest.txt")

# Splice the ratios and the validated run report into the record: drop
# the closing brace, add the members, close again.
{
    sed '$d' "$TMP/bench.json"
    printf '  ,"extend_vs_cold": %s\n' "$EXTEND_VS_COLD"
    printf '  ,"append_to_queryable_ns": %s\n' "$APPEND_TO_QUERYABLE"
    printf '  ,"append_contacts_per_sec": %s\n' "$APPEND_RATE"
    printf '  ,"loadgen":\n'
    sed 's/^/  /' "$TMP/loadgen_report.json"
    printf '  ,"run_report":\n'
    sed 's/^/  /' "$TMP/run_report.json"
    printf '}\n'
} > "$OUT"

echo "wrote $OUT"
