#!/usr/bin/env bash
# server_smoke.sh — end-to-end gate for the opportunetd query daemon.
#
# Builds opportunetd, loads a generated infocom05-class trace on an
# ephemeral port, and drives the full serving contract through real
# HTTP: every answer is exact; the default queries, answered at load,
# fit a 50 ms deadline right after boot and agree with /v1/datasets; a
# fresh-grid query past a 1 ms deadline fails with 504; a burst of
# uncoalescable queries against a single execution slot is shed with
# 429 + Retry-After; the serving metric families are live on /metrics
# with the shed and deadline counters moved; and SIGTERM sent while a
# cold query computes lets that query finish with 200, then drains to
# exit 0 with no request left in flight (asserted from the daemon's own
# drain accounting).
#
# The tracing contract rides the same run: a client X-Trace-Id round
# trips through the response header into the access log, the flight
# recorder at /debug/requests holds the shed and error requests
# mid-run, slow requests dump full event traces, and scripts/checktrace
# validates the whole access log's schema and stage accounting.
#
# Usage: scripts/server_smoke.sh [output-dir]
set -euo pipefail
cd "$(dirname "$0")/.."

OUTDIR=${1:-$(mktemp -d)}
mkdir -p "$OUTDIR"
TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

go build -o "$TMP/opportunetd" ./cmd/opportunetd
go build -o "$TMP/tracegen" ./cmd/tracegen
go build -o "$TMP/checktrace" ./scripts/checktrace
"$TMP/tracegen" -dataset infocom05 -quiet -o "$TMP/feed.trace"

# One execution slot, one queue seat, a short queue wait: the overload
# phase below only needs three concurrent queries to prove shedding.
# -slow-ms 1 guarantees the cold exact queries dump full event traces.
"$TMP/opportunetd" -addr 127.0.0.1:0 -trace "$TMP/feed.trace" \
    -max-inflight 1 -max-queue 1 -queue-wait 250ms \
    -access-log "$TMP/access.log" -slow-ms 1 \
    -obsaddr 127.0.0.1:0 > /dev/null 2> "$TMP/err.txt" &
pid=$!
trap 'kill "$pid" 2>/dev/null || true; rm -rf "$TMP"' EXIT

# Both listeners log their bound address to stderr; the query address
# only appears once the datasets finished loading (~10 s for infocom05).
addr= obsaddr=
for _ in $(seq 1 600); do
    addr=$(sed -n 's|.*serving queries on http://\([^]]*\)\].*|\1|p' "$TMP/err.txt" | head -1)
    obsaddr=$(sed -n 's|.*\[obs: serving .* on http://\([^]]*\)\].*|\1|p' "$TMP/err.txt" | head -1)
    [ -n "$addr" ] && break
    kill -0 "$pid" 2>/dev/null || break
    sleep 0.1
done
if [ -z "$addr" ] || [ -z "$obsaddr" ]; then
    echo "server_smoke: daemon never reached serving (addr=$addr obs=$obsaddr):" >&2
    cat "$TMP/err.txt" >&2
    exit 1
fi

fail() { echo "server_smoke: $*" >&2; cat "$TMP/err.txt" >&2; exit 1; }

curl -fsS "http://$addr/healthz" > /dev/null || fail "/healthz not ok"
curl -fsS "http://$addr/readyz" > /dev/null || fail "/readyz not ready after load"
curl -fsS "http://$addr/v1/datasets" | grep -q '"infocom05"' \
    || fail "/v1/datasets does not list the loaded trace"

# ---- the default queries are warm from load -------------------------
# The load answered the default diameter and delay CDFs, so before any
# other query both fit a 50 ms deadline, exactly, and the diameter is
# the one /v1/datasets reports.
curl -fsS "http://$addr/v1/datasets" > "$TMP/datasets.json" || fail "/v1/datasets failed"
dd=$(sed -n 's/.*"diameter":\([0-9]*\).*/\1/p' "$TMP/datasets.json")
[ -n "$dd" ] || fail "/v1/datasets reports no diameter: $(cat "$TMP/datasets.json")"
curl -fsS "http://$addr/v1/diameter?deadline_ms=50" > "$TMP/exact.json" \
    || fail "default diameter missed a 50 ms deadline right after load"
d=$(sed -n 's/.*"diameter":\([0-9]*\).*/\1/p' "$TMP/exact.json")
[ "$d" = "$dd" ] || fail "/v1/diameter answered $d, /v1/datasets says $dd: $(cat "$TMP/exact.json")"
curl -fsS "http://$addr/v1/delaycdf?deadline_ms=50" > "$TMP/cdf.json" \
    || fail "default delaycdf missed a 50 ms deadline right after load"
grep -q '"degraded"' "$TMP/exact.json" "$TMP/cdf.json" && fail "a response carries a degraded field"
echo "server_smoke: default diameter $d and delay CDFs served warm within 50 ms"

# ---- an expired deadline is a 504 -----------------------------------
# A fresh grid integrates new curves, which cannot fit 1 ms.
code=$(curl -sS -o "$TMP/late.json" -w '%{http_code}' "http://$addr/v1/diameter?points=97&deadline_ms=1")
[ "$code" = 504 ] || fail "1 ms fresh-grid diameter answered $code, want 504: $(cat "$TMP/late.json")"

curl -fsS "http://$addr/v1/path?src=1&dst=5&t=0&reconstruct=1" > "$TMP/path.json" \
    || fail "path query failed"
grep -q '"delivered":' "$TMP/path.json" || fail "path answer malformed: $(cat "$TMP/path.json")"

# ---- trace IDs round trip -------------------------------------------
# A client-supplied X-Trace-Id must be adopted, echoed on the response,
# and land on that request's access-log line; absent the header the
# daemon generates one and still echoes it.
tid="smoke-trace-$$"
curl -fsS -D "$TMP/tid_hdr.txt" -H "X-Trace-Id: $tid" \
    "http://$addr/v1/path?src=1&dst=5&t=0" > /dev/null || fail "traced path query failed"
grep -qi "^X-Trace-Id: $tid" "$TMP/tid_hdr.txt" \
    || fail "client trace ID not echoed: $(cat "$TMP/tid_hdr.txt")"
grep -q "\"trace_id\":\"$tid\"" "$TMP/access.log" \
    || fail "client trace ID $tid absent from the access log"
curl -fsS -D "$TMP/gen_hdr.txt" "http://$addr/v1/path?src=1&dst=5&t=0" > /dev/null
grep -qiE '^X-Trace-Id: [0-9a-f]{16}' "$TMP/gen_hdr.txt" \
    || fail "daemon generated no trace ID: $(cat "$TMP/gen_hdr.txt")"
echo "server_smoke: trace ID $tid round-tripped into the access log"

# ---- overload sheds with 429 ----------------------------------------
# Twenty concurrent diameter queries on distinct grids (distinct points
# defeat both the curve cache and coalescing) against one slot and one
# queue seat: one computes, one waits, the rest must shed immediately.
: > "$TMP/codes.txt"
(
    for i in $(seq 100 119); do
        curl -s -D "$TMP/hdr.$i" -o /dev/null -w '%{http_code}\n' \
            "http://$addr/v1/diameter?points=$i&deadline_ms=5000" >> "$TMP/codes.txt" &
    done
    wait
)
shed=$(grep -c '^429$' "$TMP/codes.txt" || true)
served=$(grep -c '^200$' "$TMP/codes.txt" || true)
[ "$shed" -ge 1 ] || fail "overload burst produced no 429 (codes: $(sort "$TMP/codes.txt" | uniq -c | tr '\n' ' '))"
[ "$served" -ge 1 ] || fail "overload burst starved every query (codes: $(sort "$TMP/codes.txt" | uniq -c | tr '\n' ' '))"
ra=0
for h in "$TMP"/hdr.*; do
    if head -1 "$h" | grep -q ' 429' && grep -qi '^Retry-After:' "$h"; then
        ra=1
        break
    fi
done
[ "$ra" = 1 ] || fail "shed responses carry no Retry-After header"
echo "server_smoke: overload shed $shed of 20 queries with 429, served $served"

# ---- the flight recorder explains the tail mid-run ------------------
# With the burst settled, /debug/requests must still hold the shed and
# error requests (tail-biased retention keeps every non-ok trace), and
# the disposition filter must narrow to exactly that class.
curl -fsS "http://$addr/debug/requests" > "$OUTDIR/debug_requests.json" \
    || fail "/debug/requests unavailable"
grep -q '"disposition":"shed"' "$OUTDIR/debug_requests.json" \
    || fail "recorder holds no shed request after the burst"
grep -q '"disposition":"error"' "$OUTDIR/debug_requests.json" \
    || fail "recorder holds no error request after the 504"
curl -fsS "http://$addr/debug/requests?disposition=shed" > "$TMP/shed.json"
grep -q '"disposition":"shed"' "$TMP/shed.json" || fail "disposition filter lost the shed traces"
grep -q '"disposition":"ok"' "$TMP/shed.json" && fail "disposition=shed filter leaked ok traces"
echo "server_smoke: /debug/requests holds shed + error traces mid-run"

# ---- serving metrics are live ---------------------------------------
curl -fsS "http://$obsaddr/metrics" > "$OUTDIR/server_metrics.txt"
for fam in server_requests_started_total server_requests_finished_total \
           server_admitted_total server_shed_queue_full_total server_shed_wait_total \
           server_inflight server_queue_depth server_queue_wait_seconds \
           server_request_seconds server_deadline_exceeded_total \
           server_panics_recovered_total server_flights_total server_coalesced_total; do
    grep -q "^# TYPE $fam " "$OUTDIR/server_metrics.txt" \
        || fail "metric family $fam missing from /metrics"
done
for fam in server_requests_started_total server_admitted_total \
           server_shed_queue_full_total server_deadline_exceeded_total; do
    awk -v fam="$fam" '$1 == fam { found = 1; if ($2 + 0 > 0) ok = 1 }
        END { exit !(found && ok) }' "$OUTDIR/server_metrics.txt" \
        || fail "counter $fam never moved"
done
# With the burst settled, nothing may be left holding a slot.
awk '$1 == "server_inflight" && $2 + 0 != 0 { bad = 1 } END { exit bad }' \
    "$OUTDIR/server_metrics.txt" \
    || fail "server_inflight nonzero after the burst settled"

# ---- SIGTERM drains cleanly -----------------------------------------
# SIGTERM starts the drain; it must not cancel in-flight work. A cold
# query (hop bounds 8-18 and unbounded on an unused 512-point grid,
# seconds of work) is computing when the signal arrives, and must still
# answer 200 inside the -drain budget.
curl -sS -o "$TMP/drain_q.json" -w '%{http_code}' \
    "http://$addr/v1/delaycdf?hops=8,9,10,11,12,13,14,15,16,17,18,0&points=512" \
    > "$TMP/drain_code.txt" &
qpid=$!
busy=0
for _ in $(seq 1 100); do
    if curl -fsS "http://$obsaddr/metrics" | awk '$1 == "server_inflight" && $2 + 0 == 1 { f = 1 } END { exit !f }'; then
        busy=1
        break
    fi
    sleep 0.05
done
[ "$busy" = 1 ] || fail "the cold query never showed as in flight"
kill -TERM "$pid"
wait "$qpid" || true
[ "$(cat "$TMP/drain_code.txt")" = 200 ] \
    || fail "query in flight at SIGTERM answered $(cat "$TMP/drain_code.txt"), want 200: $(head -c 300 "$TMP/drain_q.json")"
grep -q '"curves"' "$TMP/drain_q.json" || fail "query in flight at SIGTERM returned no curves"
rc=0
wait "$pid" || rc=$?
[ "$rc" = 0 ] || fail "daemon exited $rc after SIGTERM, want 0"
drained=$(grep -o 'drained (clean): started=[0-9]* finished=[0-9]* inflight=[0-9]*' "$TMP/err.txt" | head -1)
[ -n "$drained" ] || fail "no clean drain line on stderr"
started=$(echo "$drained" | sed -n 's/.*started=\([0-9]*\).*/\1/p')
finished=$(echo "$drained" | sed -n 's/.*finished=\([0-9]*\).*/\1/p')
inflight=$(echo "$drained" | sed -n 's/.*inflight=\([0-9]*\).*/\1/p')
[ "$started" = "$finished" ] && [ "$inflight" = 0 ] \
    || fail "drain leaked requests: $drained"
echo "server_smoke: in-flight query answered 200 across SIGTERM; drained clean, started=$started finished=$finished inflight=$inflight"

# ---- the access log validates end to end ----------------------------
# Every line on schema, stage partitions inside totals, slow dumps
# monotone and attributable; the run must have produced all three
# dispositions plus at least one slow trace dump.
"$TMP/checktrace" -require-dispositions ok,shed,error "$TMP/access.log" \
    || fail "access log failed checktrace validation"
grep -q '"ev":"trace"' "$TMP/access.log" \
    || fail "no slow-request trace dump despite -slow-ms 1"

cp "$TMP/access.log" "$OUTDIR/access.log"
cp "$TMP/err.txt" "$OUTDIR/opportunetd_stderr.txt"
echo "server smoke passed (artifacts in $OUTDIR)"
