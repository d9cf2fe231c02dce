# Standard gates for this repository. `make check` is the bar every PR
# must pass: build, vet, gofmt, and the full test suite under the race
# detector.

GO ?= go

.PHONY: check build vet fmt test race bench bench-json bench-smoke profile quick-equivalence full-check fuzz-smoke checkpoint-idempotence obs-smoke stream-check server-smoke loadgen-smoke

check: build vet fmt race

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Fails listing every tracked Go file gofmt would change (tracked files
# only, so build output such as .bench_build/ never trips it).
fmt:
	@out=$$(gofmt -l $$(git ls-files '*.go')); \
	if [ -n "$$out" ]; then echo "gofmt -l:"; echo "$$out"; exit 1; fi

test:
	$(GO) test ./...

race:
	$(GO) test -race -timeout 20m ./...

# The aggregation hot path (the Figure 9-style aggregation end to end
# and the per-pair curve kernel under it) and the quick forwarding
# experiment, whose cost is epidemic flooding: five runs each on one
# core.
bench:
	$(GO) test -run '^$$' -bench 'BenchmarkDelayCDFAggregation$$' -cpu 1 -count 5 .
	$(GO) test -run '^$$' -bench 'BenchmarkSuccessCurve$$' -cpu 1 -count 5 ./internal/core
	$(GO) test -run '^$$' -bench 'BenchmarkForwarding$$' -cpu 1 -count 5 .

# Full benchmark record (BENCH_<N>.json) for the perf trajectory.
bench-json:
	scripts/bench.sh

# One iteration of every benchmark in the repo: catches benchmarks that
# no longer compile or crash without paying for stable timings. CI runs
# this on every push.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# CPU + heap profile of the quick experiment suite, with a top-10
# summary of each. Inspect interactively with
#   go tool pprof cpu.pprof
profile:
	$(GO) run ./cmd/experiments -quick -cpuprofile cpu.pprof -memprofile mem.pprof all > /dev/null
	$(GO) tool pprof -top -nodecount 10 cpu.pprof
	$(GO) tool pprof -top -nodecount 10 mem.pprof

# End-to-end determinism check: the quick experiment suite must emit
# byte-identical output at every worker count.
quick-equivalence:
	$(GO) run ./cmd/experiments -quick -workers 1 all > /tmp/opportunet_w1.txt
	$(GO) run ./cmd/experiments -quick -workers 2 all > /tmp/opportunet_w2.txt
	$(GO) run ./cmd/experiments -quick -workers 8 all > /tmp/opportunet_w8.txt
	cmp /tmp/opportunet_w1.txt /tmp/opportunet_w2.txt
	cmp /tmp/opportunet_w1.txt /tmp/opportunet_w8.txt
	@echo "quick suite byte-identical at workers 1, 2, 8"

# Full-mode pin: runs the named experiments (EXPS, default every one)
# at paper scale and compares each output byte for byte with its
# section of the committed full_results.txt. The whole suite takes
# about 1.5 minutes on 2 cores and peaks near 3 GiB of memory; CI
# checks forwarding and ttlsweep.
full-check:
	$(GO) run ./scripts/fullcheck $(EXPS)

# Short fuzz run of every fuzz target, one line each (-fuzz takes a
# single target): the trace parser never panics, rejects non-finite
# times, round-trips what it accepts, and agrees with the streaming
# parser on which inputs to accept; the Pareto set keeps its
# staircase invariant; the one-pass Delta == 0 success curve matches
# the per-budget loop bit for bit, and curves with a per-hop delay
# match the union-of-intervals measure; core's hop-bounded and
# unbounded frontiers match the flood oracle's rows; the HTTP query
# surface never answers 500 or non-JSON, echoes trace IDs safely, and
# leaks no request; the reach envelopes and diameter brackets contain
# core's exact answers on tiny traces, directed or not; the changed-set
# flood rounds match the dense Bellman-Ford bit for bit. FuzzAppendMerge
# and FuzzExtendSplits run in stream-check.
fuzz-smoke:
	$(GO) test ./internal/trace -run FuzzReadTrace -fuzz FuzzReadTrace -fuzztime 10s
	$(GO) test ./internal/core -run FuzzParetoSet -fuzz FuzzParetoSet -fuzztime 10s
	$(GO) test ./internal/core -run FuzzSuccessCurve -fuzz FuzzSuccessCurve -fuzztime 10s
	$(GO) test ./internal/analysis -run FuzzDeltaCurve -fuzz FuzzDeltaCurve -fuzztime 10s
	$(GO) test ./internal/core -run FuzzComputeVsFlood -fuzz FuzzComputeVsFlood -fuzztime 10s
	$(GO) test ./internal/server -run FuzzServeQuery -fuzz FuzzServeQuery -fuzztime 10s
	$(GO) test ./internal/reach -run FuzzReachBounds -fuzz FuzzReachBounds -fuzztime 10s
	$(GO) test ./internal/flood -run FuzzFloodByHops -fuzz FuzzFloodByHops -fuzztime 10s

# Resumability gate: a second run against the same -checkpoint
# directory must skip every experiment and still emit byte-identical
# output.
checkpoint-idempotence:
	rm -rf /tmp/opportunet_ckpt
	$(GO) run ./cmd/experiments -quick -checkpoint /tmp/opportunet_ckpt all > /tmp/opportunet_ck1.txt
	$(GO) run ./cmd/experiments -quick -checkpoint /tmp/opportunet_ckpt all > /tmp/opportunet_ck2.txt 2> /tmp/opportunet_ck2.log
	cmp /tmp/opportunet_ck1.txt /tmp/opportunet_ck2.txt
	grep -q "22/22 experiments already complete, skipped" /tmp/opportunet_ck2.log
	@echo "checkpointed rerun skipped all experiments, output byte-identical"

# Observability gate: quick suite with the obs endpoint live, metric
# families asserted mid-run, RUN_REPORT.json schema and stage
# accounting validated. Artifacts land in obs-artifacts/.
obs-smoke:
	scripts/obs_smoke.sh obs-artifacts

# Streaming gate: segmented-timeline and incremental-engine equivalence
# under the race detector — any split of a trace into append batches
# (random batch sizes, seal cadences, epochs, out-of-order appends)
# must reproduce the one-shot build byte-identically at workers 1 and 8;
# fuzzed seal, compaction and eviction must leave a snapshot equal to a
# fresh index and to the brute-force reference over its contacts
# (FuzzAppendMerge); and under fuzzed batch splits, seal cadences and
# delay models, every Engine.Extend epoch must match a cold ComputeView
# of its snapshot (FuzzExtendSplits).
stream-check:
	$(GO) test -race -timeout 20m -run 'StreamCheck|Appender|Segment|Extend|NewStudyResult|GenerateStream|Stream' \
		./internal/timeline ./internal/core ./internal/analysis ./internal/trace ./internal/tracegen
	$(GO) test ./internal/timeline -run FuzzAppendMerge -fuzz FuzzAppendMerge -fuzztime 10s
	$(GO) test ./internal/core -run FuzzExtendSplits -fuzz FuzzExtendSplits -fuzztime 10s

# Serving gate: opportunetd end-to-end over real HTTP — exact answers
# only, the default queries warm from load within a 50 ms deadline, a
# 1 ms fresh-grid deadline answered 504, overload shedding with 429 +
# Retry-After, live serving metrics, and a SIGTERM sent mid-query that
# lets the query answer 200 and drains without leaking a request. The
# tracing contract rides along: X-Trace-Id round trip, the
# /debug/requests flight recorder holding shed + error traces mid-run,
# and the access log validated by scripts/checktrace. Artifacts land
# in server-artifacts/.
server-smoke:
	scripts/server_smoke.sh server-artifacts

# Load-driver gate: cmd/loadgen against a live daemon — same-seed dry
# runs print the identical schedule fingerprint, a closed-loop mix
# measures nonzero throughput for every query type with zero errors,
# a burst volley beyond the admission budget is shed, and every
# worst_trace_id in the report resolves in the daemon's access log.
# Reports are validated with checkreport -loadgen, the access log with
# checktrace; artifacts land in loadgen-artifacts/.
loadgen-smoke:
	scripts/loadgen_smoke.sh loadgen-artifacts
