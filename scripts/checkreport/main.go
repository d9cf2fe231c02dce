// Command checkreport validates a RUN_REPORT.json produced by
// cmd/experiments -report: the schema (version, command, stages,
// metric maps), the stage accounting (serial stage wall times must sum
// to the total within 5%), and optionally that required metric
// families are present and non-zero.
//
// With -loadgen it instead validates a LOADGEN_REPORT.json produced by
// cmd/loadgen: the schedule fingerprint, phase/request accounting, and
// per-query-type latency summaries.
//
// Usage:
//
//	go run ./scripts/checkreport RUN_REPORT.json
//	go run ./scripts/checkreport -require par_tasks_total,core_rows_total RUN_REPORT.json
//	go run ./scripts/checkreport -loadgen -min-phases 3 LOADGEN_REPORT.json
//
// Exits 1 with a diagnostic on the first violation; CI's obs-smoke and
// loadgen-smoke jobs use it as the report gate.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"strings"

	"opportunet/internal/loadgen"
	"opportunet/internal/obs"
)

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "checkreport: "+format+"\n", args...)
	os.Exit(1)
}

func main() {
	require := flag.String("require", "", "comma-separated counter names that must be present with a positive value")
	tolerance := flag.Float64("tolerance", 0.05, "allowed relative gap between the stage wall-time sum and the total")
	lg := flag.Bool("loadgen", false, "validate a LOADGEN_REPORT.json instead of a RUN_REPORT.json")
	minPhases := flag.Int("min-phases", 1, "with -loadgen: minimum phase count (e.g. 3 for a ramp)")
	requireShed := flag.Bool("require-shed", false, "with -loadgen: at least one request must have been shed")
	flag.Parse()
	if flag.NArg() != 1 {
		fail("usage: checkreport [-require names | -loadgen [-min-phases n] [-require-shed]] REPORT.json")
	}
	path := flag.Arg(0)
	data, err := os.ReadFile(path)
	if err != nil {
		fail("%v", err)
	}
	if *lg {
		checkLoadgen(path, data, *minPhases, *requireShed)
		return
	}
	var rep obs.RunReport
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&rep); err != nil {
		fail("%s: not a run report: %v", path, err)
	}

	if rep.Version != 1 {
		fail("%s: version = %d, want 1", path, rep.Version)
	}
	if rep.Command == "" {
		fail("%s: empty command", path)
	}
	if rep.Workers < 1 {
		fail("%s: workers = %d, want >= 1", path, rep.Workers)
	}
	if rep.WallMS <= 0 {
		fail("%s: wall_ms = %g, want > 0", path, rep.WallMS)
	}
	if len(rep.Stages) == 0 {
		fail("%s: no stages", path)
	}
	if rep.Counters == nil || rep.Gauges == nil || rep.Histograms == nil {
		fail("%s: metric maps missing", path)
	}

	// The stages are serial and contiguous, so their wall times must
	// partition the total: any gap beyond scheduling noise means a phase
	// of the run escaped the accounting.
	sum := 0.0
	for _, s := range rep.Stages {
		if s.Name == "" || s.WallMS < 0 {
			fail("%s: bad stage %+v", path, s)
		}
		sum += s.WallMS
	}
	if gap := math.Abs(rep.WallMS - sum); gap > *tolerance*rep.WallMS {
		fail("%s: stage sum %.3fms vs total %.3fms: gap %.1f%% exceeds %.0f%%",
			path, sum, rep.WallMS, 100*gap/rep.WallMS, 100**tolerance)
	}

	for _, h := range rep.Histograms {
		if h.Count < 0 || h.Quantiles == nil {
			fail("%s: bad histogram snapshot %+v", path, h)
		}
	}

	if *require != "" {
		for _, name := range strings.Split(*require, ",") {
			name = strings.TrimSpace(name)
			if name == "" {
				continue
			}
			v, ok := rep.Counters[name]
			if !ok {
				fail("%s: required counter %q missing", path, name)
			}
			if v <= 0 {
				fail("%s: required counter %q is %d, want > 0", path, name, v)
			}
		}
	}
	fmt.Printf("checkreport: %s ok (%d stages, %.0fms, %d counters)\n",
		path, len(rep.Stages), rep.WallMS, len(rep.Counters))
}

// checkLoadgen validates a LOADGEN_REPORT.json: identity fields, a
// well-formed schedule fingerprint, and per-phase accounting — every
// request the schedule offered must be represented in exactly one
// per-type count, each type's latency summary must be internally
// ordered (p50 <= p90 <= p99), and each type's worst exchange must be
// attributed to a deterministic lg-<fingerprint>-<index> trace ID.
func checkLoadgen(path string, data []byte, minPhases int, requireShed bool) {
	var rep loadgen.Report
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&rep); err != nil {
		fail("%s: not a loadgen report: %v", path, err)
	}
	if rep.Version != 1 {
		fail("%s: version = %d, want 1", path, rep.Version)
	}
	if rep.BaseURL == "" || rep.Dataset == "" || rep.Mix == "" {
		fail("%s: missing identity fields (base_url/dataset/mix)", path)
	}
	if len(rep.Fingerprint) != 64 || strings.Trim(rep.Fingerprint, "0123456789abcdef") != "" {
		fail("%s: schedule_fingerprint %q is not a sha256 hex digest", path, rep.Fingerprint)
	}
	if rep.Requests <= 0 || rep.WallMS <= 0 || rep.Workers < 1 {
		fail("%s: bad run accounting: requests=%d wall_ms=%g workers=%d",
			path, rep.Requests, rep.WallMS, rep.Workers)
	}
	if len(rep.Phases) < minPhases {
		fail("%s: %d phases, want >= %d", path, len(rep.Phases), minPhases)
	}
	total, shed := 0, int64(0)
	for _, ph := range rep.Phases {
		if ph.Name == "" || ph.Requests <= 0 || ph.DurationMS <= 0 || ph.OfferedRPS <= 0 {
			fail("%s: bad phase %+v", path, ph)
		}
		if len(ph.Types) == 0 {
			fail("%s: phase %q measured no query types", path, ph.Name)
		}
		var phaseCount int64
		for kind, ts := range ph.Types {
			phaseCount += ts.Count
			shed += ts.Shed
			if ts.Count <= 0 || ts.Throughput <= 0 {
				fail("%s: phase %q type %s: count=%d throughput=%g",
					path, ph.Name, kind, ts.Count, ts.Throughput)
			}
			if ts.P50MS < 0 || ts.P50MS > ts.P90MS || ts.P90MS > ts.P99MS {
				fail("%s: phase %q type %s: unordered quantiles p50=%g p90=%g p99=%g",
					path, ph.Name, kind, ts.P50MS, ts.P90MS, ts.P99MS)
			}
			if ts.Shed+ts.Errors > ts.Count {
				fail("%s: phase %q type %s: dispositions exceed count: %+v",
					path, ph.Name, kind, ts)
			}
			// The worst exchange must resolve back to the daemon: its
			// trace ID is deterministic over the schedule fingerprint.
			if wantPrefix := "lg-" + rep.Fingerprint[:16] + "-"; ts.WorstMS <= 0 ||
				!strings.HasPrefix(ts.WorstTraceID, wantPrefix) {
				fail("%s: phase %q type %s: worst exchange unattributed: worst_ms=%g worst_trace_id=%q (want prefix %s)",
					path, ph.Name, kind, ts.WorstMS, ts.WorstTraceID, wantPrefix)
			}
		}
		if int(phaseCount) != ph.Requests {
			fail("%s: phase %q counts sum to %d, offered %d", path, ph.Name, phaseCount, ph.Requests)
		}
		total += ph.Requests
	}
	if total != rep.Requests {
		fail("%s: phase requests sum to %d, run claims %d", path, total, rep.Requests)
	}
	if requireShed && shed == 0 {
		fail("%s: no request was shed (want >= 1 under overload)", path)
	}
	fmt.Printf("checkreport: %s ok (%d phases, %d requests, %d shed, fingerprint %s)\n",
		path, len(rep.Phases), rep.Requests, shed, rep.Fingerprint[:12])
}
