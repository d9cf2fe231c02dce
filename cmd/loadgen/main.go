// Command loadgen drives a running opportunetd daemon with
// reproducible HTTP load and writes the measured latency, throughput,
// shed and error profile to LOADGEN_REPORT.json.
//
// The request schedule is a pure function of -seed and the run shape:
// two invocations with identical flags issue byte-identical request
// sequences (compare the schedule_fingerprint in the report, or print
// it without sending anything via -dry-run). Request i carries the
// deterministic trace ID lg-<fingerprint[:16]>-<i>, which the daemon
// adopts and echoes; the report names each (phase, type)'s slowest
// exchange by that ID (worst_trace_id), resolvable in the daemon's
// access log and /debug/requests recorder. Four modes:
//
//	-mode closed   fixed worker pool, zero think time (saturation)
//	-mode steady   open loop at -rps for -duration (token bucket)
//	-mode ramp     open-loop sweep -ramp begin:target:step, each step
//	               -step-duration long: one latency-vs-rate curve per run
//	-mode burst    the whole -requests volley fired concurrently on
//	               distinct diameter grids (uncoalescable): measures
//	               shedding, not service
//
// Usage:
//
//	loadgen -url http://127.0.0.1:8080 -mode closed -requests 2000
//	loadgen -url http://127.0.0.1:8080 -mode ramp -ramp 500:10000:2500 -step-duration 3s
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"opportunet/internal/cli"
	"opportunet/internal/loadgen"
)

func main() {
	url := flag.String("url", "", "daemon base URL (required), e.g. http://127.0.0.1:8080")
	dataset := flag.String("dataset", "", "dataset to drive (default: the daemon's sole dataset)")
	mode := flag.String("mode", "closed", "pacing mode: closed | steady | ramp | burst")
	requests := flag.Int("requests", 2000, "request count for closed and burst modes")
	rps := flag.Float64("rps", 1000, "arrival rate for steady mode")
	duration := flag.Duration("duration", 5*time.Second, "steady-mode length")
	ramp := flag.String("ramp", "1000:10000:3000", "ramp rates `begin:target:step` (requests per second)")
	stepDur := flag.Duration("step-duration", 2*time.Second, "length of each ramp step")
	mixFlag := flag.String("mix", "path=8,diameter=1,delaycdf=1", "query-type weights `path=w,diameter=w,delaycdf=w`")
	deadlines := flag.String("deadline-ms", "", "comma list of deadline_ms values sampled per request (0 = none)")
	workers := flag.Int("workers", 64, "worker pool shared by non-burst phases")
	seed := flag.Uint64("seed", 1, "schedule seed; same seed + shape = identical request sequence")
	timeout := flag.Duration("timeout", 60*time.Second, "per-request client timeout")
	out := flag.String("out", "LOADGEN_REPORT.json", "report path (- for stdout)")
	dryRun := flag.Bool("dry-run", false, "print the schedule fingerprint and exit without sending requests")
	vb := cli.AddVerbosityFlags()
	flag.Parse()

	if *url == "" {
		cli.Usage("loadgen", "need -url pointing at a running opportunetd")
	}
	if flag.NArg() > 0 {
		cli.Usage("loadgen", fmt.Sprintf("unexpected argument %q", flag.Arg(0)))
	}

	mix, err := parseMix(*mixFlag)
	if err != nil {
		cli.Usage("loadgen", err.Error())
	}
	deadMS, err := parseInts(*deadlines)
	if err != nil {
		cli.Usage("loadgen", fmt.Sprintf("bad -deadline-ms: %v", err))
	}

	var phases []loadgen.Phase
	switch *mode {
	case "closed":
		phases = loadgen.Closed(*requests)
	case "steady":
		phases = loadgen.Steady(*rps, *duration)
	case "ramp":
		begin, target, step, err := parseRamp(*ramp)
		if err != nil {
			cli.Usage("loadgen", fmt.Sprintf("bad -ramp: %v", err))
		}
		phases = loadgen.Ramp(begin, target, step, *stepDur)
	case "burst":
		phases = loadgen.Burst(*requests)
	default:
		cli.Usage("loadgen", fmt.Sprintf("unknown -mode %q", *mode))
	}

	ctx, stop := cli.Context(0)
	defer stop()

	target, err := loadgen.Discover(ctx, *url, *dataset)
	if err != nil {
		cli.Fail("loadgen", err)
	}
	vb.Logf("[loadgen: target %q: %d internal nodes, %.0fs window, %d-point grid]",
		target.Dataset, target.Internal, target.Window, target.Points)

	cfg := loadgen.Config{
		BaseURL:    *url,
		Target:     target,
		Seed:       *seed,
		Mix:        mix,
		Phases:     phases,
		Workers:    *workers,
		DeadlineMS: deadMS,
		Timeout:    *timeout,
	}

	if *dryRun {
		sched, err := loadgen.NewSchedule(cfg)
		if err != nil {
			cli.Fail("loadgen", err)
		}
		fp, n := sched.Fingerprint()
		fmt.Printf("schedule_fingerprint %s\nrequests %d\n", fp, n)
		return
	}

	rep, err := loadgen.Run(ctx, cfg)
	if err != nil {
		cli.Fail("loadgen", err)
	}
	for _, ph := range rep.Phases {
		for _, kind := range []string{"path", "diameter", "delaycdf"} {
			ts, ok := ph.Types[kind]
			if !ok {
				continue
			}
			vb.Logf("[loadgen: %s %s: %d reqs %.0f rps p50 %.2fms p99 %.2fms shed %d errors %d worst %.2fms (%s)]",
				ph.Name, kind, ts.Count, ts.Throughput, ts.P50MS, ts.P99MS, ts.Shed, ts.Errors,
				ts.WorstMS, ts.WorstTraceID)
		}
	}

	w := os.Stdout
	if *out != "-" {
		f, err := os.Create(*out)
		if err != nil {
			cli.Fail("loadgen", err)
		}
		defer f.Close()
		w = f
	}
	if err := loadgen.WriteReport(w, rep); err != nil {
		cli.Fail("loadgen", err)
	}
	if *out != "-" {
		vb.Logf("[loadgen: report written to %s]", *out)
	}
}

func parseMix(s string) (loadgen.Mix, error) {
	var m loadgen.Mix
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		k, v, ok := strings.Cut(part, "=")
		if !ok {
			return m, fmt.Errorf("bad -mix entry %q: want type=weight", part)
		}
		w, err := strconv.ParseFloat(v, 64)
		if err != nil || w < 0 {
			return m, fmt.Errorf("bad -mix weight %q", v)
		}
		switch k {
		case "path":
			m.Path = w
		case "diameter":
			m.Diameter = w
		case "delaycdf":
			m.DelayCDF = w
		default:
			return m, fmt.Errorf("unknown -mix type %q", k)
		}
	}
	if m.Path+m.Diameter+m.DelayCDF <= 0 {
		return m, fmt.Errorf("-mix has no positive weight")
	}
	return m, nil
}

func parseInts(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 0 {
			return nil, fmt.Errorf("bad entry %q", part)
		}
		out = append(out, n)
	}
	return out, nil
}

func parseRamp(s string) (begin, target, step float64, err error) {
	parts := strings.Split(s, ":")
	if len(parts) != 3 {
		return 0, 0, 0, fmt.Errorf("%q: want begin:target:step", s)
	}
	vals := make([]float64, 3)
	for i, p := range parts {
		if vals[i], err = strconv.ParseFloat(strings.TrimSpace(p), 64); err != nil || vals[i] < 0 {
			return 0, 0, 0, fmt.Errorf("bad rate %q", p)
		}
	}
	if vals[0] <= 0 || vals[1] < vals[0] {
		return 0, 0, 0, fmt.Errorf("%q: need 0 < begin <= target", s)
	}
	return vals[0], vals[1], vals[2], nil
}
