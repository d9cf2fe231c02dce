// Command perfbench is the repository benchmark: it generates one
// workload's inputs from a seed, drives the layers through their public
// functions (and the opportunetd daemon over loopback HTTP), checks every
// output against an oracle, and prints the workload's metrics as the
// last line of standard output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"wall_s": {"value": 9.7, "unit": "s"}, ...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the
// run repeats the measured work with per-layer timers and the program's
// own counters on and prints the per-layer metrics plus the tracing
// overhead. README.md in this directory describes each workload.
//
// Usage (from the repository root; run.sh builds the binaries first):
//
//	bash perfbench/run.sh --workload study --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// run is one benchmark invocation's settings.
type run struct {
	seed    uint64
	seconds float64
	traced  bool
	daemon  string // opportunetd binary (serve workload)
	dir     string // directory for generated files
	nproc   int
}

// outcome is what a workload reports: operations attempted and failed
// (errors, refusals and wrong answers all count), its metrics, and the
// input-size facts printed before the result line.
type outcome struct {
	attempted, failed int64
	metrics           map[string]float64
	size              []string
}

func newOutcome() *outcome { return &outcome{metrics: make(map[string]float64)} }

// check counts one oracle comparison, failing it when ok is false.
func (o *outcome) check(ok bool) {
	o.attempted++
	if !ok {
		o.failed++
	}
}

// op counts one operation that either succeeded or returned err.
func (o *outcome) op(err error) {
	o.check(err == nil)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	}
}

func (o *outcome) sizef(format string, args ...any) {
	o.size = append(o.size, fmt.Sprintf(format, args...))
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(*run) (*outcome, error){
	"study":  runStudy,
	"serve":  runServe,
	"ingest": runIngest,
	"suite":  runSuite,
}

// metricJSON is one metric in the result line.
type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultJSON is the result line's schema.
type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

// result turns an outcome into the result line, with units from the
// metric table. A metric the table does not know is a benchmark bug.
func result(o *outcome, traced bool) (resultJSON, error) {
	names := endToEnd
	if traced {
		names = perLayerNames()
	}
	res := resultJSON{
		Correct:   o.failed == 0 && o.attempted > 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   make(map[string]metricJSON, len(names)),
	}
	for _, m := range names {
		v, ok := o.metrics[m.name]
		if !ok {
			v = 0 // a layer the workload does not exercise did no work
			if !traced {
				return res, fmt.Errorf("end-to-end metric %s was not measured", m.name)
			}
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return res, fmt.Errorf("metric %s is %v", m.name, v)
		}
		res.Metrics[m.name] = metricJSON{Value: v, Unit: m.unit}
	}
	for name := range o.metrics {
		if _, ok := res.Metrics[name]; !ok {
			return res, fmt.Errorf("metric %s is not in the metric table", name)
		}
	}
	return res, nil
}

func main() {
	workload := flag.String("workload", "", "workload to run: study, serve, ingest or suite")
	seed := flag.Uint64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Float64("seconds", 10, "how long to measure")
	trace := flag.Int("trace", 0, "1 = traced run printing per-layer metrics")
	daemon := flag.String("daemon", "", "opportunetd binary (serve workload)")
	dir := flag.String("dir", ".bench_build/work", "directory for generated input files")
	flag.Parse()

	fn, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need -workload study|serve|ingest|suite, -seconds > 0 and -trace 0|1")
		os.Exit(2)
	}
	r := &run{
		seed:    *seed,
		seconds: *seconds,
		traced:  *trace == 1,
		daemon:  *daemon,
		dir:     filepath.Join(*dir, *workload+"-"+strconv.FormatUint(*seed, 10)),
		nproc:   runtime.NumCPU(),
	}
	// All load comes from this one process, on at most nproc threads.
	runtime.GOMAXPROCS(r.nproc)
	if err := os.MkdirAll(r.dir, 0o755); err != nil {
		fail(err)
	}
	o, err := fn(r)
	if err != nil {
		fail(fmt.Errorf("%s: %w", *workload, err))
	}
	res, err := result(o, r.traced)
	if err != nil {
		fail(err)
	}
	for _, line := range o.size {
		fmt.Printf("input %s\n", line)
	}
	b, err := json.Marshal(res)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(b))
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	os.Exit(1)
}

// peakRSSMiB reads the high-water resident set (VmHWM) of a process
// from /proc; pid "self" is this process.
func peakRSSMiB(pid string) (float64, error) {
	b, err := os.ReadFile(filepath.Join("/proc", pid, "status"))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

// timed returns how long fn took, in seconds.
func timed(fn func()) float64 {
	t0 := time.Now()
	fn()
	return time.Since(t0).Seconds()
}

// repeat runs pass at least once and again while the measured budget
// allows another pass of median length, returning each pass's seconds.
func (r *run) repeat(pass func() error) ([]float64, error) {
	start := time.Now()
	var durs []float64
	for {
		t0 := time.Now()
		if err := pass(); err != nil {
			return durs, err
		}
		durs = append(durs, time.Since(t0).Seconds())
		if time.Since(start).Seconds()+median(durs) > r.seconds {
			return durs, nil
		}
	}
}

// setupRepeats is how many times each workload sets up; setup_s is the
// median, so a one-off stall does not move it.
const setupRepeats = 3
