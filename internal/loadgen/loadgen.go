// Package loadgen drives an opportunetd daemon with reproducible HTTP
// load and measures what comes back: per-query-type latency
// histograms (p50/p90/p99), throughput, and the daemon's defensive
// responses — sheds (429) and errors.
//
// The request schedule is a pure function of (seed, index): request i
// derives its own rng stream, picks a query type by mix weight, and
// samples parameters (node pairs, times, grids, hop lists, deadlines)
// from that stream alone. Two runs with the same seed and shape issue
// the identical request sequence no matter how workers interleave —
// pinned by the schedule fingerprint the report carries and the smoke
// test compares across reruns.
//
// Three pacing modes cover the measurement space:
//
//   - closed loop: a fixed worker pool with zero think time — each
//     worker issues its next request the moment the previous answer
//     lands. Measures the daemon's saturation throughput.
//   - open loop (steady / ramp): a token bucket admits requests at a
//     target rate regardless of completions, the arrival pattern a
//     real population produces. A ramp chains steady phases from a
//     beginning rate to a target so one run yields a latency-vs-rate
//     curve.
//   - burst: the whole phase fired concurrently in one volley —
//     offered load deliberately beyond -max-inflight + -max-queue, to
//     measure shedding rather than service.
package loadgen

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"opportunet/internal/obs"
	"opportunet/internal/par"
)

// QueryKind enumerates the daemon endpoints the generator exercises.
type QueryKind int

const (
	KindPath QueryKind = iota
	KindDiameter
	KindDelayCDF
	numKinds
)

var kindNames = [numKinds]string{"path", "diameter", "delaycdf"}

func (k QueryKind) String() string { return kindNames[k] }

// Mix holds the relative weight of each query type in the schedule.
// Zero-valued mixes default to the serving-shaped 8:1:1 — mostly cheap
// warm path reads with a trickle of aggregation queries, the shape the
// daemon's admission defaults are tuned for.
type Mix struct {
	Path     float64
	Diameter float64
	DelayCDF float64
}

// DefaultMix is the 8:1:1 serving shape.
var DefaultMix = Mix{Path: 8, Diameter: 1, DelayCDF: 1}

func (m Mix) total() float64 { return m.Path + m.Diameter + m.DelayCDF }

func (m Mix) orDefault() Mix {
	if m.total() <= 0 {
		return DefaultMix
	}
	return m
}

// Target describes the dataset being driven — the parameters the
// schedule samples from. Discover fills it from /v1/datasets.
type Target struct {
	Dataset  string  // dataset name passed on every request
	Internal int     // internal node count; src/dst sampled from [0, Internal)
	Window   float64 // trace window seconds; t sampled from [0, Window)
	Points   int     // the daemon's default grid resolution
}

// Phase is one pacing segment of a run.
type Phase struct {
	Name     string
	Requests int
	// RPS is the open-loop arrival rate; 0 means unpaced (closed loop
	// and burst phases).
	RPS float64
	// Burst fires every request of the phase concurrently instead of
	// through the shared worker pool.
	Burst bool
	// Offset is the phase's starting index into the run-wide schedule
	// (filled by Plan).
	Offset int
}

// Config parameterizes one load run.
type Config struct {
	BaseURL string // daemon root, e.g. http://127.0.0.1:8080
	Target  Target
	Seed    uint64
	Mix     Mix
	Phases  []Phase
	// Workers is the pool size shared by all non-burst phases
	// (default 8). It bounds closed-loop concurrency and must outrun
	// RPS × latency for open-loop phases to hold their rate.
	Workers int
	// DeadlineMS, when non-empty, attaches deadline_ms sampled from
	// this list to every request (a 0 entry means "no deadline").
	DeadlineMS []int
	// Timeout bounds one HTTP exchange (default 60s).
	Timeout time.Duration
}

// Steady builds the single-phase open-loop plan: rate×duration
// requests paced at rate.
func Steady(rate float64, duration time.Duration) []Phase {
	n := int(rate * duration.Seconds())
	if n < 1 {
		n = 1
	}
	return []Phase{{Name: fmt.Sprintf("steady-%.0frps", rate), Requests: n, RPS: rate}}
}

// Ramp builds the latency-vs-rate plan: one steady phase per rate from
// begin to target inclusive in increments of step, each stepDur long.
func Ramp(begin, target, step float64, stepDur time.Duration) []Phase {
	if step <= 0 {
		step = target - begin
	}
	var phases []Phase
	for rate := begin; rate <= target+1e-9; rate += step {
		n := int(rate * stepDur.Seconds())
		if n < 1 {
			n = 1
		}
		phases = append(phases, Phase{
			Name: fmt.Sprintf("ramp-%.0frps", rate), Requests: n, RPS: rate,
		})
		if step == 0 {
			break
		}
	}
	return phases
}

// Closed builds the single-phase closed-loop plan.
func Closed(requests int) []Phase {
	return []Phase{{Name: "closed", Requests: requests}}
}

// Burst builds the single-volley overload plan.
func Burst(requests int) []Phase {
	return []Phase{{Name: "burst", Requests: requests, Burst: true}}
}

// typeStats accumulates one (phase, kind) cell during the run.
type typeStats struct {
	latency *obs.Histogram
	shed    atomic.Int64
	errors  atomic.Int64

	mu      sync.Mutex
	worst   time.Duration
	worstID string
}

// observe records one exchange's latency and keeps the trace ID of the
// slowest exchange the cell has seen — the handle that resolves the
// report's tail back to a full event trace in the daemon's access log
// or /debug/requests recorder.
func (st *typeStats) observe(d time.Duration, traceID string) {
	st.latency.Observe(d.Seconds())
	st.mu.Lock()
	if d > st.worst {
		st.worst, st.worstID = d, traceID
	}
	st.mu.Unlock()
}

// TypeReport is the per-query-type summary of one phase.
type TypeReport struct {
	Count      int64   `json:"count"`
	Throughput float64 `json:"throughput_rps"`
	P50MS      float64 `json:"p50_ms"`
	P90MS      float64 `json:"p90_ms"`
	P99MS      float64 `json:"p99_ms"`
	MeanMS     float64 `json:"mean_ms"`
	Shed       int64   `json:"shed"`
	Errors     int64   `json:"errors"`
	// WorstMS is the single slowest exchange and WorstTraceID the
	// X-Trace-Id it carried, resolvable in the daemon's access log and
	// /debug/requests while the flight recorder still holds it.
	WorstMS      float64 `json:"worst_ms"`
	WorstTraceID string  `json:"worst_trace_id"`
}

// PhaseReport summarizes one phase.
type PhaseReport struct {
	Name       string                `json:"name"`
	TargetRPS  float64               `json:"target_rps,omitempty"`
	Burst      bool                  `json:"burst,omitempty"`
	Requests   int                   `json:"requests"`
	DurationMS float64               `json:"duration_ms"`
	OfferedRPS float64               `json:"offered_rps"`
	Types      map[string]TypeReport `json:"types"`
}

// Report is the run artifact (LOADGEN_REPORT.json): configuration
// echo, the schedule fingerprint that makes reruns comparable, and the
// per-phase measurements.
type Report struct {
	Version     int           `json:"version"`
	BaseURL     string        `json:"base_url"`
	Dataset     string        `json:"dataset"`
	Seed        uint64        `json:"seed"`
	Workers     int           `json:"workers"`
	Mix         string        `json:"mix"`
	Fingerprint string        `json:"schedule_fingerprint"`
	Requests    int           `json:"requests"`
	WallMS      float64       `json:"wall_ms"`
	Phases      []PhaseReport `json:"phases"`
}

// WriteReport renders the report as indented JSON, the
// LOADGEN_REPORT.json artifact format.
func WriteReport(w io.Writer, rep *Report) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// latencyBuckets spans warm microsecond reads to deadline-bounded
// multi-second aggregations.
var latencyBuckets = []float64{
	0.0002, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
	0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30,
}

// Run executes the configured load and returns the measured report.
// The context cancels the run between requests; an already-issued
// exchange still runs to its own timeout.
func Run(ctx context.Context, cfg Config) (*Report, error) {
	sched, err := NewSchedule(cfg)
	if err != nil {
		return nil, err
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = 8
	}
	timeout := cfg.Timeout
	if timeout <= 0 {
		timeout = 60 * time.Second
	}
	client := &http.Client{
		Timeout: timeout,
		Transport: &http.Transport{
			MaxIdleConns:        workers * 4,
			MaxIdleConnsPerHost: workers * 4,
		},
	}
	defer client.CloseIdleConnections()

	rep := &Report{
		Version: 1,
		BaseURL: cfg.BaseURL,
		Dataset: cfg.Target.Dataset,
		Seed:    cfg.Seed,
		Workers: workers,
		Mix:     sched.mixString(),
	}
	rep.Fingerprint, rep.Requests = sched.Fingerprint()

	// Requests carry deterministic trace IDs lg-<fingerprint[:16]>-<index>:
	// a rerun with the same seed and shape issues the same IDs, so a
	// tail outlier in one run names the identical request in the next.
	tidPrefix := "lg-" + rep.Fingerprint[:16]

	start := time.Now()
	for _, ph := range sched.phases {
		pr, err := runPhase(ctx, client, cfg.BaseURL, sched, ph, workers, tidPrefix)
		if err != nil {
			return nil, err
		}
		rep.Phases = append(rep.Phases, pr)
	}
	rep.WallMS = float64(time.Since(start)) / float64(time.Millisecond)
	return rep, nil
}

func runPhase(ctx context.Context, client *http.Client, base string, sched *Schedule, ph Phase, workers int, tidPrefix string) (PhaseReport, error) {
	reg := obs.NewRegistry()
	stats := make([]typeStats, numKinds)
	for k := range stats {
		stats[k].latency = reg.Histogram(
			"loadgen_"+kindNames[k]+"_seconds", "request latency", latencyBuckets)
	}

	var bucket *tokenBucket
	if ph.RPS > 0 {
		// A touch of burst capacity absorbs scheduler jitter without
		// letting the offered rate drift above the target.
		bucket = newTokenBucket(ph.RPS, max(1, ph.RPS/20))
	}
	pool := workers
	if ph.Burst {
		pool = ph.Requests
	}

	var next atomic.Int64
	var failed atomic.Pointer[error]
	start := time.Now()
	par.Do(ph.Requests, pool, func(int) {
		for {
			i := int(next.Add(1)) - 1
			if i >= ph.Requests || ctx.Err() != nil {
				return
			}
			if bucket != nil {
				if err := bucket.wait(ctx); err != nil {
					return
				}
			}
			req := sched.request(ph, ph.Offset+i)
			tid := tidPrefix + "-" + strconv.Itoa(ph.Offset+i)
			if err := issue(ctx, client, base, req, tid, &stats[req.Kind]); err != nil {
				failed.Store(&err)
				return
			}
			if ph.Burst {
				// One volley per goroutine: offered load is the phase
				// size exactly, not whatever completions allow.
				return
			}
		}
	})
	elapsed := time.Since(start)
	if errp := failed.Load(); errp != nil {
		return PhaseReport{}, *errp
	}
	if err := ctx.Err(); err != nil {
		return PhaseReport{}, err
	}

	pr := PhaseReport{
		Name:       ph.Name,
		TargetRPS:  ph.RPS,
		Burst:      ph.Burst,
		Requests:   ph.Requests,
		DurationMS: float64(elapsed) / float64(time.Millisecond),
		OfferedRPS: float64(ph.Requests) / elapsed.Seconds(),
		Types:      make(map[string]TypeReport, numKinds),
	}
	for k := range stats {
		st := &stats[k]
		n := st.latency.Count()
		if n == 0 {
			continue
		}
		pr.Types[kindNames[k]] = TypeReport{
			Count:        n,
			Throughput:   float64(n) / elapsed.Seconds(),
			P50MS:        st.latency.Quantile(0.50) * 1e3,
			P90MS:        st.latency.Quantile(0.90) * 1e3,
			P99MS:        st.latency.Quantile(0.99) * 1e3,
			MeanMS:       st.latency.Sum() / float64(n) * 1e3,
			Shed:         st.shed.Load(),
			Errors:       st.errors.Load(),
			WorstMS:      float64(st.worst) / float64(time.Millisecond),
			WorstTraceID: st.worstID,
		}
	}
	return pr, nil
}

// issue performs one exchange and classifies the outcome. Only
// transport-level failures (daemon gone, timeout at the client) abort
// the run; HTTP-level failures are what the generator exists to count.
// The deterministic trace ID rides the X-Trace-Id header, which the
// daemon adopts, so every measured exchange is attributable server-side.
func issue(ctx context.Context, client *http.Client, base string, r Request, traceID string, st *typeStats) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+r.URL, nil)
	if err != nil {
		return err
	}
	req.Header.Set("X-Trace-Id", traceID)
	start := time.Now()
	resp, err := client.Do(req)
	if err != nil {
		if ctx.Err() != nil {
			return nil
		}
		return fmt.Errorf("loadgen: %s: %w", r.URL, err)
	}
	_, err = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	st.observe(time.Since(start), traceID)
	switch {
	case err != nil:
		st.errors.Add(1)
	case resp.StatusCode == http.StatusTooManyRequests:
		st.shed.Add(1)
	case resp.StatusCode != http.StatusOK:
		st.errors.Add(1)
	}
	return nil
}
