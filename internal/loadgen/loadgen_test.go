package loadgen

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"opportunet/internal/randtemp"
	"opportunet/internal/rng"
	"opportunet/internal/server"
)

// bootDaemon serves the real query pipeline over a small synthetic
// trace, exactly as opportunetd would.
func bootDaemon(t *testing.T, cfg server.Config) *httptest.Server {
	t.Helper()
	tr, err := randtemp.DiscreteModel{N: 10, Lambda: 0.3, Slots: 30, SlotSeconds: 300}.Generate(rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	tr.Name = "synth"
	ds, err := server.LoadDataset(tr, server.LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s := server.New(cfg)
	s.Register(ds)
	s.SetReady(true)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts
}

func TestRunClosedLoopAgainstDaemon(t *testing.T) {
	ts := bootDaemon(t, server.Config{})

	target, err := Discover(context.Background(), ts.URL, "")
	if err != nil {
		t.Fatal(err)
	}
	if target.Dataset != "synth" || target.Internal != 10 || target.Window <= 0 {
		t.Fatalf("Discover = %+v", target)
	}

	cfg := Config{
		BaseURL: ts.URL,
		Target:  target,
		Seed:    7,
		Phases:  Closed(200),
		Workers: 8,
	}
	rep, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requests != 200 || len(rep.Phases) != 1 {
		t.Fatalf("report shape: requests=%d phases=%d", rep.Requests, len(rep.Phases))
	}
	ph := rep.Phases[0]
	var total int64
	for kind, ts := range ph.Types {
		total += ts.Count
		if ts.Errors != 0 || ts.Shed != 0 {
			t.Errorf("%s: %d errors, %d shed against an idle daemon", kind, ts.Errors, ts.Shed)
		}
		if ts.Throughput <= 0 {
			t.Errorf("%s: throughput %g", kind, ts.Throughput)
		}
		if ts.P50MS <= 0 || ts.P99MS < ts.P50MS {
			t.Errorf("%s: implausible quantiles p50=%g p99=%g", kind, ts.P50MS, ts.P99MS)
		}
	}
	if total != 200 {
		t.Fatalf("per-type counts sum to %d, want 200", total)
	}
	for _, kind := range []string{"path", "diameter", "delaycdf"} {
		if _, ok := ph.Types[kind]; !ok {
			t.Errorf("query type %s absent from a 200-request default-mix run", kind)
		}
	}

	// Same seed and shape → same schedule, byte for byte.
	rep2, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Fingerprint != rep.Fingerprint {
		t.Fatalf("same-seed reruns fingerprint %s vs %s", rep2.Fingerprint, rep.Fingerprint)
	}
	cfg.Seed = 8
	sched, err := NewSchedule(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if fp, _ := sched.Fingerprint(); fp == rep.Fingerprint {
		t.Fatal("different seed left the fingerprint unchanged")
	}
}

func TestRunOpenLoopPacesArrivals(t *testing.T) {
	ts := bootDaemon(t, server.Config{})
	cfg := Config{
		BaseURL: ts.URL,
		Target:  Target{Dataset: "synth", Internal: 10, Window: 9000, Points: 64},
		Seed:    1,
		Phases:  []Phase{{Name: "paced", Requests: 50, RPS: 400}},
		Workers: 8,
	}
	start := time.Now()
	rep, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// 50 requests at 400/s with ~20 tokens of burst headroom cannot
	// finish faster than ~70ms; a closed loop on localhost would take
	// single-digit milliseconds.
	if elapsed := time.Since(start); elapsed < 50*time.Millisecond {
		t.Fatalf("open-loop phase finished in %v; bucket not pacing", elapsed)
	}
	if rep.Phases[0].TargetRPS != 400 {
		t.Fatalf("phase report target_rps = %g", rep.Phases[0].TargetRPS)
	}
}

// TestRunClassification pins the outcome taxonomy against a stub that
// answers each endpoint with a fixed disposition: paths succeed,
// diameters are shed with 429, delaycdfs miss their deadline with 504.
func TestRunClassification(t *testing.T) {
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case strings.HasPrefix(r.URL.Path, "/v1/path"):
			w.Write([]byte(`{"delivered":true}`))
		case strings.HasPrefix(r.URL.Path, "/v1/diameter"):
			w.WriteHeader(http.StatusTooManyRequests)
			w.Write([]byte(`{"error":"saturated"}`))
		case strings.HasPrefix(r.URL.Path, "/v1/delaycdf"):
			w.WriteHeader(http.StatusGatewayTimeout)
			w.Write([]byte(`{"error":"context deadline exceeded"}`))
		default:
			w.WriteHeader(http.StatusNotFound)
		}
	}))
	defer stub.Close()

	cfg := Config{
		BaseURL: stub.URL,
		Target:  Target{Dataset: "synth", Internal: 10, Window: 9000, Points: 64},
		Seed:    3,
		Phases:  Closed(300),
		Workers: 4,
	}
	rep, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	ph := rep.Phases[0]
	path, diam, cdf := ph.Types["path"], ph.Types["diameter"], ph.Types["delaycdf"]
	if path.Count == 0 || path.Shed != 0 || path.Errors != 0 {
		t.Errorf("path misclassified: %+v", path)
	}
	if diam.Count == 0 || diam.Shed != diam.Count {
		t.Errorf("429s not all counted as shed: %+v", diam)
	}
	if cdf.Count == 0 || cdf.Shed != 0 || cdf.Errors != cdf.Count {
		t.Errorf("504s not all counted as errors: %+v", cdf)
	}
}

func TestRunBurstVolley(t *testing.T) {
	var hits, conc, peak atomic.Int64
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		c := conc.Add(1)
		for p := peak.Load(); c > p && !peak.CompareAndSwap(p, c); p = peak.Load() {
		}
		time.Sleep(10 * time.Millisecond)
		conc.Add(-1)
		w.WriteHeader(http.StatusTooManyRequests)
	}))
	defer stub.Close()

	cfg := Config{
		BaseURL: stub.URL,
		Target:  Target{Dataset: "synth", Internal: 10, Window: 9000, Points: 64},
		Seed:    1,
		Phases:  Burst(32),
		Workers: 2, // ignored by burst phases: the volley is one goroutine per request
	}
	rep, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	diam := rep.Phases[0].Types["diameter"]
	if diam.Count != 32 || diam.Shed != 32 {
		t.Fatalf("burst volley: %+v, want 32 requests all shed", diam)
	}
	if hits.Load() != 32 {
		t.Fatalf("stub saw %d requests, want 32", hits.Load())
	}
	// With a 10ms hold per request, a 2-worker pool could never overlap
	// more than 2; the volley must overlap far beyond the pool size.
	if peak.Load() < 8 {
		t.Fatalf("peak concurrency %d; burst did not bypass the worker pool", peak.Load())
	}
}

func TestRunAbortsOnDeadDaemon(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close() // keep the URL, kill the listener

	cfg := Config{
		BaseURL: dead.URL,
		Target:  Target{Dataset: "synth", Internal: 10, Window: 9000, Points: 64},
		Seed:    1,
		Phases:  Closed(10),
		Workers: 2,
		Timeout: 2 * time.Second,
	}
	if _, err := Run(context.Background(), cfg); err == nil {
		t.Fatal("Run succeeded against a closed listener")
	}
}
