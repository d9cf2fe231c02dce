package server

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"
)

// Allocation pins for the query path: admission is pure channel +
// atomic work, the coalescing key is a bounded handful of small
// allocations (hasher state plus the hex string), and a warm /v1/path
// request costs a fixed count through the stdlib query parser and
// encoder. A pin that moves means the request path changed shape.

func TestAdmissionAcquireReleaseAllocs(t *testing.T) {
	a := newAdmission(4, 4, 0)
	allocs := testing.AllocsPerRun(1000, func() {
		if err := a.acquire(nil, nil); err != nil {
			t.Fatal(err)
		}
		a.release()
	})
	if allocs != 0 {
		t.Fatalf("acquire/release fast path allocates %v per op, want 0", allocs)
	}
}

// TestWarmPathServeAllocs pins the whole warm /v1/path request —
// routing, pipeline, query parsing, frontier lookup, and the encoded
// response — end to end over a reused httptest recorder. The budget is
// the measured count (go1.24, linux/amd64): 7 for r.URL.Query(), one
// each for the query, the frontier, the response, the marshalled body
// and the Content-Type header value.
func TestWarmPathServeAllocs(t *testing.T) {
	ds := testDataset(t)
	s := New(Config{})
	s.Register(ds)
	s.SetReady(true)
	h := s.Handler()

	req := httptest.NewRequest("GET", "/v1/path?dataset=synth&src=0&dst=1&t=300&maxhops=3", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("warm request: status %d body %s", rec.Code, rec.Body)
	}
	want := rec.Body.String()

	allocs := testing.AllocsPerRun(1000, func() {
		rec.Body.Reset()
		h.ServeHTTP(rec, req)
	})
	if got := rec.Body.String(); got != want {
		t.Fatalf("warm response drifted across runs: %q vs %q", got, want)
	}
	t.Logf("allocs per warm /v1/path request: %.1f", allocs)
	budget := 12.0
	if raceDetectorEnabled {
		// Under -race sync.Pool drops Puts at random, so json.Marshal
		// reallocates its pooled encode state on part of the runs.
		budget = 13
	}
	if allocs > budget {
		t.Fatalf("warm /v1/path allocates %.1f times per request, budget %.0f", allocs, budget)
	}
}

// TestWarmPathServeAllocsTraced re-runs the warm /v1/path pin with the
// full tracing stack on — recorder at the daemon default, access log,
// slow-trace threshold. The pooled trace and the fixed-buffer recorder
// copy stay allocation-free; the growth over the untraced pin is the
// trace-ID response header (one string + one header slice) and the
// access-log line (the trace-ID string, the struct boxed for Marshal,
// and the marshalled bytes).
func TestWarmPathServeAllocsTraced(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("race instrumentation allocates inside the traced header echo; the pin is measured without -race")
	}
	ds := testDataset(t)
	s := New(Config{
		Recorder:      256,
		AccessLog:     io.Discard,
		SlowThreshold: time.Hour, // armed but never tripped by a warm read
	})
	s.Register(ds)
	s.SetReady(true)
	h := s.Handler()

	req := httptest.NewRequest("GET", "/v1/path?dataset=synth&src=0&dst=1&t=300&maxhops=3", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("warm request: status %d body %s", rec.Code, rec.Body)
	}
	want := rec.Body.String()

	allocs := testing.AllocsPerRun(1000, func() {
		rec.Body.Reset()
		h.ServeHTTP(rec, req)
	})
	if got := rec.Body.String(); got != want {
		t.Fatalf("warm response drifted across runs: %q vs %q", got, want)
	}
	t.Logf("allocs per traced warm /v1/path request: %.1f", allocs)
	const budget = 17
	if allocs > budget {
		t.Fatalf("traced warm /v1/path allocates %.1f times per request, budget %d", allocs, budget)
	}
}

func TestQueryKeyAllocs(t *testing.T) {
	eps := formatFloat(0.01)
	points := strconv.Itoa(60)
	allocs := testing.AllocsPerRun(1000, func() {
		_ = queryKey("diameter", "synth", eps, points)
	})
	// sha256 state + Sum + hex + the fmt boxing inside Fingerprint: a
	// fixed small count independent of input size.
	if allocs > 12 {
		t.Fatalf("queryKey allocates %v per op, want <= 12", allocs)
	}
}
