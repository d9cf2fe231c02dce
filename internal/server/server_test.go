package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"opportunet/internal/obs"
	"opportunet/internal/randtemp"
	"opportunet/internal/rng"
	"opportunet/internal/trace"
)

// testTrace is the shared synthetic dataset: small enough to load in
// milliseconds, dense enough that most pairs deliver within the window.
func testTrace(t testing.TB) *trace.Trace {
	t.Helper()
	tr, err := randtemp.DiscreteModel{N: 10, Lambda: 0.3, Slots: 30, SlotSeconds: 300}.Generate(rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	tr.Name = "synth"
	return tr
}

func testDataset(t testing.TB) *Dataset {
	t.Helper()
	ds, err := LoadDataset(testTrace(t), LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func newTestServer(t *testing.T, cfg Config, ds *Dataset) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	if ds != nil {
		s.Register(ds)
	}
	s.SetReady(true)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func getJSON(t *testing.T, url string, wantCode int, out any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != wantCode {
		t.Fatalf("GET %s: status %d, want %d (body %s)", url, resp.StatusCode, wantCode, body)
	}
	if out != nil {
		if err := json.Unmarshal(body, out); err != nil {
			t.Fatalf("GET %s: bad JSON %q: %v", url, body, err)
		}
	}
	return resp
}

// expiredCtx returns a context whose deadline has already passed — the
// deterministic stand-in for "the computation would bust the deadline".
func expiredCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	t.Cleanup(cancel)
	return ctx
}

func TestDatasetsAndHealthEndpoints(t *testing.T) {
	ds := testDataset(t)
	_, ts := newTestServer(t, Config{}, ds)

	var list struct {
		Datasets []datasetInfo `json:"datasets"`
	}
	getJSON(t, ts.URL+"/v1/datasets", http.StatusOK, &list)
	if len(list.Datasets) != 1 || list.Datasets[0].Name != "synth" {
		t.Fatalf("datasets = %+v, want one entry named synth", list.Datasets)
	}
	info := list.Datasets[0]
	if info.Nodes != 10 || info.Hops < 1 {
		t.Fatalf("dataset info = %+v", info)
	}
	if info.Diameter != ds.Diameter || info.Diameter < 1 {
		t.Fatalf("info diameter %d, loaded diameter %d", info.Diameter, ds.Diameter)
	}

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v %v", resp.StatusCode, err)
	}
	resp.Body.Close()
	resp, err = http.Get(ts.URL + "/readyz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz: %v %v", resp.StatusCode, err)
	}
	resp.Body.Close()
}

func TestNotReady503(t *testing.T) {
	ds := testDataset(t)
	s, ts := newTestServer(t, Config{}, ds)
	s.SetReady(false)
	var e map[string]string
	resp := getJSON(t, ts.URL+"/v1/datasets", http.StatusServiceUnavailable, &e)
	if resp.Header.Get("Retry-After") == "" {
		t.Fatalf("loading 503 should carry Retry-After")
	}
}

func TestPathEndpoint(t *testing.T) {
	ds := testDataset(t)
	_, ts := newTestServer(t, Config{}, ds)

	// Find a delivering pair so the reconstruction branch is exercised.
	src, dst := trace.NodeID(-1), trace.NodeID(-1)
	for a := trace.NodeID(0); a < 10 && src < 0; a++ {
		for b := trace.NodeID(0); b < 10; b++ {
			if a == b || ds.CheckPair(a, b) != nil {
				continue
			}
			if del := ds.Study.Result.Frontier(a, b, 0).Del(ds.View.Start()); del < ds.View.End() {
				src, dst = a, b
				break
			}
		}
	}
	if src < 0 {
		t.Fatal("no delivering pair in the synthetic trace")
	}

	var pr pathResponse
	getJSON(t, fmt.Sprintf("%s/v1/path?src=%d&dst=%d&reconstruct=1", ts.URL, src, dst), http.StatusOK, &pr)
	if !pr.Delivered || len(pr.Path) == 0 {
		t.Fatalf("path response %+v: want delivered with a reconstructed path", pr)
	}
	if pr.Path[0].From != src || pr.Path[len(pr.Path)-1].To != dst {
		t.Fatalf("path endpoints %v do not match query (%d, %d)", pr.Path, src, dst)
	}
	if pr.MinHops < 1 || len(pr.Path) < pr.MinHops {
		t.Fatalf("path of %d hops vs min_hops %d", len(pr.Path), pr.MinHops)
	}

	// Malformed and out-of-range queries fail before admission.
	getJSON(t, ts.URL+"/v1/path?src=zebra&dst=1", http.StatusBadRequest, nil)
	getJSON(t, ts.URL+"/v1/path?src=0&dst=99", http.StatusBadRequest, nil)
	getJSON(t, ts.URL+"/v1/path?src=0&dst=1&dataset=nope", http.StatusNotFound, nil)
	getJSON(t, ts.URL+"/v1/path?src=0&dst=1&deadline_ms=-5", http.StatusBadRequest, nil)
}

func TestDiameterExact(t *testing.T) {
	ds := testDataset(t)
	_, ts := newTestServer(t, Config{}, ds)

	var dr diameterResponse
	getJSON(t, ts.URL+"/v1/diameter", http.StatusOK, &dr)
	wantK, wantWorst := ds.Study.Diameter(ds.DefaultEps, ds.Grid(ds.DefaultPoints))
	if dr.Diameter != wantK || dr.WorstRatio != wantWorst {
		t.Fatalf("served diameter (%d, %v) != direct (%d, %v)", dr.Diameter, dr.WorstRatio, wantK, wantWorst)
	}
}

// TestDiameter504WhenNoWarmBounds: the daemon keeps no bounds to answer
// with, so a default-grid diameter whose deadline has expired fails
// with the context's error, 504 over HTTP, although LoadDataset cached
// its curves.
func TestDiameter504WhenNoWarmBounds(t *testing.T) {
	ds := testDataset(t)
	s, _ := newTestServer(t, Config{}, ds)

	q := &query{endpoint: "diameter", eps: ds.DefaultEps, points: ds.DefaultPoints}
	val, err := s.handleDiameter(expiredCtx(t), ds, q)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got (%+v, %v), want context.DeadlineExceeded", val, err)
	}
	if code, _ := mapError(err); code != http.StatusGatewayTimeout {
		t.Fatalf("mapped code = %d, want 504", code)
	}
}

// TestDiameterDegradedContainment: a fresh-grid diameter that misses its
// deadline fails with 504 and leaves nothing behind. The next query on
// that grid answers the exact diameter a dataset that never saw the
// cancelled integration computes, and the default diameter is
// unchanged.
func TestDiameterDegradedContainment(t *testing.T) {
	ds := testDataset(t)
	s, ts := newTestServer(t, Config{}, ds)
	fresh := ds.DefaultPoints + 7

	q := &query{endpoint: "diameter", eps: ds.DefaultEps, points: fresh}
	val, err := s.handleDiameter(expiredCtx(t), ds, q)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got (%+v, %v), want context.DeadlineExceeded", val, err)
	}
	if code, _ := mapError(err); code != http.StatusGatewayTimeout {
		t.Fatalf("mapped code = %d, want 504", code)
	}

	clean := testDataset(t)
	wantK, wantWorst := clean.Study.Diameter(clean.DefaultEps, clean.Grid(fresh))
	var dr diameterResponse
	getJSON(t, fmt.Sprintf("%s/v1/diameter?points=%d", ts.URL, fresh), http.StatusOK, &dr)
	if dr.Points != fresh || dr.Diameter != wantK || dr.WorstRatio != wantWorst {
		t.Fatalf("fresh-grid diameter after a deadline miss %+v, want (%d, %v) on %d points",
			dr, wantK, wantWorst, fresh)
	}
	defK, _ := clean.Study.Diameter(clean.DefaultEps, clean.Grid(clean.DefaultPoints))
	getJSON(t, ts.URL+"/v1/diameter", http.StatusOK, &dr)
	if dr.Diameter != defK {
		t.Fatalf("default diameter %d after a deadline miss, want %d", dr.Diameter, defK)
	}
}

func TestDelayCDFExactAndDeadline504(t *testing.T) {
	ds := testDataset(t)
	s, ts := newTestServer(t, Config{}, ds)

	hops := []int{1, 2, 0}
	var exact delayCDFResponse
	getJSON(t, ts.URL+"/v1/delaycdf?hops=1,2,0", http.StatusOK, &exact)
	if len(exact.Curves) != len(hops) {
		t.Fatalf("exact cdf response %+v", exact)
	}
	for _, c := range exact.Curves {
		if len(c.Success) != len(exact.Grid) {
			t.Fatalf("hop %d: %d success values for %d grid points", c.HopBound, len(c.Success), len(exact.Grid))
		}
	}

	// The default query's curves are cached from load; an expired
	// deadline still fails it, as it fails a fresh grid.
	for _, q := range []*query{
		{endpoint: "delaycdf", hops: []int{1, 2, 3, 0}, hopsRaw: defaultHops, points: ds.DefaultPoints},
		{endpoint: "delaycdf", hops: hops, hopsRaw: "1,2,0", points: ds.DefaultPoints + 7},
	} {
		val, err := s.handleDelayCDF(expiredCtx(t), ds, q)
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("hops %s on %d points: got (%+v, %v), want context.DeadlineExceeded", q.hopsRaw, q.points, val, err)
		}
		if code, _ := mapError(err); code != http.StatusGatewayTimeout {
			t.Fatalf("hops %s on %d points: mapped code = %d, want 504", q.hopsRaw, q.points, code)
		}
	}
}

// TestDefaultQueriesWarmFromLoad: LoadDataset answers the default
// /v1/diameter and /v1/delaycdf, so serving them integrates no curve,
// and /v1/datasets reports the same diameter /v1/diameter answers.
func TestDefaultQueriesWarmFromLoad(t *testing.T) {
	reg := obs.NewRegistry()
	obs.Wire(reg)
	defer obs.Wire(nil)

	ds := testDataset(t)
	_, ts := newTestServer(t, Config{}, ds)
	misses := reg.Counter("analysis_curve_cache_misses_total", "")
	before := misses.Value()
	var dr diameterResponse
	getJSON(t, ts.URL+"/v1/diameter", http.StatusOK, &dr)
	getJSON(t, ts.URL+"/v1/delaycdf", http.StatusOK, nil)
	if now := misses.Value(); now != before {
		t.Fatalf("default queries integrated curves: cache misses %d -> %d", before, now)
	}

	var list struct {
		Datasets []datasetInfo `json:"datasets"`
	}
	getJSON(t, ts.URL+"/v1/datasets", http.StatusOK, &list)
	if got := list.Datasets[0].Diameter; got != dr.Diameter {
		t.Fatalf("/v1/datasets diameter %d, /v1/diameter %d", got, dr.Diameter)
	}
}

func TestPanicContainment(t *testing.T) {
	ds := testDataset(t)
	s, _ := newTestServer(t, Config{}, ds)

	var logged []string
	var logMu sync.Mutex
	s.cfg.Logf = func(format string, args ...any) {
		logMu.Lock()
		logged = append(logged, fmt.Sprintf(format, args...))
		logMu.Unlock()
	}
	mux := http.NewServeMux()
	mux.Handle("/boom", s.endpoint("boom", true, func(context.Context, *Dataset, *query) (any, error) {
		panic("kaboom")
	}))
	mux.Handle("/ok", s.endpoint("ok", true, func(context.Context, *Dataset, *query) (any, error) {
		return map[string]bool{"ok": true}, nil
	}))
	ts := httptest.NewServer(mux)
	defer ts.Close()

	getJSON(t, ts.URL+"/boom?dataset=synth", http.StatusInternalServerError, nil)
	logMu.Lock()
	n := len(logged)
	hasStack := n > 0 && strings.Contains(logged[0], "panic: kaboom") && strings.Contains(logged[0], "goroutine")
	logMu.Unlock()
	if !hasStack {
		t.Fatalf("panic log missing value or stack: %q", logged)
	}
	// The daemon must survive: the next request on the same server works
	// and the admission slot was released despite the panic.
	for i := 0; i < 3; i++ {
		getJSON(t, ts.URL+"/ok?dataset=synth", http.StatusOK, nil)
	}
	if s.started.Load() != s.finished.Load() {
		t.Fatalf("request accounting leaked: started=%d finished=%d", s.started.Load(), s.finished.Load())
	}
}

// TestUnencodableResponse500: a response encoding/json rejects (a
// non-finite float) fails the request with a JSON 500 classified as an
// error, never a 200 with a truncated body.
func TestUnencodableResponse500(t *testing.T) {
	ds := testDataset(t)
	log := &logBuf{}
	s, _ := newTestServer(t, Config{AccessLog: log}, ds)
	mux := http.NewServeMux()
	mux.Handle("/nan", s.endpoint("nan", false, func(context.Context, *Dataset, *query) (any, error) {
		return map[string]float64{"x": math.NaN()}, nil
	}))
	ts := httptest.NewServer(mux)
	defer ts.Close()

	var e errorResponse
	resp := getJSON(t, ts.URL+"/nan?dataset=synth", http.StatusInternalServerError, &e)
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" || !strings.Contains(e.Error, "NaN") {
		t.Fatalf("unencodable response: Content-Type %q, error %q", ct, e.Error)
	}
	waitFor(t, "error disposition in the access log", func() bool {
		return strings.Contains(log.String(), `"status":500,"disposition":"error"`)
	})
}

func TestOverloadSheds429(t *testing.T) {
	ds := testDataset(t)
	s, _ := newTestServer(t, Config{MaxInflight: 1, MaxQueue: 1, QueueWait: time.Minute}, ds)

	gate := make(chan struct{})
	entered := make(chan struct{})
	var enterOnce sync.Once
	mux := http.NewServeMux()
	mux.Handle("/slow", s.endpoint("slow", true, func(ctx context.Context, _ *Dataset, _ *query) (any, error) {
		enterOnce.Do(func() { close(entered) })
		<-gate
		return map[string]bool{"ok": true}, nil
	}))
	ts := httptest.NewServer(mux)
	defer ts.Close()

	results := make(chan int, 2)
	for i := 0; i < 2; i++ {
		go func() {
			resp, err := http.Get(ts.URL + "/slow?dataset=synth")
			if err != nil {
				results <- -1
				return
			}
			resp.Body.Close()
			results <- resp.StatusCode
		}()
	}
	<-entered               // one request holds the slot
	waitQueued(t, s.adm, 1) // one request parked in the queue

	// The third concurrent request overflows the queue: shed, 429, with
	// Retry-After so clients back off instead of hammering.
	resp, err := http.Get(ts.URL + "/slow?dataset=synth")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow request: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 must carry Retry-After")
	}

	close(gate)
	for i := 0; i < 2; i++ {
		if code := <-results; code != http.StatusOK {
			t.Fatalf("blocked request finished with %d, want 200", code)
		}
	}
	if s.started.Load() != s.finished.Load() {
		t.Fatalf("accounting leaked: started=%d finished=%d", s.started.Load(), s.finished.Load())
	}
}

// drainServer starts a Server on a real listener (Drain needs the
// embedded http.Server that only Serve creates).
func drainServer(t *testing.T, s *Server, mux http.Handler) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	s.httpSrv = &http.Server{
		Handler:     mux,
		BaseContext: func(net.Listener) context.Context { return s.reqCtx },
	}
	s.mu.Unlock()
	go func() { _ = s.Serve(ln) }()
	return "http://" + ln.Addr().String()
}

func TestDrainWaitsForInflight(t *testing.T) {
	ds := testDataset(t)
	s := New(Config{})
	s.Register(ds)
	s.SetReady(true)

	gate := make(chan struct{})
	entered := make(chan struct{})
	mux := http.NewServeMux()
	// The handler honours its context, so anything that cancelled
	// request contexts before the budget ran out would fail it.
	mux.Handle("/slow", s.endpoint("slow", true, func(ctx context.Context, _ *Dataset, _ *query) (any, error) {
		close(entered)
		select {
		case <-gate:
			return map[string]bool{"ok": true}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}))
	url := drainServer(t, s, mux)

	reqDone := make(chan int, 1)
	go func() {
		resp, err := http.Get(url + "/slow?dataset=synth")
		if err != nil {
			reqDone <- -1
			return
		}
		resp.Body.Close()
		reqDone <- resp.StatusCode
	}()
	<-entered

	drained := make(chan DrainStats, 1)
	go func() { drained <- s.Drain(10 * time.Second) }()

	// While draining, readiness is already off but the in-flight request
	// keeps running until the gate opens.
	select {
	case st := <-drained:
		t.Fatalf("drain finished with a request still in flight: %+v", st)
	case <-time.After(50 * time.Millisecond):
	}
	close(gate)
	st := <-drained
	if st.Forced {
		t.Fatalf("drain forced despite the request finishing inside the budget: %+v", st)
	}
	if st.Started != st.Finished || st.Inflight != 0 {
		t.Fatalf("drain leaked: %+v", st)
	}
	if code := <-reqDone; code != http.StatusOK {
		t.Fatalf("in-flight request during drain: status %d, want 200", code)
	}
}

func TestDrainForcesStuckRequests(t *testing.T) {
	ds := testDataset(t)
	s := New(Config{})
	s.Register(ds)
	s.SetReady(true)

	entered := make(chan struct{})
	mux := http.NewServeMux()
	mux.Handle("/stuck", s.endpoint("stuck", true, func(ctx context.Context, _ *Dataset, _ *query) (any, error) {
		close(entered)
		<-ctx.Done() // only the drain hammer (or deadline) frees this
		return nil, ctx.Err()
	}))
	url := drainServer(t, s, mux)

	go func() {
		resp, err := http.Get(url + "/stuck?dataset=synth")
		if err == nil {
			resp.Body.Close()
		}
	}()
	<-entered

	st := s.Drain(100 * time.Millisecond)
	if !st.Forced {
		t.Fatalf("drain of a stuck request must be forced: %+v", st)
	}
	if st.Started != st.Finished || st.Inflight != 0 {
		t.Fatalf("forced drain leaked: %+v", st)
	}
}

func TestDrainingRejectsNewRequests(t *testing.T) {
	ds := testDataset(t)
	s, ts := newTestServer(t, Config{}, ds)
	s.draining.Store(true)
	getJSON(t, ts.URL+"/v1/datasets", http.StatusServiceUnavailable, nil)
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz while draining: %d, want 503", resp.StatusCode)
	}
}

func TestDiameterCoalescesIdenticalQueries(t *testing.T) {
	ds := testDataset(t)
	s, _ := newTestServer(t, Config{MaxInflight: 8}, ds)

	// Identical concurrent queries through the real handler must agree;
	// the flights counter moving by less than the request count proves
	// at least some coalescing happened (timing decides exactly how
	// much, so the strict single-flight property is asserted in
	// TestCoalesceSharesOneRun instead).
	const n = 8
	var wg sync.WaitGroup
	vals := make([]any, n)
	errs := make([]error, n)
	q := &query{endpoint: "diameter", eps: ds.DefaultEps, points: ds.DefaultPoints}
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			vals[i], errs[i] = s.handleDiameter(context.Background(), ds, q)
		}(i)
	}
	wg.Wait()
	var want *diameterResponse
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("query %d: %v", i, errs[i])
		}
		dr := vals[i].(*diameterResponse)
		if want == nil {
			want = dr
		} else if dr.Diameter != want.Diameter || dr.WorstRatio != want.WorstRatio {
			t.Fatalf("query %d disagrees: %+v vs %+v", i, dr, want)
		}
	}
}

// TestDelayCDFHopsAboveFixpoint: hop bounds at or above the dataset's
// fixpoint answer the unbounded curve bit for bit, echo the requested
// bounds, and build no frontier set of their own.
func TestDelayCDFHopsAboveFixpoint(t *testing.T) {
	reg := obs.NewRegistry()
	obs.Wire(reg)
	defer obs.Wire(nil)

	ds := testDataset(t)
	_, ts := newTestServer(t, Config{}, ds)
	var ref delayCDFResponse
	getJSON(t, ts.URL+"/v1/delaycdf?hops=0", http.StatusOK, &ref)
	misses := reg.Counter("analysis_frontier_memo_misses_total", "").Value()

	h := ds.Study.Result.Hops
	hops := []int{h, h + 1, 1 << 20}
	var got delayCDFResponse
	getJSON(t, fmt.Sprintf("%s/v1/delaycdf?hops=%d,%d,%d", ts.URL, hops[0], hops[1], hops[2]), http.StatusOK, &got)
	if len(got.Curves) != len(hops) {
		t.Fatalf("response %+v: want %d exact curves", got, len(hops))
	}
	want := ref.Curves[0].Success
	for i, c := range got.Curves {
		if c.HopBound != hops[i] || len(c.Success) != len(want) {
			t.Fatalf("curve %d: bound %d with %d values, want bound %d with %d", i, c.HopBound, len(c.Success), hops[i], len(want))
		}
		for g := range want {
			if math.Float64bits(c.Success[g]) != math.Float64bits(want[g]) {
				t.Fatalf("bound %d grid %d: %v, unbounded %v", c.HopBound, g, c.Success[g], want[g])
			}
		}
	}
	if now := reg.Counter("analysis_frontier_memo_misses_total", "").Value(); now != misses {
		t.Fatalf("bounds at or above the fixpoint built frontiers: memo misses %d -> %d", misses, now)
	}
}
