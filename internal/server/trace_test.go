package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"opportunet/internal/obs"
)

// logBuf is a concurrency-safe sink for the access log. The logger
// serializes its own writes; the buffer guards test readers against
// the handler's deferred retire racing an assertion.
type logBuf struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *logBuf) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *logBuf) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

func (l *logBuf) reset() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.b.Reset()
}

// lines decodes every access-log line into a generic map.
func (l *logBuf) lines(t *testing.T) []map[string]any {
	t.Helper()
	var out []map[string]any
	for _, ln := range strings.Split(strings.TrimSpace(l.String()), "\n") {
		if ln == "" {
			continue
		}
		var m map[string]any
		if err := json.Unmarshal([]byte(ln), &m); err != nil {
			t.Fatalf("access log line %q is not JSON: %v", ln, err)
		}
		out = append(out, m)
	}
	return out
}

// waitFor polls cond until it holds or the deadline passes — the
// access-log line lands in a deferred retire that can lag the client's
// view of the response by a scheduler beat.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestTraceIDRoundTrip(t *testing.T) {
	ds := testDataset(t)
	log := &logBuf{}
	s, ts := newTestServer(t, Config{Recorder: 32, AccessLog: log}, ds)
	_ = s

	// A client-provided trace ID is adopted, echoed, and lands in the
	// access log.
	req, _ := http.NewRequest("GET", ts.URL+"/v1/path?dataset=synth&src=0&dst=1&t=300", nil)
	req.Header.Set("X-Trace-Id", "client-trace-42")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Trace-Id"); got != "client-trace-42" {
		t.Fatalf("echoed trace ID = %q, want the client's own", got)
	}
	waitFor(t, "client trace ID in access log", func() bool {
		return strings.Contains(log.String(), `"trace_id":"client-trace-42"`)
	})

	// Absent the header, the daemon generates a 16-hex ID and still
	// echoes it.
	resp, err = http.Get(ts.URL + "/v1/path?dataset=synth&src=0&dst=1&t=300")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	gen := resp.Header.Get("X-Trace-Id")
	if len(gen) != 16 || strings.Trim(gen, "0123456789abcdef") != "" {
		t.Fatalf("generated trace ID %q, want 16 hex chars", gen)
	}

	// The req line carries the full attribution schema.
	waitFor(t, "two access log lines", func() bool {
		return strings.Count(log.String(), "\n") >= 2
	})
	line := log.lines(t)[0]
	for _, key := range []string{"ev", "t_unix_ns", "trace_id", "endpoint", "dataset",
		"status", "disposition", "queue_ns", "compute_ns", "encode_ns", "total_ns",
		"deadline_ns", "used_ns", "coalesce", "bytes"} {
		if _, ok := line[key]; !ok {
			t.Fatalf("access log line missing %q: %v", key, line)
		}
	}
	if line["ev"] != "req" || line["endpoint"] != "path" || line["dataset"] != "synth" ||
		line["disposition"] != "ok" || line["status"] != float64(200) || line["coalesce"] != "none" {
		t.Fatalf("access log line fields wrong: %v", line)
	}
	if line["bytes"].(float64) <= 0 || line["total_ns"].(float64) <= 0 {
		t.Fatalf("access log line missing sizes/times: %v", line)
	}
}

func TestDebugRequestsEndpoint(t *testing.T) {
	ds := testDataset(t)
	_, ts := newTestServer(t, Config{Recorder: 32}, ds)

	for i := 0; i < 3; i++ {
		resp, err := http.Get(ts.URL + "/v1/path?dataset=synth&src=0&dst=1&t=300")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}

	var view struct {
		Count    int                 `json:"count"`
		Requests []obs.TraceSnapshot `json:"requests"`
	}
	waitFor(t, "recorder to hold the requests", func() bool {
		view.Count, view.Requests = 0, nil
		getJSON(t, ts.URL+"/debug/requests?endpoint=path", http.StatusOK, &view)
		return view.Count >= 3
	})
	for _, r := range view.Requests {
		if r.Endpoint != "path" || r.Disposition != "ok" || len(r.Events) == 0 {
			t.Fatalf("recorded trace wrong: %+v", r)
		}
		for i := 1; i < len(r.Events); i++ {
			if r.Events[i].AtNS < r.Events[i-1].AtNS {
				t.Fatalf("trace %s events not monotone: %+v", r.ID, r.Events)
			}
		}
	}

	// Unknown disposition names are rejected, not silently empty.
	getJSON(t, ts.URL+"/debug/requests?disposition=bogus", http.StatusBadRequest, nil)
	// A valid filter that matches nothing returns an empty list.
	getJSON(t, ts.URL+"/debug/requests?disposition=error", http.StatusOK, &view)
	if view.Count != 0 {
		t.Fatalf("error-disposition filter matched %d traces, want 0", view.Count)
	}
}

func TestDebugRequestsAbsentWithoutRecorder(t *testing.T) {
	ds := testDataset(t)
	_, ts := newTestServer(t, Config{}, ds)
	resp, err := http.Get(ts.URL + "/debug/requests")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("/debug/requests without a recorder: status %d, want 404", resp.StatusCode)
	}
}

// TestTraceDispositions drives one request through each terminal
// classification — ok, shed, error — over HTTP and asserts both the
// access log and the flight recorder agree; shed uses a full queue.
func TestTraceDispositions(t *testing.T) {
	ds := testDataset(t)
	log := &logBuf{}
	s, _ := newTestServer(t, Config{
		MaxInflight: 1, MaxQueue: -1, // no wait queue: overflow sheds immediately
		Recorder: 32, AccessLog: log,
	}, ds)

	gate := make(chan struct{})
	entered := make(chan struct{})
	var enterOnce sync.Once
	mux := http.NewServeMux()
	mux.Handle("/v1/path", s.Handler())
	mux.Handle("/slow", s.endpoint("slow", true, func(ctx context.Context, _ *Dataset, _ *query) (any, error) {
		enterOnce.Do(func() { close(entered) })
		<-gate
		return map[string]bool{"ok": true}, nil
	}))
	mux.Handle("/boom", s.endpoint("boom", true, func(ctx context.Context, _ *Dataset, _ *query) (any, error) {
		return nil, badRequest("no")
	}))
	ts := httptest.NewServer(mux)
	defer ts.Close()

	// Occupy the only slot, then shed an overflow arrival (queue size 0).
	slowDone := make(chan struct{})
	go func() {
		defer close(slowDone)
		resp, err := http.Get(ts.URL + "/slow?dataset=synth")
		if err == nil {
			resp.Body.Close()
		}
	}()
	<-entered
	resp, err := http.Get(ts.URL + "/v1/path?dataset=synth&src=0&dst=1&t=300")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow request: status %d, want 429", resp.StatusCode)
	}
	close(gate)
	<-slowDone

	resp, err = http.Get(ts.URL + "/boom?dataset=synth")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	want := map[string]string{"slow": "ok", "path": "shed", "boom": "error"}
	waitFor(t, "all three dispositions in the access log", func() bool {
		got := map[string]string{}
		for _, line := range log.lines(t) {
			if line["ev"] == "req" {
				got[line["endpoint"].(string)] = line["disposition"].(string)
			}
		}
		for ep, disp := range want {
			if got[ep] != disp {
				return false
			}
		}
		return true
	})

	// The recorder's tail retention holds each non-ok disposition too.
	rec := s.tracer.Recorder()
	for _, disp := range []string{"shed", "error"} {
		snaps := rec.Snapshot(obs.TraceFilter{Disposition: disp})
		if len(snaps) == 0 {
			t.Fatalf("recorder holds no %s trace", disp)
		}
	}
	// The shed trace never acquired a slot: no acquire event, 429 status.
	shed := rec.Snapshot(obs.TraceFilter{Disposition: "shed"})[0]
	if shed.Status != http.StatusTooManyRequests {
		t.Fatalf("shed trace status = %d, want 429", shed.Status)
	}
	for _, ev := range shed.Events {
		if ev.Kind == "acquire" {
			t.Fatalf("shed trace records an admission grant: %+v", shed.Events)
		}
	}
}

func TestSlowTraceDump(t *testing.T) {
	ds := testDataset(t)
	log := &logBuf{}
	_, ts := newTestServer(t, Config{AccessLog: log, SlowThreshold: time.Nanosecond}, ds)

	resp, err := http.Get(ts.URL + "/v1/path?dataset=synth&src=0&dst=1&t=300")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	waitFor(t, "trace dump line", func() bool {
		return strings.Contains(log.String(), `{"ev":"trace"`)
	})
	var req, dump map[string]any
	for _, line := range log.lines(t) {
		switch line["ev"] {
		case "req":
			req = line
		case "trace":
			dump = line
		}
	}
	if req == nil || dump == nil {
		t.Fatalf("expected one req and one trace line, got %s", log.String())
	}
	if dump["trace_id"] != req["trace_id"] {
		t.Fatalf("dump trace_id %v != req trace_id %v", dump["trace_id"], req["trace_id"])
	}
	evs, ok := dump["events"].([]any)
	if !ok || len(evs) == 0 {
		t.Fatalf("trace dump has no events: %v", dump)
	}
	first := evs[0].(map[string]any)
	if first["ev"] != "start" {
		t.Fatalf("first dumped event = %v, want start", first)
	}
}
