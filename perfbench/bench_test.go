package main

import (
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"opportunet/internal/trace"
)

func TestQuantileMatchesSort(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 7, 100, 1001} {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = r.ExpFloat64()
		}
		s := append([]float64(nil), xs...)
		sort.Float64s(s)
		for k := 0; k < n; k++ {
			q := 0.0
			if n > 1 {
				q = float64(k) / float64(n-1)
			}
			if got := quantile(xs, q); math.Abs(got-s[k]) > 1e-12*s[k] {
				t.Fatalf("n=%d: quantile(%g) = %g, sorted[%d] = %g", n, q, got, k, s[k])
			}
		}
		if n > 1 {
			// Halfway between two ranks interpolates linearly.
			q := 0.5 / float64(n-1)
			if got, want := quantile(xs, q), (s[0]+s[1])/2; math.Abs(got-want) > 1e-12*want {
				t.Fatalf("n=%d: quantile(%g) = %g, want %g", n, q, got, want)
			}
		}
	}
	if xs := []float64{3, 1, 2}; quantile(xs, 0.5) != 2 || xs[0] != 3 {
		t.Fatal("quantile must not reorder its input")
	}
}

// A stall in the server must be charged to every request it delayed:
// later requests are sent late, and their intended-time latency carries
// the wait even though their own service time is short.
func TestOpenLoopChargesStall(t *testing.T) {
	const stall = 80 * time.Millisecond
	var n atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n.Add(1) == 3 {
			time.Sleep(stall)
		}
		w.Write([]byte("ok"))
	}))
	defer srv.Close()
	client := oneConnClient()
	defer client.CloseIdleConnections()

	const spacing = 2 * time.Millisecond
	reqs := make([]request, 20)
	for i := range reqs {
		reqs[i] = request{at: time.Duration(i) * spacing, url: "/"}
	}
	samples := runOpenLoop(context.Background(), client, srv.URL, time.Now(), reqs)
	if len(samples) != len(reqs) {
		t.Fatalf("got %d samples, want %d", len(samples), len(reqs))
	}
	if samples[2].latency < stall {
		t.Fatalf("stalled request latency %v < stall %v", samples[2].latency, stall)
	}
	for i := 3; i < 10; i++ {
		s := samples[i]
		// Request i was due (i-2) spacings after the stalled one, so it
		// still waits out the rest of the stall.
		if floor := stall - time.Duration(i-2)*spacing; s.latency < floor {
			t.Errorf("request %d: latency %v < %v; the stall was not charged", i, s.latency, floor)
		}
		if s.service >= stall/2 {
			t.Errorf("request %d: service %v; it should only queue behind the stall", i, s.service)
		}
	}
	st := summarize(1/spacing.Seconds(), reqs, samples)
	if st.refused != 0 || st.offered != 500 {
		t.Fatalf("summary %v: want offered 500/s and nothing refused", st)
	}
	if st.p99 < ms(stall)*0.9 {
		t.Fatalf("p99 %.1fms does not show the %v stall", st.p99, stall)
	}
}

func testInput() *serveInput {
	return &serveInput{
		pairs: []probe{{src: 0, t: 10}, {src: 1, t: 2.5}, {src: 3, t: 99}},
		srcs:  []trace.NodeID{0, 1, 2, 3},
	}
}

func TestScheduleDeterministic(t *testing.T) {
	in := testInput()
	a := schedule(7, "high", 1000, time.Second, in)
	b := schedule(7, "high", 1000, time.Second, in)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed and phase gave different schedules")
	}
	if len(a) != 1000 || a[999].at != 999*time.Millisecond {
		t.Fatalf("schedule has %d requests ending at %v; want 1000 evenly spaced over 1s", len(a), a[len(a)-1].at)
	}
	if reflect.DeepEqual(a, schedule(8, "high", 1000, time.Second, in)) {
		t.Fatal("another seed gave the same schedule")
	}
	kinds := map[int]int{}
	for _, rq := range a {
		kinds[rq.kind]++
		if (rq.kind == reqPath || rq.kind == reqRecon) && rq.dst == int(in.pairs[rq.pair].src) {
			t.Fatalf("path request to its own source: %+v", rq)
		}
	}
	if kinds[reqPath]+kinds[reqRecon] < 850 || kinds[reqDiameter] == 0 || kinds[reqCDF] == 0 || kinds[reqRecon] == 0 {
		t.Fatalf("request mix %v is not ~90%% path with some reconstructions and aggregations", kinds)
	}
	if !reflect.DeepEqual(freshPoints(7, 60), freshPoints(7, 60)) {
		t.Fatal("fresh grid permutation is not deterministic")
	}
}

func TestKnee(t *testing.T) {
	step := func(rate, p99 float64, refused int) phaseResult {
		return phaseResult{rate: rate, stats: phaseStats{offered: rate, achieved: rate, p99: p99, refused: refused}}
	}
	steps := []phaseResult{step(100, 2, 0), step(200, 4, 0), step(300, 2+2*serveSLOms, 0), step(300, 4+4*serveSLOms, 0)}
	// p99 crosses the SLO between 200 (4 ms) and the better of the two
	// failing tries at 300 (2·SLO+2 ms).
	want := 200 + 100*(serveSLOms-4.0)/(2*serveSLOms+2-4)
	if got := knee(steps, 200, 300); got != want {
		t.Fatalf("knee = %g, want %g", got, want)
	}
	if got := knee(steps[:2], 200, 0); got != 200 {
		t.Fatalf("knee with no failing step = %g, want 200", got)
	}
	// A step refusing requests fails at the SLO even with a low p99.
	steps[2], steps[3] = step(300, 1, 5), step(300, 1, 7)
	if got := knee(steps, 200, 300); got != 300 {
		t.Fatalf("knee with a refusing step = %g, want 300", got)
	}
}

func TestResultRoundTrip(t *testing.T) {
	for _, traced := range []bool{false, true} {
		o := newOutcome()
		o.check(true)
		defs := endToEnd
		if traced {
			defs = perLayerNames()
		}
		for i, m := range defs {
			o.metrics[m.name] = 1.5 + float64(i)
		}
		res, err := result(o, traced)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		var keys map[string]json.RawMessage
		if err := json.Unmarshal(b, &keys); err != nil {
			t.Fatal(err)
		}
		if len(keys) != 4 || keys["correct"] == nil || keys["attempted"] == nil || keys["failed"] == nil || keys["metrics"] == nil {
			t.Fatalf("result keys: %s", b)
		}
		var back resultJSON
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(back, res) || !back.Correct || len(back.Metrics) != len(defs) {
			t.Fatalf("round trip: %+v != %+v", back, res)
		}
	}
	o := newOutcome()
	o.check(true)
	if _, err := result(o, false); err == nil {
		t.Fatal("a missing end-to-end metric must be an error")
	}
	o.metrics["no_such_metric"] = 1
	if _, err := result(o, true); err == nil {
		t.Fatal("a metric outside the table must be an error")
	}
}

// BENCHMARK.json must list exactly the metrics this program prints.
func TestBenchmarkJSONMatchesTable(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, []string{"study", "serve", "ingest", "suite"}) {
		t.Fatalf("workloads %v", names)
	}
	same := func(what string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the table", what, len(got), len(want))
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), table has %s (%s)", what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayerNames())
}
