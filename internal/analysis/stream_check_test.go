package analysis

import (
	"fmt"
	"strings"
	"testing"

	"opportunet/internal/core"
	"opportunet/internal/rng"
	"opportunet/internal/stats"
	"opportunet/internal/timeline"
	"opportunet/internal/trace"
)

// formatAggregates renders every headline Study aggregate at full float
// precision: the byte-identity surface of the stream-check gate. Two
// studies whose outputs match here produce the same paper exhibits.
func formatAggregates(s *Study, grid []float64) string {
	var b strings.Builder
	bounds := []int{1, 2, 3, Unbounded}
	fmt.Fprintf(&b, "cdfs %v\n", s.DelayCDFs(bounds, grid))
	d, worst := s.Diameter(0.05, grid)
	fmt.Fprintf(&b, "diameter %d %v\n", d, worst)
	fmt.Fprintf(&b, "vs-eps %v\n", s.DiameterVsEpsilon([]float64{0.01, 0.05, 0.2}, grid))
	fmt.Fprintf(&b, "at-delay %v\n", s.DiameterAtDelay(0.05, grid))
	fmt.Fprintf(&b, "p600 %v\n", s.SuccessProbability(600, Unbounded))
	return b.String()
}

// metaOf strips a trace to its contact-less skeleton, the header an
// Appender is constructed from.
func metaOf(tr *trace.Trace) *trace.Trace {
	return &trace.Trace{Name: tr.Name, Granularity: tr.Granularity,
		Start: tr.Start, End: tr.End, Kinds: tr.Kinds}
}

// streamedStudy replays tr's contacts into an Appender as contiguous
// batches of random sizes, Extending an incremental engine at random
// epoch boundaries (always after the final batch), and wraps the last
// result in a Study over the final snapshot.
func streamedStudy(t *testing.T, tr *trace.Trace, opt core.Options, r *rng.Source, sealEvery int) *Study {
	t.Helper()
	ap, err := timeline.NewAppender(metaOf(tr), sealEvery)
	if err != nil {
		t.Fatal(err)
	}
	eng := core.NewEngine(opt)
	var res *core.Result
	contacts := tr.Contacts
	for len(contacts) > 0 {
		k := 1 + r.Intn(200)
		if k > len(contacts) {
			k = len(contacts)
		}
		if err := ap.Append(contacts[:k]); err != nil {
			t.Fatal(err)
		}
		contacts = contacts[k:]
		if len(contacts) == 0 || r.Bool(0.3) {
			v := ap.Snapshot().All()
			if res, err = eng.Extend(v); err != nil {
				t.Fatal(err)
			}
		}
	}
	st, err := NewStudyResult(ap.Snapshot().All(), res, opt)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestStreamCheckBatchSplitIdentity is the gate of the streaming
// refactor: ANY split of a trace into append batches — whatever the
// batch sizes, seal cadence, or how many batches pile up between
// incremental Extend passes — must yield analysis output byte-identical
// to the one-shot build over the complete trace, at every worker count.
func TestStreamCheckBatchSplitIdentity(t *testing.T) {
	for _, tc := range []struct {
		name     string
		delta    float64
		nodes    int
		contacts int
		reps     int
	}{
		// Delta > 0 keeps full 3D frontiers and is far heavier per
		// contact, so that case runs on a smaller trace — the identity
		// being checked is the same.
		{"delta0", 0, 16, 1200, 3},
		{"delta30", 30, 12, 500, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr := parallelTestTrace(31, tc.nodes, tc.contacts)
			grid := stats.LogSpace(10, tr.Duration(), 25)
			for _, workers := range []int{1, 8} {
				opt := core.Options{Workers: workers, TransmitDelay: tc.delta}
				ref, err := NewStudy(tr, opt)
				if err != nil {
					t.Fatal(err)
				}
				want := formatAggregates(ref, grid)
				r := rng.New(uint64(100*workers) + uint64(tc.delta))
				for rep := 0; rep < tc.reps; rep++ {
					sealEvery := []int{0, 64, 1 << 20}[rep%3]
					opt := opt
					opt.Sources = tr.InternalNodes()
					st := streamedStudy(t, tr, opt, r, sealEvery)
					got := formatAggregates(st, grid)
					if got != want {
						t.Fatalf("workers=%d rep=%d seal=%d: streamed aggregates differ from one-shot:\n got: %s\nwant: %s",
							workers, rep, sealEvery, got, want)
					}
				}
			}
		})
	}
}

// TestStreamCheckDirected covers the directed-contact variant of the
// same identity.
func TestStreamCheckDirected(t *testing.T) {
	tr := parallelTestTrace(47, 12, 700)
	grid := stats.LogSpace(10, tr.Duration(), 15)
	opt := core.Options{Workers: 4, Directed: true}
	ref, err := NewStudy(tr, opt)
	if err != nil {
		t.Fatal(err)
	}
	want := formatAggregates(ref, grid)
	r := rng.New(9)
	opt.Sources = tr.InternalNodes()
	st := streamedStudy(t, tr, opt, r, 0)
	if got := formatAggregates(st, grid); got != want {
		t.Fatalf("directed streamed aggregates differ from one-shot:\n got: %s\nwant: %s", got, want)
	}
}

// TestNewStudyResultCoverage rejects results that do not cover every
// internal source of the view.
func TestNewStudyResultCoverage(t *testing.T) {
	tr := parallelTestTrace(5, 8, 200)
	v := timeline.New(tr).All()
	res, err := core.ComputeView(v, core.Options{Sources: []trace.NodeID{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewStudyResult(v, res, core.Options{}); err == nil {
		t.Fatal("result covering 2 of 8 sources accepted")
	}
	if _, err := NewStudyResult(v, nil, core.Options{}); err == nil {
		t.Fatal("nil result accepted")
	}
}
