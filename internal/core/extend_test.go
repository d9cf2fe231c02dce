package core

import (
	"context"
	"testing"

	"opportunet/internal/rng"
	"opportunet/internal/timeline"
	"opportunet/internal/trace"
)

// sortedCopy orders a copy of entries canonically for set comparison.
func sortedCopy(es []Entry) []Entry {
	out := append([]Entry(nil), es...)
	sortEntries(out)
	return out
}

// checkSameFrontiers asserts that two results describe the same
// delivery functions: equal canonical frontiers for every pair at
// several hop bounds, and equal minimum hop counts. Result.Hops and
// Result.Fixpoint are deliberately NOT compared — the incremental
// engine only promises Hops >= the deepest canonical hop, which is all
// any consumer relies on.
func checkSameFrontiers(t *testing.T, got, want *Result) {
	t.Helper()
	if got.NumNodes != want.NumNodes {
		t.Fatalf("NumNodes = %d, want %d", got.NumNodes, want.NumNodes)
	}
	if got.Delta != want.Delta {
		t.Fatalf("Delta = %g, want %g", got.Delta, want.Delta)
	}
	n := want.NumNodes
	bounds := []int{1, 2, 3, 0}
	for src := 0; src < n; src++ {
		for dst := 0; dst < n; dst++ {
			if src == dst {
				continue
			}
			s, d := trace.NodeID(src), trace.NodeID(dst)
			if g, w := got.MinHops(s, d), want.MinHops(s, d); g != w {
				t.Errorf("MinHops(%d,%d) = %d, want %d", src, dst, g, w)
			}
			for _, b := range bounds {
				fg := got.Frontier(s, d, b)
				fw := want.Frontier(s, d, b)
				var ge, we []Entry
				if want.Delta > 0 {
					// 3D frontiers are a unique Pareto set but only
					// LD-sorted; compare order-insensitively.
					ge, we = sortedCopy(fg.Entries), sortedCopy(fw.Entries)
				} else {
					// 2D staircases are fully canonical including the
					// per-point minimal hop; compare exactly.
					ge, we = fg.Entries, fw.Entries
				}
				if len(ge) != len(we) {
					t.Fatalf("Frontier(%d,%d,%d): %d entries, want %d\n got %v\nwant %v",
						src, dst, b, len(ge), len(we), ge, we)
				}
				for i := range ge {
					if ge[i] != we[i] {
						t.Fatalf("Frontier(%d,%d,%d)[%d] = %+v, want %+v",
							src, dst, b, i, ge[i], we[i])
					}
				}
			}
		}
	}
}

// feedIncrementally streams tr's contacts through an Appender in random
// sequential batches, calling Extend after every batch, and returns the
// final result. sealEvery varies segment structure; extendEvery skips
// some intermediate Extends to exercise multi-batch deltas.
func feedIncrementally(t *testing.T, tr *trace.Trace, opt Options, r *rng.Source, sealEvery int) *Result {
	t.Helper()
	meta := &trace.Trace{
		Name: tr.Name, Granularity: tr.Granularity,
		Start: tr.Start, End: tr.End, Kinds: tr.Kinds,
	}
	app, err := timeline.NewAppender(meta, sealEvery)
	if err != nil {
		t.Fatalf("NewAppender: %v", err)
	}
	eng := NewEngine(opt)
	var res *Result
	cts := tr.Contacts
	for len(cts) > 0 {
		k := 1 + r.Intn(9)
		if k > len(cts) {
			k = len(cts)
		}
		if err := app.Append(cts[:k]); err != nil {
			t.Fatalf("Append: %v", err)
		}
		cts = cts[k:]
		if r.Bool(0.3) && len(cts) > 0 {
			continue // let the next Extend see a multi-batch delta
		}
		res, err = eng.Extend(app.Snapshot().All())
		if err != nil {
			t.Fatalf("Extend: %v", err)
		}
	}
	res, err = eng.Extend(app.Snapshot().All())
	if err != nil {
		t.Fatalf("final Extend: %v", err)
	}
	return res
}

// TestExtendMatchesComputeView is the central incremental gate: for
// random traces, any sequential batch split fed through Appender +
// Engine.Extend must yield the same delivery functions as one cold
// ComputeView over the whole trace — at Delta 0 and > 0, serial and
// parallel.
func TestExtendMatchesComputeView(t *testing.T) {
	r := rng.New(9001)
	for _, delta := range []float64{0, 1.5} {
		for _, workers := range []int{1, 8} {
			for rep := 0; rep < 8; rep++ {
				n := 4 + r.Intn(7)
				tr := randomTrace(r, n, 80, 100, delta == 0)
				opt := Options{TransmitDelay: delta, Workers: workers}
				want := mustCompute(t, tr, opt)
				got := feedIncrementally(t, tr, opt, r, 1+r.Intn(32))
				checkSameFrontiers(t, got, want)
			}
		}
	}
}

// TestExtendDirected covers the directed model, where reverse contacts
// must not seed or extend.
func TestExtendDirected(t *testing.T) {
	r := rng.New(9011)
	for rep := 0; rep < 6; rep++ {
		n := 4 + r.Intn(6)
		tr := randomTrace(r, n, 60, 100, false)
		opt := Options{Directed: true, Workers: 2}
		want := mustCompute(t, tr, opt)
		got := feedIncrementally(t, tr, opt, r, 8)
		checkSameFrontiers(t, got, want)
	}
}

// TestExtendMaxHops checks the hop-bounded model end to end: bounded
// frontiers must match even though the incremental engine prunes deep
// candidates at insert time rather than by pass count.
func TestExtendMaxHops(t *testing.T) {
	r := rng.New(9021)
	for _, maxHops := range []int{1, 2, 4} {
		for rep := 0; rep < 4; rep++ {
			n := 4 + r.Intn(6)
			tr := randomTrace(r, n, 60, 100, true)
			opt := Options{MaxHops: maxHops}
			want := mustCompute(t, tr, opt)
			got := feedIncrementally(t, tr, opt, r, 8)
			checkSameFrontiers(t, got, want)
		}
	}
}

// TestExtendOutOfOrderBatches feeds a time-shuffled arrival order. The
// reference is a cold compute over the final snapshot (same arrival
// order), so this isolates the incremental relaxation from the
// segmented index itself.
func TestExtendOutOfOrderBatches(t *testing.T) {
	r := rng.New(9031)
	for _, delta := range []float64{0, 2} {
		for rep := 0; rep < 6; rep++ {
			n := 4 + r.Intn(6)
			tr := randomTrace(r, n, 60, 100, delta == 0)
			r.Shuffle(len(tr.Contacts), func(i, j int) {
				tr.Contacts[i], tr.Contacts[j] = tr.Contacts[j], tr.Contacts[i]
			})
			opt := Options{TransmitDelay: delta, Workers: 4}
			got := feedIncrementally(t, tr, opt, r, 4)
			want := mustCompute(t, tr, opt)
			checkSameFrontiers(t, got, want)
		}
	}
}

// TestExtendEvictionFallsBack verifies the resume-invalidation path:
// eviction bumps the snapshot generation, so the next Extend must
// recompute from scratch over the surviving window and still match a
// cold compute of that same snapshot.
func TestExtendEvictionFallsBack(t *testing.T) {
	r := rng.New(9041)
	n := 8
	// Deterministic segment structure: a large early-window run sealed
	// on its own (all contacts end before the cutoff), then a small
	// late-window run that size-tiered compaction keeps separate, so
	// EvictBefore(40) is guaranteed to drop the first segment whole.
	mkContacts := func(m int, lo, hi float64) []trace.Contact {
		out := make([]trace.Contact, 0, m)
		for len(out) < m {
			a, b := trace.NodeID(r.Intn(n)), trace.NodeID(r.Intn(n))
			if a == b {
				continue
			}
			beg := r.Uniform(lo, hi-1)
			out = append(out, trace.Contact{A: a, B: b, Beg: beg, End: beg + r.Uniform(0, hi-beg)})
		}
		return out
	}
	early := mkContacts(100, 0, 30)
	late := mkContacts(20, 50, 100)
	meta := &trace.Trace{Name: "evict", Start: 0, End: 100, Kinds: make([]trace.Kind, n)}
	app, err := timeline.NewAppender(meta, 1<<20)
	if err != nil {
		t.Fatalf("NewAppender: %v", err)
	}
	eng := NewEngine(Options{Workers: 2})

	if err := app.Append(early); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if _, err := eng.Extend(app.Snapshot().All()); err != nil {
		t.Fatalf("Extend: %v", err)
	}
	if dropped := app.EvictBefore(40); dropped != len(early) {
		t.Fatalf("EvictBefore dropped %d contacts, want %d", dropped, len(early))
	}
	if err := app.Append(late); err != nil {
		t.Fatalf("Append: %v", err)
	}
	snap := app.Snapshot().All()
	got, err := eng.Extend(snap)
	if err != nil {
		t.Fatalf("Extend after eviction: %v", err)
	}
	want, err := ComputeView(snap, Options{Workers: 2})
	if err != nil {
		t.Fatalf("ComputeView: %v", err)
	}
	checkSameFrontiers(t, got, want)
}

// TestExtendNonStreamingView: Extend degrades to a full recompute on
// plain (non-appender) views, and a second call with a different view
// does not poison the first result.
func TestExtendNonStreamingView(t *testing.T) {
	r := rng.New(9051)
	tr1 := randomTrace(r, 6, 50, 100, true)
	tr2 := randomTrace(r, 7, 50, 100, true)
	eng := NewEngine(Options{})
	got1, err := eng.Extend(timeline.New(tr1).All())
	if err != nil {
		t.Fatalf("Extend tr1: %v", err)
	}
	checkSameFrontiers(t, got1, mustCompute(t, tr1, Options{}))
	got2, err := eng.Extend(timeline.New(tr2).All())
	if err != nil {
		t.Fatalf("Extend tr2: %v", err)
	}
	checkSameFrontiers(t, got2, mustCompute(t, tr2, Options{}))
}

// TestExtendSourcesSubset restricts the computed rows.
func TestExtendSourcesSubset(t *testing.T) {
	r := rng.New(9061)
	tr := randomTrace(r, 8, 60, 100, true)
	opt := Options{Sources: []trace.NodeID{0, 3, 5}}
	want := mustCompute(t, tr, opt)
	got := feedIncrementally(t, tr, opt, r, 8)
	if len(got.Sources()) != 3 {
		t.Fatalf("Sources = %v, want 3 rows", got.Sources())
	}
	for _, src := range opt.Sources {
		for dst := 0; dst < 8; dst++ {
			if int(src) == dst {
				continue
			}
			fg := got.Frontier(src, trace.NodeID(dst), 0)
			fw := want.Frontier(src, trace.NodeID(dst), 0)
			if len(fg.Entries) != len(fw.Entries) {
				t.Fatalf("Frontier(%d,%d): %d entries, want %d", src, dst,
					len(fg.Entries), len(fw.Entries))
			}
			for i := range fg.Entries {
				if fg.Entries[i] != fw.Entries[i] {
					t.Fatalf("Frontier(%d,%d)[%d] = %+v, want %+v", src, dst, i,
						fg.Entries[i], fw.Entries[i])
				}
			}
		}
	}
}

// TestExtendNoNewContactsIsCached re-extending the same snapshot must
// return the cached result without another pass.
func TestExtendNoNewContactsIsCached(t *testing.T) {
	r := rng.New(9071)
	tr := randomTrace(r, 6, 40, 100, true)
	meta := &trace.Trace{Name: tr.Name, Start: tr.Start, End: tr.End, Kinds: tr.Kinds}
	app, err := timeline.NewAppender(meta, 8)
	if err != nil {
		t.Fatalf("NewAppender: %v", err)
	}
	if err := app.Append(tr.Contacts); err != nil {
		t.Fatalf("Append: %v", err)
	}
	eng := NewEngine(Options{})
	snap := app.Snapshot().All()
	res1, err := eng.Extend(snap)
	if err != nil {
		t.Fatalf("Extend: %v", err)
	}
	res2, err := eng.Extend(app.Snapshot().All())
	if err != nil {
		t.Fatalf("re-Extend: %v", err)
	}
	if res1 != res2 {
		t.Error("Extend with no new contacts should return the cached result")
	}
}

// TestExtendCancelInvalidatesResume a cancelled Extend must not leave a
// half-relaxed archive resumable: the next call recomputes and matches.
func TestExtendCancelInvalidatesResume(t *testing.T) {
	r := rng.New(9081)
	tr := randomTrace(r, 8, 150, 100, false)
	meta := &trace.Trace{Name: tr.Name, Start: tr.Start, End: tr.End, Kinds: tr.Kinds}
	app, err := timeline.NewAppender(meta, 32)
	if err != nil {
		t.Fatalf("NewAppender: %v", err)
	}
	half := len(tr.Contacts) / 2
	if err := app.Append(tr.Contacts[:half]); err != nil {
		t.Fatalf("Append: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	eng := NewEngine(Options{Ctx: ctx})
	if _, err := eng.Extend(app.Snapshot().All()); err == nil {
		t.Fatal("Extend with cancelled ctx should fail")
	}
	eng.opt.Ctx = nil
	if err := app.Append(tr.Contacts[half:]); err != nil {
		t.Fatalf("Append: %v", err)
	}
	snap := app.Snapshot().All()
	got, err := eng.Extend(snap)
	if err != nil {
		t.Fatalf("Extend after cancel: %v", err)
	}
	want, err := ComputeView(snap, Options{})
	if err != nil {
		t.Fatalf("ComputeView: %v", err)
	}
	checkSameFrontiers(t, got, want)
}

// TestExtendNegativeDelta rejects the same bad option as ComputeView.
func TestExtendNegativeDelta(t *testing.T) {
	eng := NewEngine(Options{TransmitDelay: -1})
	tr := mk(2, trace.Contact{A: 0, B: 1, Beg: 1, End: 2})
	if _, err := eng.Extend(timeline.New(tr).All()); err == nil {
		t.Fatal("negative TransmitDelay should error")
	}
}

// TestExtendBadSource rejects out-of-range sources like ComputeView.
func TestExtendBadSource(t *testing.T) {
	eng := NewEngine(Options{Sources: []trace.NodeID{5}})
	tr := mk(2, trace.Contact{A: 0, B: 1, Beg: 1, End: 2})
	if _, err := eng.Extend(timeline.New(tr).All()); err == nil {
		t.Fatal("out-of-range source should error")
	}
}

// TestResultHopsBoundsArchive pins what lets aggregations treat every
// hop bound k >= Result.Hops as unbounded: no archived summary uses
// more than Hops contacts, for ComputeView at the fixpoint and under
// a MaxHops cap, and for Engine.Extend.
func TestResultHopsBoundsArchive(t *testing.T) {
	check := func(label string, res *Result) {
		t.Helper()
		for ri := range res.rows {
			for _, e := range res.rows[ri].entries {
				if int(e.Hop) > res.Hops {
					t.Fatalf("%s: archived %+v has Hop > Hops = %d", label, e, res.Hops)
				}
			}
		}
	}
	r := rng.New(9051)
	for rep := 0; rep < 6; rep++ {
		n := 4 + r.Intn(7)
		tr := randomTrace(r, n, 80, 100, rep%2 == 0)
		for _, opt := range []Options{{}, {MaxHops: 2}, {TransmitDelay: 1.5}} {
			check("ComputeView", mustCompute(t, tr, opt))
			check("Extend", feedIncrementally(t, tr, opt, r, 1+r.Intn(16)))
		}
	}
}
