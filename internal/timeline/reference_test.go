package timeline_test

import (
	"sort"
	"testing"

	"opportunet/internal/rng"
	"opportunet/internal/timeline"
	"opportunet/internal/trace"
)

// refIndex is a brute-force reference for the index arrays, built
// independently of the package's counting sorts: each node's directions
// and each pair's intervals are collected in trace order and ordered
// with sort.SliceStable by the documented keys.
type refIndex struct {
	adjByBeg, adjByEnd [][]timeline.DirContact // per node
	adjSuf             [][]float64
	pairs              [][2]trace.NodeID // canonical (a < b), lexicographic
	pairByBeg          [][]timeline.Interval
	pairByEnd          [][]timeline.Interval
	pairSuf            [][]float64
}

// lexLess compares two equal-length keys lexicographically.
func lexLess(a, b []float64) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

func sufMin(begs []float64) []float64 {
	suf := make([]float64, len(begs))
	for i := len(begs) - 1; i >= 0; i-- {
		suf[i] = begs[i]
		if i+1 < len(begs) && suf[i+1] < suf[i] {
			suf[i] = suf[i+1]
		}
	}
	return suf
}

func buildRef(cts []trace.Contact, n int) *refIndex {
	ref := &refIndex{
		adjByBeg: make([][]timeline.DirContact, n),
		adjByEnd: make([][]timeline.DirContact, n),
		adjSuf:   make([][]float64, n),
	}
	for i, c := range cts {
		ref.adjByBeg[c.A] = append(ref.adjByBeg[c.A], timeline.DirContact{To: c.B, Beg: c.Beg, End: c.End, CIdx: int32(i), Fwd: true})
		ref.adjByBeg[c.B] = append(ref.adjByBeg[c.B], timeline.DirContact{To: c.A, Beg: c.Beg, End: c.End, CIdx: int32(i), Fwd: false})
	}
	dirKey := func(d timeline.DirContact, byEnd bool) []float64 {
		if byEnd {
			return []float64{d.End, d.Beg, float64(d.To), float64(d.CIdx)}
		}
		return []float64{d.Beg, d.End, float64(d.To), float64(d.CIdx)}
	}
	for u := 0; u < n; u++ {
		byBeg := ref.adjByBeg[u]
		byEnd := append([]timeline.DirContact(nil), byBeg...)
		sort.SliceStable(byBeg, func(i, j int) bool { return lexLess(dirKey(byBeg[i], false), dirKey(byBeg[j], false)) })
		sort.SliceStable(byEnd, func(i, j int) bool { return lexLess(dirKey(byEnd[i], true), dirKey(byEnd[j], true)) })
		begs := make([]float64, len(byEnd))
		for i, d := range byEnd {
			begs[i] = d.Beg
		}
		ref.adjByEnd[u], ref.adjSuf[u] = byEnd, sufMin(begs)
	}

	byPair := make(map[[2]trace.NodeID][]timeline.Interval)
	for i, c := range cts {
		p := [2]trace.NodeID{c.A, c.B}
		if p[0] > p[1] {
			p[0], p[1] = p[1], p[0]
		}
		byPair[p] = append(byPair[p], timeline.Interval{Beg: c.Beg, End: c.End, CIdx: int32(i)})
	}
	for p := range byPair {
		ref.pairs = append(ref.pairs, p)
	}
	sort.Slice(ref.pairs, func(i, j int) bool {
		a, b := ref.pairs[i], ref.pairs[j]
		return a[0] < b[0] || (a[0] == b[0] && a[1] < b[1])
	})
	ivKey := func(iv timeline.Interval, byEnd bool) []float64 {
		if byEnd {
			return []float64{iv.End, iv.Beg, float64(iv.CIdx)}
		}
		return []float64{iv.Beg, iv.End, float64(iv.CIdx)}
	}
	for _, p := range ref.pairs {
		byBeg := byPair[p]
		byEnd := append([]timeline.Interval(nil), byBeg...)
		sort.SliceStable(byBeg, func(i, j int) bool { return lexLess(ivKey(byBeg[i], false), ivKey(byBeg[j], false)) })
		sort.SliceStable(byEnd, func(i, j int) bool { return lexLess(ivKey(byEnd[i], true), ivKey(byEnd[j], true)) })
		begs := make([]float64, len(byEnd))
		for i, iv := range byEnd {
			begs[i] = iv.Beg
		}
		ref.pairByBeg = append(ref.pairByBeg, byBeg)
		ref.pairByEnd = append(ref.pairByEnd, byEnd)
		ref.pairSuf = append(ref.pairSuf, sufMin(begs))
	}
	return ref
}

// checkAgainstRef compares a view's adjacency and pair index, element
// for element, with the reference built over the same contacts.
func checkAgainstRef(t *testing.T, v *timeline.View, ref *refIndex) {
	t.Helper()
	for u := range ref.adjByBeg {
		byBeg, byEnd, suf := v.OutgoingIndex(trace.NodeID(u))
		if len(byBeg) != len(ref.adjByBeg[u]) {
			t.Fatalf("node %d: %d directions, reference %d", u, len(byBeg), len(ref.adjByBeg[u]))
		}
		for i := range byBeg {
			if byBeg[i] != ref.adjByBeg[u][i] {
				t.Fatalf("node %d byBeg[%d] = %+v, reference %+v", u, i, byBeg[i], ref.adjByBeg[u][i])
			}
			if byEnd[i] != ref.adjByEnd[u][i] {
				t.Fatalf("node %d byEnd[%d] = %+v, reference %+v", u, i, byEnd[i], ref.adjByEnd[u][i])
			}
			if suf[i] != ref.adjSuf[u][i] {
				t.Fatalf("node %d sufMinBeg[%d] = %v, reference %v", u, i, suf[i], ref.adjSuf[u][i])
			}
		}
	}
	if np := v.Timeline().NumPairs(); np != len(ref.pairs) {
		t.Fatalf("NumPairs = %d, reference %d", np, len(ref.pairs))
	}
	for p, want := range ref.pairs {
		if a, b := v.PairEndpoints(p); a != want[0] || b != want[1] {
			t.Fatalf("pair %d = (%d, %d), reference %v", p, a, b, want)
		}
		byBeg := v.PairIntervals(p)
		byEnd, suf := v.PairIndexByEnd(p)
		if len(byBeg) != len(ref.pairByBeg[p]) || len(byEnd) != len(byBeg) {
			t.Fatalf("pair %d: %d/%d intervals, reference %d", p, len(byBeg), len(byEnd), len(ref.pairByBeg[p]))
		}
		for i := range byBeg {
			if byBeg[i] != ref.pairByBeg[p][i] {
				t.Fatalf("pair %d byBeg[%d] = %+v, reference %+v", p, i, byBeg[i], ref.pairByBeg[p][i])
			}
			if byEnd[i] != ref.pairByEnd[p][i] {
				t.Fatalf("pair %d byEnd[%d] = %+v, reference %+v", p, i, byEnd[i], ref.pairByEnd[p][i])
			}
			if suf[i] != ref.pairSuf[p][i] {
				t.Fatalf("pair %d sufMinBeg[%d] = %v, reference %v", p, i, suf[i], ref.pairSuf[p][i])
			}
		}
	}
}

// tiedTrace builds a trace whose times sit on a coarse integer grid, so
// many contacts tie on their sort keys: a quarter are instantaneous, a
// fifth repeat an earlier contact (sometimes with the orientation
// flipped), and node 0 meets node 1 in dozens of identical contacts,
// long enough a run that only the CIdx tie-break fixes its order (Go's
// sort is stable on short runs).
func tiedTrace(n, m int, r *rng.Source) *trace.Trace {
	tr := &trace.Trace{Name: "tied", Granularity: 1, Start: 0, End: 100, Kinds: make([]trace.Kind, n)}
	for i := 0; i < m; i++ {
		var c trace.Contact
		switch {
		case i%4 == 0:
			c = trace.Contact{A: 0, B: 1, Beg: 40, End: 45}
		case i > 0 && r.Bool(0.2):
			c = tr.Contacts[r.Intn(len(tr.Contacts))]
		default:
			c.A = trace.NodeID(r.Intn(n))
			c.B = trace.NodeID((int(c.A) + 1 + r.Intn(n-1)) % n)
			c.Beg = float64(r.Intn(90))
			c.End = c.Beg
			if !r.Bool(0.25) {
				c.End += float64(1 + r.Intn(10))
			}
		}
		if r.Bool(0.5) {
			c.A, c.B = c.B, c.A
		}
		tr.Contacts = append(tr.Contacts, c)
	}
	if err := tr.Validate(); err != nil {
		panic(err)
	}
	return tr
}

// TestIndexMatchesReference pins the index arrays of timeline.New, and
// of appender snapshots with one segment and with several, to the
// brute-force reference on traces full of ties.
func TestIndexMatchesReference(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		r := rng.New(seed)
		tr := tiedTrace(6, 240, r)
		ref := buildRef(tr.Contacts, tr.NumNodes())
		checkAgainstRef(t, timeline.New(tr).All(), ref)
		for _, sealEvery := range []int{7, 1 << 30} {
			checkAgainstRef(t, appendInBatches(t, tr, sealEvery, r).Snapshot().All(), ref)
		}
	}
}
