package timeline

import (
	"math"

	"opportunet/internal/trace"
)

// This file holds the trace-level statistics that are naturally phrased
// over the per-node and per-pair indexes (they used to live in package
// trace, each rebuilding a private pair map per call).

// StepPoint is one step of the next-contact function of Figure 6: at any
// time t in [From, To), the next moment the device is in contact with any
// other device is At (+Inf if never again within the window).
type StepPoint struct {
	From, To float64
	At       float64
}

// NextContactSeries returns the step function "next time device u is in
// range of another device, as a function of time" over the view's window
// (Figure 6). During a contact the function equals t itself, rendered as
// the diagonal in the paper's plot; such spans are reported with At equal
// to the span start.
func (v *View) NextContactSeries(u trace.NodeID) []StepPoint {
	// Union of u's contact intervals: the adjacency lists each incident
	// contact once for u, already sorted by begin time.
	type span struct{ b, e float64 }
	var merged []span
	for _, c := range v.OutgoingByBeg(u) {
		if len(merged) > 0 && c.Beg <= merged[len(merged)-1].e {
			if c.End > merged[len(merged)-1].e {
				merged[len(merged)-1].e = c.End
			}
			continue
		}
		merged = append(merged, span{c.Beg, c.End})
	}
	var out []StepPoint
	cursor := v.winA
	for _, s := range merged {
		if s.b > cursor {
			// Gap: next contact is at s.b throughout.
			out = append(out, StepPoint{From: cursor, To: s.b, At: s.b})
		}
		b := math.Max(s.b, cursor)
		if s.e > b {
			// In contact: the function follows the diagonal.
			out = append(out, StepPoint{From: b, To: s.e, At: b})
		}
		if s.e > cursor {
			cursor = s.e
		}
	}
	if cursor < v.winB {
		out = append(out, StepPoint{From: cursor, To: v.winB, At: math.Inf(1)})
	}
	return out
}

// NormalizePairs merges overlapping or touching intervals of the same
// unordered pair into single contacts, returning a new trace. Periodic
// scanning can report a long meeting as several abutting intervals; path
// properties are unchanged by merging, but statistics (durations,
// inter-contact times) become meaningful.
func (v *View) NormalizePairs() *trace.Trace {
	x := v.ensurePairIndex()
	src := v.tl.tr
	cp := &trace.Trace{
		Name:        src.Name,
		Granularity: src.Granularity,
		Start:       v.winA,
		End:         v.winB,
		Kinds:       append([]trace.Kind(nil), src.Kinds...),
	}
	for p, k := range x.keys {
		seg := x.byBeg[x.off[p]:x.off[p+1]]
		if len(seg) == 0 {
			continue
		}
		a, b := pairEnds(k)
		cur := trace.Contact{A: a, B: b, Beg: seg[0].Beg, End: seg[0].End}
		for _, iv := range seg[1:] {
			if iv.Beg <= cur.End {
				if iv.End > cur.End {
					cur.End = iv.End
				}
				continue
			}
			cp.Contacts = append(cp.Contacts, cur)
			cur = trace.Contact{A: a, B: b, Beg: iv.Beg, End: iv.End}
		}
		cp.Contacts = append(cp.Contacts, cur)
	}
	cp.SortByBeg()
	return cp
}

// NormalizePairs is the package-level convenience over a bare trace, for
// callers without a timeline at hand (e.g. trace generators normalizing
// their output).
func NormalizePairs(tr *trace.Trace) *trace.Trace {
	return New(tr).All().NormalizePairs()
}

// InterContactTimes returns, for every unordered pair with at least two
// merged meeting intervals, the gaps between the end of one interval and
// the beginning of the next, i.e. the inter-contact times studied by the
// prior work the paper builds on. Gaps are emitted in canonical pair
// order.
func (v *View) InterContactTimes() []float64 {
	x := v.ensurePairIndex()
	var out []float64
	for p := range x.keys {
		seg := x.byBeg[x.off[p]:x.off[p+1]]
		if len(seg) < 2 {
			continue
		}
		// Merge overlapping or touching intervals on the fly and emit the
		// gaps between consecutive merged intervals.
		curEnd := seg[0].End
		for _, iv := range seg[1:] {
			if iv.Beg <= curEnd {
				if iv.End > curEnd {
					curEnd = iv.End
				}
				continue
			}
			out = append(out, iv.Beg-curEnd)
			curEnd = iv.End
		}
	}
	return out
}

// DegreeOverWindow returns, per device, the number of distinct devices it
// had at least one contact with: the static contact graph degree, useful
// to sanity-check generator heterogeneity.
func (v *View) DegreeOverWindow() []int {
	x := v.ensurePairIndex()
	deg := make([]int, v.NumNodes())
	for p, k := range x.keys {
		if x.off[p+1] > x.off[p] {
			a, b := pairEnds(k)
			deg[a]++
			deg[b]++
		}
	}
	return deg
}
