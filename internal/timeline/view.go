package timeline

import (
	"math"
	"sync"
	"sync/atomic"

	"opportunet/internal/rng"
	"opportunet/internal/trace"
)

var inf = math.Inf(1)

// View is a (possibly filtered) read-only window onto a Timeline. The
// identity view exposes the whole trace; derived views add a keep-mask
// over the trace's contact slice and, for time windows, a clipping range.
// All index arrays are materialized lazily and at most once, so a View is
// safe for concurrent use by any number of goroutines.
//
// Filtering preserves the base sort order (clamping times to a window is
// monotone), so deriving a view is a linear scan — never a re-sort.
type View struct {
	tl *Timeline
	// keep masks the trace's contact slice; nil keeps everything. For
	// windowed views the mask already encodes the window's keep rule, so
	// consumers only ever combine the mask with clamping.
	keep  []bool
	nKept int
	// winA/winB is the observation window the view reports (Start/End).
	winA, winB float64
	// clip, when set, clamps contact times to [clipLo, clipHi] — the
	// intersection of every window applied along the derivation chain.
	clip           bool
	clipLo, clipHi float64

	adjOnce  sync.Once
	adjReady atomic.Bool // set once ensureAdj has materialized adj
	adj      adjIndex

	pairOnce  sync.Once
	pairReady atomic.Bool // set once ensurePairIndex has materialized pairs
	pairs     pairIndex

	partnerOnce sync.Once
	partnerOff  []int32
	partnerIDs  []trace.NodeID

	contactsOnce sync.Once
	contactList  []trace.Contact
}

func (v *View) isBase() bool { return v == v.tl.all }

func (v *View) kept(i int) bool { return v.keep == nil || v.keep[i] }

// clamp returns the contact interval as this view observes it.
func (v *View) clamp(beg, end float64) (float64, float64) {
	if !v.clip {
		return beg, end
	}
	if beg < v.clipLo {
		beg = v.clipLo
	}
	if end > v.clipHi {
		end = v.clipHi
	}
	return beg, end
}

// Timeline returns the owning timeline.
func (v *View) Timeline() *Timeline { return v.tl }

// --- metadata -------------------------------------------------------------

// Name returns the underlying trace's data-set name.
func (v *View) Name() string { return v.tl.tr.Name }

// Granularity returns the underlying trace's scan period.
func (v *View) Granularity() float64 { return v.tl.tr.Granularity }

// Start returns the beginning of the view's observation window.
func (v *View) Start() float64 { return v.winA }

// End returns the end of the view's observation window.
func (v *View) End() float64 { return v.winB }

// Duration returns the length of the view's observation window.
func (v *View) Duration() float64 { return v.winB - v.winA }

// NumNodes returns the device count (views never renumber devices).
func (v *View) NumNodes() int { return v.tl.tr.NumNodes() }

// NumInternal returns the number of internal devices.
func (v *View) NumInternal() int { return v.tl.tr.NumInternal() }

// InternalNodes returns the IDs of all internal devices in increasing
// order.
func (v *View) InternalNodes() []trace.NodeID { return v.tl.tr.InternalNodes() }

// Kinds returns the device-kind table, shared with the underlying trace;
// callers must not modify it.
func (v *View) Kinds() []trace.Kind { return v.tl.tr.Kinds }

// NumContacts returns the number of contacts the view keeps.
func (v *View) NumContacts() int { return v.nKept }

// Contacts returns the view's contact list, clipped to its window. The
// identity view shares the underlying trace's slice; callers must not
// modify the result.
func (v *View) Contacts() []trace.Contact {
	v.contactsOnce.Do(func() {
		if v.isBase() {
			v.contactList = v.tl.tr.Contacts
			return
		}
		out := make([]trace.Contact, 0, v.nKept)
		for i, c := range v.tl.tr.Contacts {
			if !v.kept(i) {
				continue
			}
			c.Beg, c.End = v.clamp(c.Beg, c.End)
			out = append(out, c)
		}
		v.contactList = out
	})
	return v.contactList
}

// Materialize copies the view out into a standalone trace with the view's
// window as the observation window. Mostly useful for tests and for
// interoperating with code that still wants a *trace.Trace.
func (v *View) Materialize() *trace.Trace {
	tr := v.tl.tr
	return &trace.Trace{
		Name:        tr.Name,
		Granularity: tr.Granularity,
		Start:       v.winA,
		End:         v.winB,
		Kinds:       append([]trace.Kind(nil), tr.Kinds...),
		Contacts:    append([]trace.Contact(nil), v.Contacts()...),
	}
}

// --- derived views --------------------------------------------------------

// derive starts a child view inheriting the window and clip range.
func (v *View) derive() *View {
	return &View{
		tl:     v.tl,
		winA:   v.winA,
		winB:   v.winB,
		clip:   v.clip,
		clipLo: v.clipLo,
		clipHi: v.clipHi,
	}
}

// InternalOnly returns a view keeping only contacts between internal
// devices (the default restriction of §5 for the conference data sets).
func (v *View) InternalOnly() *View {
	tr := v.tl.tr
	nv := v.derive()
	nv.keep = make([]bool, len(tr.Contacts))
	for i, c := range tr.Contacts {
		if v.kept(i) && tr.Kinds[c.A] == trace.Internal && tr.Kinds[c.B] == trace.Internal {
			nv.keep[i] = true
			nv.nKept++
		}
	}
	return nv
}

// MinDuration returns a view keeping only contacts lasting at least d
// seconds in this view's clipping (the duration-threshold removal of
// §6.2).
func (v *View) MinDuration(d float64) *View {
	tr := v.tl.tr
	nv := v.derive()
	nv.keep = make([]bool, len(tr.Contacts))
	for i, c := range tr.Contacts {
		if !v.kept(i) {
			continue
		}
		if b, e := v.clamp(c.Beg, c.End); e-b >= d {
			nv.keep[i] = true
			nv.nKept++
		}
	}
	return nv
}

// RemoveRandom returns a view in which each kept contact was removed
// independently with probability p (the random contact removal of §6.1).
// Exactly one Bernoulli draw is consumed per currently-kept contact, in
// trace order — the same stream consumption as trace.RemoveRandom on the
// materialized view, so seeded studies reproduce bit for bit.
func (v *View) RemoveRandom(p float64, r *rng.Source) *View {
	tr := v.tl.tr
	nv := v.derive()
	nv.keep = make([]bool, len(tr.Contacts))
	for i := range tr.Contacts {
		if !v.kept(i) {
			continue
		}
		if !r.Bool(p) {
			nv.keep[i] = true
			nv.nKept++
		}
	}
	return nv
}

// TimeWindow returns a view restricted to [a, b]: contact times are
// clipped to the window and the view's observation window becomes [a, b].
// A contact is kept iff it overlaps the window for a positive duration,
// or it is instantaneous and lies inside the closed window — the same
// boundary semantics as trace.TimeWindow.
func (v *View) TimeWindow(a, b float64) *View {
	tr := v.tl.tr
	nv := v.derive()
	nv.winA, nv.winB = a, b
	nv.clipLo, nv.clipHi = a, b
	if v.clip {
		if v.clipLo > nv.clipLo {
			nv.clipLo = v.clipLo
		}
		if v.clipHi < nv.clipHi {
			nv.clipHi = v.clipHi
		}
	}
	nv.clip = true
	nv.keep = make([]bool, len(tr.Contacts))
	for i, c := range tr.Contacts {
		if !v.kept(i) {
			continue
		}
		if cb, ce := v.clamp(c.Beg, c.End); windowKeeps(cb, ce, a, b) {
			nv.keep[i] = true
			nv.nKept++
		}
	}
	return nv
}

// windowKeeps reports whether a contact [beg, end] survives restriction
// to the window [a, b]: positive-length contacts must overlap the window
// for a positive duration (merely touching a boundary leaves nothing
// usable after clipping), instantaneous contacts must lie within the
// closed window.
func windowKeeps(beg, end, a, b float64) bool {
	if beg == end {
		return beg >= a && beg <= b
	}
	lo, hi := beg, end
	if lo < a {
		lo = a
	}
	if hi > b {
		hi = b
	}
	return hi > lo
}

// --- index materialization ------------------------------------------------

// ensureAdj materializes the view's adjacency half on first use. The
// identity view builds it over the whole contact slice, or adopts the
// only segment's half on a one-segment snapshot; a derived view filters
// the identity view's half.
func (v *View) ensureAdj() *adjIndex {
	v.adjOnce.Do(func() {
		defer v.adjReady.Store(true)
		if v.isBase() {
			tlMetrics.indexBuilds.Inc()
			if segs := v.tl.segs; len(segs) == 1 {
				v.adj = segs[0].adj
			} else {
				v.adj = buildAdj(v.tl.tr.Contacts, v.NumNodes())
			}
			return
		}
		tlMetrics.viewMats.Inc()
		base := v.tl.all.ensureAdj()
		n := len(base.off) - 1
		off := make([]int32, n+1)
		for u := 0; u < n; u++ {
			cnt := int32(0)
			for _, e := range base.byBeg[base.off[u]:base.off[u+1]] {
				if v.kept(int(e.CIdx)) {
					cnt++
				}
			}
			off[u+1] = off[u] + cnt
		}
		total := off[n]
		byBeg := make([]DirContact, 0, total)
		byEnd := make([]DirContact, 0, total)
		for u := 0; u < n; u++ {
			for _, e := range base.byBeg[base.off[u]:base.off[u+1]] {
				if v.kept(int(e.CIdx)) {
					e.Beg, e.End = v.clamp(e.Beg, e.End)
					byBeg = append(byBeg, e)
				}
			}
			for _, e := range base.byEnd[base.off[u]:base.off[u+1]] {
				if v.kept(int(e.CIdx)) {
					e.Beg, e.End = v.clamp(e.Beg, e.End)
					byEnd = append(byEnd, e)
				}
			}
		}
		v.adj = adjIndex{off: off, byBeg: byBeg, byEnd: byEnd, sufMinBeg: sufMinBegAdj(off, byEnd)}
	})
	return &v.adj
}

// ensurePairIndex materializes the view's pair half on first use, like
// ensureAdj. Derived views keep the identity view's keys, so every view
// shares one pair-ID space.
func (v *View) ensurePairIndex() *pairIndex {
	v.pairOnce.Do(func() {
		defer v.pairReady.Store(true)
		if v.isBase() {
			tlMetrics.indexBuilds.Inc()
			if segs := v.tl.segs; len(segs) == 1 {
				v.pairs = segs[0].pairs
			} else {
				v.pairs = buildPairs(v.tl.tr.Contacts)
			}
			return
		}
		tlMetrics.viewMats.Inc()
		base := v.tl.all.ensurePairIndex()
		np := len(base.keys)
		off := make([]int32, np+1)
		for p := 0; p < np; p++ {
			cnt := int32(0)
			for _, iv := range base.byBeg[base.off[p]:base.off[p+1]] {
				if v.kept(int(iv.CIdx)) {
					cnt++
				}
			}
			off[p+1] = off[p] + cnt
		}
		total := off[np]
		byBeg := make([]Interval, 0, total)
		byEnd := make([]Interval, 0, total)
		for p := 0; p < np; p++ {
			for _, iv := range base.byBeg[base.off[p]:base.off[p+1]] {
				if v.kept(int(iv.CIdx)) {
					iv.Beg, iv.End = v.clamp(iv.Beg, iv.End)
					byBeg = append(byBeg, iv)
				}
			}
			for _, iv := range base.byEnd[base.off[p]:base.off[p+1]] {
				if v.kept(int(iv.CIdx)) {
					iv.Beg, iv.End = v.clamp(iv.Beg, iv.End)
					byEnd = append(byEnd, iv)
				}
			}
		}
		v.pairs = pairIndex{keys: base.keys, id: base.id, off: off, byBeg: byBeg, byEnd: byEnd,
			sufMinBeg: sufMinBegPairs(off, byEnd)}
	})
	return &v.pairs
}

func (v *View) ensurePartners() {
	v.partnerOnce.Do(func() {
		if v.isBase() {
			tlMetrics.indexBuilds.Inc()
		} else {
			tlMetrics.viewMats.Inc()
		}
		pairs := v.tl.all.ensurePairIndex()
		tr := v.tl.tr
		n := tr.NumNodes()
		seen := make([]bool, len(pairs.keys))
		lists := make([][]trace.NodeID, n)
		for i, c := range tr.Contacts {
			if !v.kept(i) {
				continue
			}
			id := pairs.id[PairKey(c.A, c.B)]
			if seen[id] {
				continue
			}
			seen[id] = true
			lists[c.A] = append(lists[c.A], c.B)
			lists[c.B] = append(lists[c.B], c.A)
		}
		off := make([]int32, n+1)
		for u := 0; u < n; u++ {
			off[u+1] = off[u] + int32(len(lists[u]))
		}
		flat := make([]trace.NodeID, 0, off[n])
		for u := 0; u < n; u++ {
			flat = append(flat, lists[u]...)
		}
		v.partnerOff = off
		v.partnerIDs = flat
	})
}

// --- queries --------------------------------------------------------------

// OutgoingByBeg returns the usable contact directions leaving u, sorted
// by non-decreasing begin time (canonical (Beg, End, To) order on the
// identity view). The slice is shared; callers must not modify it.
func (v *View) OutgoingByBeg(u trace.NodeID) []DirContact {
	x := v.ensureAdj()
	return x.byBeg[x.off[u]:x.off[u+1]]
}

// OutgoingByEnd returns the usable contact directions leaving u, sorted
// by non-decreasing end time. The slice is shared; callers must not
// modify it.
func (v *View) OutgoingByEnd(u trace.NodeID) []DirContact {
	x := v.ensureAdj()
	return x.byEnd[x.off[u]:x.off[u+1]]
}

// OutgoingAfter returns the usable contact directions leaving u that are
// still open at or after time t (End >= t), sorted by non-decreasing end
// time — the δ-slice accessor of the reach layer: slicing the [t, ∞)
// tail out of u's adjacency is one binary search on the shared
// end-sorted arrays, so composing reachability products over successive
// starting times never copies or re-sorts contacts. The slice is shared;
// callers must not modify it.
func (v *View) OutgoingAfter(u trace.NodeID, t float64) []DirContact {
	tlMetrics.sliceQueries.Inc()
	x := v.ensureAdj()
	i, hi := x.tail(u, t)
	return x.byEnd[i:hi]
}

// ForOutgoingAfter invokes yield with one or more end-sorted runs that
// together contain exactly the usable contact directions leaving u with
// End >= t. On a streaming base view whose adjacency is not yet
// materialized the runs are the per-segment tails (one binary search
// per sealed segment, no whole-trace index ever built — the incremental
// engine's relaxation path); otherwise yield receives the single
// materialized tail, exactly OutgoingAfter's slice. CIdx values are
// local to the index the run came from; consumers that only read
// To/Beg/End/Fwd are order-insensitive across runs. The runs are
// shared; callers must not modify or retain them past the call.
func (v *View) ForOutgoingAfter(u trace.NodeID, t float64, yield func(run []DirContact)) {
	tlMetrics.sliceQueries.Inc()
	if segs := v.tl.segs; segs != nil && v.isBase() && !v.adjReady.Load() {
		for _, s := range segs {
			if s.maxEnd < t {
				continue
			}
			if i, hi := s.adj.tail(u, t); i < hi {
				yield(s.adj.byEnd[i:hi])
			}
		}
		return
	}
	x := v.ensureAdj()
	if i, hi := x.tail(u, t); i < hi {
		yield(x.byEnd[i:hi])
	}
}

// OutgoingIndex returns u's usable contact directions in both sort
// orders plus the suffix minimum of begin times aligned with the
// end-sorted slice: sufMinBeg[i] is the smallest Beg among byEnd[i:].
// This is the bulk form of the δ-slice accessor for sweeps that
// repeatedly partition u's adjacency around a moving departure time —
// the contacts still open at t are the byEnd entries past one binary
// search (stopping early once sufMinBeg exceeds t), and the contacts
// beginning after t are a byBeg suffix. All three slices are shared;
// callers must not modify them.
func (v *View) OutgoingIndex(u trace.NodeID) (byBeg, byEnd []DirContact, sufMinBeg []float64) {
	tlMetrics.sliceQueries.Inc()
	x := v.ensureAdj()
	lo, hi := x.off[u], x.off[u+1]
	return x.byBeg[lo:hi], x.byEnd[lo:hi], x.sufMinBeg[lo:hi]
}

// Adjacency returns the view's packed adjacency wholesale: node u's
// usable contact directions are byBeg[off[u]:off[u+1]] (begin-sorted)
// and byEnd[off[u]:off[u+1]] (end-sorted), with sufMinBeg aligned to
// byEnd as in OutgoingIndex. Sweeps that index the adjacency once per
// relaxed node use this to hoist the per-call overhead of the sliced
// accessors out of their hot loops. All four slices are shared; callers
// must not modify them.
func (v *View) Adjacency() (off []int32, byBeg, byEnd []DirContact, sufMinBeg []float64) {
	tlMetrics.sliceQueries.Inc()
	x := v.ensureAdj()
	return x.off, x.byBeg, x.byEnd, x.sufMinBeg
}

// Partners returns the devices u ever shares a contact with, ordered by
// the first contact of each pair in trace order (the tie-break order the
// forwarding algorithms rely on). The slice is shared; callers must not
// modify it.
func (v *View) Partners(u trace.NodeID) []trace.NodeID {
	v.ensurePartners()
	return v.partnerIDs[v.partnerOff[u]:v.partnerOff[u+1]]
}

// Meet returns the earliest time at or after t at which devices u and w
// share a contact (i.e. a transfer between them can happen), or +Inf.
func (v *View) Meet(u, w trace.NodeID, t float64) float64 {
	tlMetrics.meets.Inc()
	key := PairKey(u, w)
	// Streaming snapshots answer straight off the sealed segments (one
	// binary search each) until some consumer has paid for the view's
	// index, after which the single materialized search wins.
	if segs := v.tl.segs; segs != nil && v.isBase() && !v.pairReady.Load() {
		best := inf
		for _, s := range segs {
			if s.maxEnd < t {
				continue
			}
			if m := s.pairs.meet(key, t); m < best {
				best = m
			}
		}
		return best
	}
	return v.ensurePairIndex().meet(key, t)
}

// NextContact returns the earliest time at or after t at which device u
// is in contact with any other device, or +Inf.
func (v *View) NextContact(u trace.NodeID, t float64) float64 {
	tlMetrics.nextContact.Inc()
	if segs := v.tl.segs; segs != nil && v.isBase() && !v.adjReady.Load() {
		best := inf
		for _, s := range segs {
			if s.maxEnd < t {
				continue
			}
			if m := s.adj.next(u, t); m < best {
				best = m
			}
		}
		return best
	}
	return v.ensureAdj().next(u, t)
}

// PairIntervals returns pair p's meeting intervals sorted by begin time,
// where p is a canonical pair ID in [0, Timeline.NumPairs()). The slice
// is shared; callers must not modify it.
func (v *View) PairIntervals(p int) []Interval {
	x := v.ensurePairIndex()
	return x.byBeg[x.off[p]:x.off[p+1]]
}

// PairEndpoints returns the canonical endpoints (a < b) of pair ID p.
func (v *View) PairEndpoints(p int) (a, b trace.NodeID) {
	return pairEnds(v.tl.all.ensurePairIndex().keys[p])
}
