// Package timeline is the shared contact-index layer of the repository:
// one immutable, build-once index over a trace.Trace that every temporal
// consumer (the core path engine, the flooding oracle, the forwarding
// evaluator and the trace statistics) queries instead of re-deriving its
// own private structures from the flat contact slice.
//
// A Timeline owns the base arrays; all access goes through a View. The
// identity view (Timeline.All) exposes the whole trace; derived views
// (TimeWindow, MinDuration, RemoveRandom, InternalOnly) share the base
// arrays and the pair-ID space, carrying only a keep-mask and an optional
// clipping window. Because every base array is sorted once and filtering
// preserves order, deriving a view never re-sorts: a contact-removal
// study with hundreds of repetitions pays one sort total.
//
// Indexes are built lazily, each guarded by its own sync.Once, so a view
// is safe for concurrent use by any number of goroutines and a consumer
// that only needs the pair index never pays for adjacency.
//
// One builder sorts contacts into each half of the index: buildAdj for
// the adjacency, buildPairs for the pair intervals. The identity view of
// New, an Appender's sealed segments and its compactions all build
// through them, so a snapshot's arrays are exactly those New builds over
// the same contacts. The sorted pair-key list of the whole trace is the
// pair-ID space every view shares.
//
// The structures:
//
//   - per-node outgoing contact directions in CSR layout, sorted by begin
//     time (the path engine's sweep order) and by end time with a suffix
//     minimum of begin times (NextContact in O(log n));
//   - per-pair meeting intervals in CSR layout, sorted by end time with a
//     suffix minimum of begin times (Meet in O(log n)) and by begin time
//     (interval merging for the statistics);
//   - per-node partner lists in first-seen trace order (the order the
//     forwarding algorithms tie-break on).
package timeline

import (
	"math"
	"slices"
	"sort"

	"opportunet/internal/trace"
)

// PairKey packs an unordered device pair into one comparable key. It is
// the single definition shared by every package that buckets state by
// pair (previously duplicated in trace and forward).
func PairKey(a, b trace.NodeID) uint64 {
	if a > b {
		a, b = b, a
	}
	return uint64(uint32(a))<<32 | uint64(uint32(b))
}

// DirContact is one usable direction of a trace contact, as stored in the
// per-node adjacency: the owning device can transfer to To during
// [Beg, End]. Fwd reports whether this direction is the contact's recorded
// A→B orientation (the only usable one under Options.Directed). CIdx is
// the index of the source contact in the underlying trace's Contacts.
type DirContact struct {
	To       trace.NodeID
	Beg, End float64
	CIdx     int32
	Fwd      bool
}

// Interval is one meeting interval of a device pair, as stored in the
// per-pair index. CIdx is the index of the source contact.
type Interval struct {
	Beg, End float64
	CIdx     int32
}

// Timeline is the immutable index over one trace. Construction is cheap;
// the actual arrays are built lazily by the views. A Timeline never
// mutates its trace and assumes the trace is not mutated after New —
// callers needing validation run trace.Validate themselves (core.Compute
// does).
type Timeline struct {
	tr *trace.Trace

	// Streaming snapshots (Appender.Snapshot) carry the sealed segment
	// set: the identity view answers point queries straight off the
	// segments until a consumer forces its index. nil for timelines
	// built by New.
	segs     []*segment
	streamID string
	evictGen uint64

	all *View
}

// New builds a Timeline over the trace. The trace must outlive the
// timeline and must not be mutated afterwards.
func New(tr *trace.Trace) *Timeline {
	tl := &Timeline{tr: tr}
	tl.all = &View{
		tl:    tl,
		nKept: len(tr.Contacts),
		winA:  tr.Start,
		winB:  tr.End,
	}
	return tl
}

// Trace returns the underlying trace (read-only by convention).
func (tl *Timeline) Trace() *trace.Trace { return tl.tr }

// StreamInfo identifies the streaming origin of a snapshot timeline:
// the appender's process-unique ID and the eviction generation at
// snapshot time. Engine resume is valid across two snapshots iff both
// report ok with the same ID and generation — eviction bumps the
// generation precisely because it removes contacts a resumed frontier
// may have consumed. Timelines built by New report ok == false.
func (tl *Timeline) StreamInfo() (id string, evictGen uint64, ok bool) {
	return tl.streamID, tl.evictGen, tl.streamID != ""
}

// All returns the identity view exposing the whole trace.
func (tl *Timeline) All() *View { return tl.all }

// NumPairs returns the number of distinct unordered device pairs with at
// least one contact anywhere in the trace (views share this ID space even
// when a filter empties a pair's interval list).
func (tl *Timeline) NumPairs() int { return len(tl.all.ensurePairIndex().keys) }

// adjIndex is the per-node half of the index: both usable directions of
// every contact, node u's run at [off[u], off[u+1]) in CSR layout,
// sorted by (Beg, End, To, CIdx) in byBeg and by (End, Beg, To, CIdx) in
// byEnd; sufMinBeg[i] is the smallest Beg among byEnd[i:] within its run.
type adjIndex struct {
	off       []int32
	byBeg     []DirContact
	byEnd     []DirContact
	sufMinBeg []float64
}

// pairIndex is the per-pair half. keys holds the distinct pair keys in
// ascending order, which is lexicographic (min, max) endpoint order, and
// a pair's ID is its position in keys; id maps a key back to it. Pair
// p's intervals are the CSR run [off[p], off[p+1]), sorted by (Beg, End,
// CIdx) in byBeg and by (End, Beg, CIdx) in byEnd, with suffix minima of
// Beg aligned to byEnd as in adjIndex.
type pairIndex struct {
	keys      []uint64
	id        map[uint64]int32
	off       []int32
	byBeg     []Interval
	byEnd     []Interval
	sufMinBeg []float64
}

// pairEnds unpacks a PairKey into its canonical endpoints (a < b).
func pairEnds(k uint64) (a, b trace.NodeID) {
	return trace.NodeID(k >> 32), trace.NodeID(uint32(k))
}

// buildAdj sorts contacts into the adjacency half over n nodes; CIdx is
// a contact's position in contacts. buildAdj and buildPairs are the only
// code that sorts contacts into CSR arrays: the identity view of New,
// sealed segments and compaction all build through them.
func buildAdj(contacts []trace.Contact, n int) adjIndex {
	off := make([]int32, n+1)
	for _, c := range contacts {
		off[c.A+1]++
		off[c.B+1]++
	}
	for i := 0; i < n; i++ {
		off[i+1] += off[i]
	}
	byBeg := make([]DirContact, 2*len(contacts))
	cur := slices.Clone(off[:n])
	for i, c := range contacts {
		byBeg[cur[c.A]] = DirContact{To: c.B, Beg: c.Beg, End: c.End, CIdx: int32(i), Fwd: true}
		cur[c.A]++
		byBeg[cur[c.B]] = DirContact{To: c.A, Beg: c.Beg, End: c.End, CIdx: int32(i), Fwd: false}
		cur[c.B]++
	}
	byEnd := slices.Clone(byBeg)
	for u := 0; u < n; u++ {
		run := byBeg[off[u]:off[u+1]]
		sort.Slice(run, func(i, j int) bool { return lessByBeg(run[i], run[j]) })
		run = byEnd[off[u]:off[u+1]]
		sort.Slice(run, func(i, j int) bool { return lessByEnd(run[i], run[j]) })
	}
	return adjIndex{off: off, byBeg: byBeg, byEnd: byEnd, sufMinBeg: sufMinBegAdj(off, byEnd)}
}

// buildPairs sorts contacts into the pair half; CIdx is a contact's
// position in contacts.
func buildPairs(contacts []trace.Contact) pairIndex {
	id := make(map[uint64]int32)
	for _, c := range contacts {
		id[PairKey(c.A, c.B)] = 0
	}
	keys := make([]uint64, 0, len(id))
	for k := range id {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for p, k := range keys {
		id[k] = int32(p)
	}
	np := len(keys)
	off := make([]int32, np+1)
	for _, c := range contacts {
		off[id[PairKey(c.A, c.B)]+1]++
	}
	for p := 0; p < np; p++ {
		off[p+1] += off[p]
	}
	byBeg := make([]Interval, len(contacts))
	cur := slices.Clone(off[:np])
	for i, c := range contacts {
		p := id[PairKey(c.A, c.B)]
		byBeg[cur[p]] = Interval{Beg: c.Beg, End: c.End, CIdx: int32(i)}
		cur[p]++
	}
	byEnd := slices.Clone(byBeg)
	for p := 0; p < np; p++ {
		run := byBeg[off[p]:off[p+1]]
		sort.Slice(run, func(i, j int) bool { return lessIvBeg(run[i], run[j]) })
		run = byEnd[off[p]:off[p+1]]
		sort.Slice(run, func(i, j int) bool { return lessIvEnd(run[i], run[j]) })
	}
	return pairIndex{keys: keys, id: id, off: off, byBeg: byBeg, byEnd: byEnd, sufMinBeg: sufMinBegPairs(off, byEnd)}
}

// tail returns the byEnd position of u's first direction with End >= t
// and the end of u's run.
func (x *adjIndex) tail(u trace.NodeID, t float64) (i, hi int) {
	lo, hi := int(x.off[u]), int(x.off[u+1])
	run := x.byEnd[lo:hi]
	return lo + sort.Search(len(run), func(i int) bool { return run[i].End >= t }), hi
}

// next is NextContact over this index: the earliest time >= t at which
// u is in contact with any device, or +Inf.
func (x *adjIndex) next(u trace.NodeID, t float64) float64 {
	i, hi := x.tail(u, t)
	if i == hi {
		return inf
	}
	return math.Max(t, x.sufMinBeg[i])
}

// meet is Meet over this index: the earliest time >= t at which the pair
// with packed key shares a contact, or +Inf — one binary search for the
// first interval ending at or after t, whose suffix-min begin bounds how
// early the meeting can start.
func (x *pairIndex) meet(key uint64, t float64) float64 {
	p, ok := x.id[key]
	if !ok {
		return inf
	}
	lo, hi := int(x.off[p]), int(x.off[p+1])
	run := x.byEnd[lo:hi]
	i := sort.Search(len(run), func(i int) bool { return run[i].End >= t })
	if i == len(run) {
		return inf
	}
	return math.Max(t, x.sufMinBeg[lo+i])
}

// lessByBeg is the canonical adjacency order: (Beg, End, To, CIdx).
func lessByBeg(a, b DirContact) bool {
	if a.Beg != b.Beg {
		return a.Beg < b.Beg
	}
	if a.End != b.End {
		return a.End < b.End
	}
	if a.To != b.To {
		return a.To < b.To
	}
	return a.CIdx < b.CIdx
}

// lessByEnd orders by (End, Beg, To, CIdx), the layout the suffix-min
// query structures use.
func lessByEnd(a, b DirContact) bool {
	if a.End != b.End {
		return a.End < b.End
	}
	if a.Beg != b.Beg {
		return a.Beg < b.Beg
	}
	if a.To != b.To {
		return a.To < b.To
	}
	return a.CIdx < b.CIdx
}

// sufMinBegAdj computes, per CSR segment of an end-sorted adjacency, the
// suffix minimum of begin times: entry i holds the smallest Beg among
// entries i.. of its segment.
func sufMinBegAdj(off []int32, byEnd []DirContact) []float64 {
	suf := make([]float64, len(byEnd))
	for s := 0; s+1 < len(off); s++ {
		lo, hi := off[s], off[s+1]
		min := inf
		for i := hi - 1; i >= lo; i-- {
			if byEnd[i].Beg < min {
				min = byEnd[i].Beg
			}
			suf[i] = min
		}
	}
	return suf
}

func lessIvBeg(a, b Interval) bool {
	if a.Beg != b.Beg {
		return a.Beg < b.Beg
	}
	if a.End != b.End {
		return a.End < b.End
	}
	return a.CIdx < b.CIdx
}

func lessIvEnd(a, b Interval) bool {
	if a.End != b.End {
		return a.End < b.End
	}
	if a.Beg != b.Beg {
		return a.Beg < b.Beg
	}
	return a.CIdx < b.CIdx
}

func sufMinBegPairs(off []int32, byEnd []Interval) []float64 {
	suf := make([]float64, len(byEnd))
	for s := 0; s+1 < len(off); s++ {
		lo, hi := off[s], off[s+1]
		min := inf
		for i := hi - 1; i >= lo; i-- {
			if byEnd[i].Beg < min {
				min = byEnd[i].Beg
			}
			suf[i] = min
		}
	}
	return suf
}
