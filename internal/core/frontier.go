package core

import (
	"math"
	"slices"
	"sort"
)

// Frontier is the minimal representation of the delivery function of one
// source-destination pair within a hop-bounded class: the Pareto-optimal
// (LD, EA) summaries, sorted by increasing LD (and, when Delta == 0,
// strictly increasing EA — the staircase of paper Figure 5).
//
// Delta is the per-hop transmission delay the frontier was computed with;
// it changes how delivery times are evaluated (each of the Hop hops adds
// Delta, and consecutive contacts must be Delta apart).
type Frontier struct {
	Entries []Entry
	Delta   float64

	// didx, when non-nil, is the precomputed per-hop suffix-min index
	// that makes Delta > 0 delay evaluation sublinear in the frontier
	// size. Built by Indexed (and automatically by Result.Frontier);
	// a zero-value Frontier evaluates by brute-force scan instead.
	didx *delIndex
}

// Empty reports whether no path exists at all within the class.
func (f Frontier) Empty() bool { return len(f.Entries) == 0 }

// Indexed returns the frontier with a precomputed evaluation index for
// the Delta > 0 model. Entries must be sorted by non-decreasing LD (the
// order every Frontier in this package uses). The index groups entries
// by hop count and stores, per group, the LD keys and the suffix-minimum
// of EA, so Del becomes a binary search per hop group instead of a scan
// over every entry. Results are bit-identical to the unindexed scan.
// For Delta == 0 frontiers it is a no-op: Del is already a single
// binary search.
func (f Frontier) Indexed() Frontier {
	if f.Delta == 0 || len(f.Entries) == 0 {
		return f
	}
	f.didx = buildDelIndex(f.Entries)
	return f
}

// delIndex regroups a Delta > 0 frontier by hop count. For one hop group
// with per-hop delay already fixed, the delivery-time minimum over the
// group's applicable entries (LD >= t) collapses to
// max(t + (h−1)Δ, min EA over the LD suffix) + Δ, because max(·, c) is
// monotone in EA. The group keeps its entries in LD order with a
// suffix-min EA array, so each group evaluates with one binary search.
type delIndex struct {
	hop   []int32   // distinct hop counts, one per group
	off   []int32   // group g owns ld[off[g]:off[g+1]]
	ld    []float64 // LD keys, non-decreasing within each group
	sufEA []float64 // suffix-min of EA within each group
}

func buildDelIndex(entries []Entry) *delIndex {
	// Count entries per hop; hops are small positive ints, so index
	// groups by value in a dense table.
	maxHop := int32(0)
	for _, e := range entries {
		if e.Hop > maxHop {
			maxHop = e.Hop
		}
	}
	cnt := make([]int32, maxHop+1)
	for _, e := range entries {
		cnt[e.Hop]++
	}
	ix := &delIndex{
		ld:    make([]float64, len(entries)),
		sufEA: make([]float64, len(entries)),
	}
	start := make([]int32, maxHop+1)
	pos := int32(0)
	for h := int32(0); h <= maxHop; h++ {
		if cnt[h] == 0 {
			continue
		}
		ix.hop = append(ix.hop, h)
		ix.off = append(ix.off, pos)
		start[h] = pos
		pos += cnt[h]
	}
	ix.off = append(ix.off, pos)
	// Stable scatter preserves the global LD order within each group.
	for _, e := range entries {
		ix.ld[start[e.Hop]] = e.LD
		ix.sufEA[start[e.Hop]] = e.EA
		start[e.Hop]++
	}
	for g := 0; g < len(ix.hop); g++ {
		lo, hi := ix.off[g], ix.off[g+1]
		for i := hi - 2; i >= lo; i-- {
			if ix.sufEA[i+1] < ix.sufEA[i] {
				ix.sufEA[i] = ix.sufEA[i+1]
			}
		}
	}
	return ix
}

// eval returns min over applicable entries of max(EA, t+(Hop−1)Δ)+Δ,
// computed group by group.
func (ix *delIndex) eval(t, delta float64) float64 {
	best := Inf
	for g, h := range ix.hop {
		lo, hi := int(ix.off[g]), int(ix.off[g+1])
		seg := ix.ld[lo:hi]
		i := sort.Search(len(seg), func(i int) bool { return seg[i] >= t })
		if i == len(seg) {
			continue
		}
		arr := math.Max(ix.sufEA[lo+i], t+float64(h-1)*delta) + delta
		if arr < best {
			best = arr
		}
	}
	return best
}

// Del returns the optimal delivery time of a message created at time t
// (paper eq. 3), or +Inf if no sequence can still carry it.
func (f Frontier) Del(t float64) float64 {
	if f.Delta != 0 {
		return f.delDelta(t)
	}
	es := f.Entries
	// First entry with LD >= t; its EA is minimal among all applicable
	// entries because EA increases with LD along the frontier.
	i := sort.Search(len(es), func(i int) bool { return es[i].LD >= t })
	if i == len(es) {
		return Inf
	}
	return math.Max(t, es[i].EA)
}

// delDelta evaluates the delivery time with per-hop delay Delta: a
// message created at t and carried by a summary (LD, EA, h) departs at
// some t_1 ∈ [t, LD], reaches the last contact no earlier than
// max(EA, t_1 + (h−1)Delta) and is delivered Delta later. With a
// precomputed index (Indexed) the minimum is taken per hop group via
// binary search; without one it falls back to scanning every entry.
// Both paths return bit-identical values.
func (f Frontier) delDelta(t float64) float64 {
	if f.didx != nil {
		return f.didx.eval(t, f.Delta)
	}
	best := Inf
	for _, e := range f.Entries {
		if e.LD < t {
			continue
		}
		arr := math.Max(e.EA, t+float64(e.Hop-1)*f.Delta) + f.Delta
		if arr < best {
			best = arr
		}
	}
	return best
}

// Delay returns Del(t) − t: the optimal delivery delay for a message
// created at time t.
func (f Frontier) Delay(t float64) float64 {
	d := f.Del(t)
	if math.IsInf(d, 1) {
		return Inf
	}
	return d - t
}

// SuccessWithin returns the Lebesgue measure of starting times
// t ∈ [a, b] whose optimal delay is at most d. Dividing by (b − a) gives
// the per-pair success probability of paper §4.1 for a uniformly random
// starting time. The measure is exact: the delay profile is piecewise
// max(0, EA_i − t). It is SuccessCurve with a single budget, and like it
// panics on a Frontier with Delta != 0.
func (f Frontier) SuccessWithin(d, a, b float64) float64 {
	budgets := [1]float64{d}
	var out [1]float64
	f.SuccessCurve(budgets[:], a, b, out[:])
	return out[0]
}

// SuccessCurve sets out[g] to SuccessWithin(budgets[g], a, b) for every
// budget, walking the frontier once instead of once per budget. budgets
// must be in ascending order (NaNs first, as slices.Sort leaves them)
// and out at least as long. Each out[g] receives the same float
// additions, in the same order, as a separate SuccessWithin call, so
// the curve is bit-identical to the per-budget loop.
//
// An entry's segment (left, segEnd] contributes segEnd − max(left,
// EA − d): nothing while EA − d ≥ segEnd, all of segEnd − left once
// EA − d ≤ left, and a partial measure in between. Both thresholds are
// monotone in d, so two binary searches per entry find them and only
// the partial band evaluates the max.
//
// It measures a Delta == 0 staircase only and panics on a Frontier with
// Delta != 0, a programming error: a per-hop delay Δ turns budget d into
// the Delta == 0 budget d − Δ over the staircase of summaries with at
// most ⌊d/Δ⌋ hops, which analysis.Study builds from the archive.
func (f Frontier) SuccessCurve(budgets []float64, a, b float64, out []float64) {
	if f.Delta != 0 {
		panic("core: SuccessCurve on a Delta != 0 frontier")
	}
	successCurve2D(f.Entries, budgets, a, b, out)
}

// successCurve2D is SuccessCurve's walk over the staircase es. It is a
// function of its own because the panic above, compiled into the same
// function, made the walk about 10% slower (go1.24, fresh-grid daemon
// queries on quick Infocom05).
func successCurve2D(es []Entry, budgets []float64, a, b float64, out []float64) {
	out = out[:len(budgets)]
	clear(out)
	if b <= a || len(es) == 0 {
		return
	}
	// Negative budgets (and NaNs, sorted before them) measure nothing.
	g0 := sort.Search(len(budgets), func(g int) bool { return budgets[g] >= 0 })
	bs, acc := budgets[g0:], out[g0:]
	left := a
	for _, e := range es {
		if e.LD <= left {
			continue
		}
		segEnd := min(e.LD, b)
		lo := sort.Search(len(bs), func(g int) bool { return segEnd > max(left, e.EA-bs[g]) })
		full := lo + sort.Search(len(bs)-lo, func(g int) bool { return e.EA-bs[lo+g] <= left })
		part := acc[lo:full]
		for g, d := range bs[lo:full] {
			part[g] += segEnd - max(left, e.EA-d)
		}
		// From full on, max(left, EA − d) is left: the constant term.
		whole := segEnd - left
		rest := acc[full:]
		for g := range rest {
			rest[g] += whole
		}
		left = e.LD
		if left >= b {
			break
		}
	}
}

// MaxHop returns the largest hop count among frontier entries, 0 when
// empty.
func (f Frontier) MaxHop() int {
	m := int32(0)
	for _, e := range f.Entries {
		if e.Hop > m {
			m = e.Hop
		}
	}
	return int(m)
}

// ParetoSet is an incrementally maintained Pareto frontier of path
// summaries under the paper's two-dimensional dominance (later departure
// and earlier arrival are both better). It is the data structure behind
// the engine's "concise representation of optimal paths" and is exposed
// for callers building custom path analyses.
type ParetoSet struct {
	f frontier2D
}

// Add inserts a summary unless it is dominated, removing summaries it
// dominates; it reports whether the summary entered the set.
func (p *ParetoSet) Add(e Entry) bool { return p.f.add(e) }

// Len returns the current frontier size.
func (p *ParetoSet) Len() int { return len(p.f) }

// Entries returns the frontier sorted by increasing LD (and EA). The
// returned slice is a copy.
func (p *ParetoSet) Entries() []Entry { return append([]Entry(nil), p.f...) }

// frontier2D is the engine's mutable Pareto set for the paper model
// (Delta == 0): entries sorted by strictly increasing LD and strictly
// increasing EA.
type frontier2D []Entry

// add inserts e unless it is dominated, removing entries e dominates.
// It reports whether e entered the frontier.
func (f *frontier2D) add(e Entry) bool {
	es := *f
	// First index with LD >= e.LD. Because EA increases with LD, that
	// entry has the minimal EA among all entries with LD >= e.LD.
	i := sort.Search(len(es), func(i int) bool { return es[i].LD >= e.LD })
	if i < len(es) && es[i].EA <= e.EA {
		return false // dominated (possibly a duplicate)
	}
	// Remove entries dominated by e: LD <= e.LD (all indices < hi, which
	// includes an existing entry with LD equal to e.LD — necessarily of
	// larger EA, or e would have been dominated above) and EA >= e.EA (a
	// suffix of those, since EA is increasing).
	hi := i
	if hi < len(es) && es[hi].LD == e.LD {
		hi++
	}
	lo := sort.Search(hi, func(j int) bool { return es[j].EA >= e.EA })
	if lo == hi {
		// Nothing to remove: insert at hi.
		es = append(es, Entry{})
		copy(es[hi+1:], es[hi:])
		es[hi] = e
	} else {
		es[lo] = e
		es = append(es[:lo+1], es[hi:]...)
	}
	*f = es
	return true
}

// frontier3D is the engine's mutable Pareto set when each hop costs a
// positive transmission delay: dominance must respect hop counts, so the
// set is a 3-way Pareto frontier kept as a flat list (frontiers stay
// small; linear scans are fine).
type frontier3D []Entry

// add inserts e unless some entry 3D-dominates it, removing entries e
// 3D-dominates. It reports whether e entered the frontier.
func (f *frontier3D) add(e Entry) bool {
	es := *f
	for _, q := range es {
		if dominates3D(q, e) {
			return false
		}
	}
	out := es[:0]
	for _, q := range es {
		if !dominates3D(e, q) {
			out = append(out, q)
		}
	}
	*f = append(out, e)
	return true
}

// buildFrontier2D extracts the Pareto frontier of all entries with
// Hop <= maxHop, for the Delta == 0 model. It returns entries sorted by
// increasing LD and EA, in one allocation: the matching entries are
// filtered into it, sorted, and swept in place.
func buildFrontier2D(entries []Entry, maxHop int32) []Entry {
	if len(entries) == 0 {
		return nil
	}
	s := make([]Entry, 0, len(entries))
	for _, e := range entries {
		if e.Hop <= maxHop {
			s = append(s, e)
		}
	}
	if len(s) == 0 {
		return nil
	}
	sortEntries(s)
	return sweep2D(s, maxHop, s)
}

// sortEntries sorts entries by (LD, EA, Hop). The key is the whole
// Entry value, so ties are entire-value equal and the unstable sort
// cannot perturb results; filtering a sorted run by hop keeps it
// sorted.
func sortEntries(s []Entry) {
	slices.SortFunc(s, func(a, b Entry) int {
		switch {
		case a.LD < b.LD:
			return -1
		case a.LD > b.LD:
			return 1
		case a.EA < b.EA:
			return -1
		case a.EA > b.EA:
			return 1
		default:
			return int(a.Hop - b.Hop)
		}
	})
}

// sweep2D compacts the entries of sorted (ordered by sortEntries) with
// Hop <= maxHop into their Pareto staircase, written right-aligned into
// slot[:len(sorted)]; slot may be sorted itself. The result aliases slot
// with its capacity capped at the sweep's bounds, so callers cannot
// append over an adjacent arena slot, and nothing is allocated.
//
// The right-to-left sweep keeps entries whose EA is a new strict
// minimum — exactly condition (4) of the paper. Within an equal-LD
// group the sweep sees EA in decreasing order, so each improvement
// replaces the previously kept entry of that group; likewise an equal
// (LD, EA) duplicate with a smaller hop count replaces the larger one.
// Survivors accumulate right-to-left, already LD-ascending — no
// reversal pass. In place, the write index never catches the read
// index: after reading the k rightmost entries at most k survive, so
// w-1 >= i always (equality is a self-assignment).
func sweep2D(sorted []Entry, maxHop int32, slot []Entry) []Entry {
	m := len(sorted)
	w := m
	bestEA := math.Inf(1)
	for i := m - 1; i >= 0; i-- {
		e := sorted[i]
		if e.Hop > maxHop || e.EA > bestEA {
			continue
		}
		if w < m && slot[w].LD == e.LD {
			if e.EA <= slot[w].EA {
				slot[w] = e
				bestEA = e.EA
			}
			continue
		}
		if e.EA == bestEA {
			continue // same EA, smaller LD: dominated
		}
		w--
		slot[w] = e
		bestEA = e.EA
	}
	if w == m {
		return nil
	}
	return slot[w:m:m]
}

// FrontierFromSorted builds the Delta == 0 frontier of the class of
// paths using at most maxHop contacts (maxHop <= 0 means unbounded)
// from a pair's archive sorted by Result.SortedArchiveInto. It works
// entirely inside slot, which must be at least as long as sorted, and
// the returned Frontier aliases it; sorted is only read, so one sorted
// archive serves every hop bound. For a Delta == 0 result the entries
// equal Result.Frontier's; for a Delta > 0 archive the staircase is the
// one whose Delta == 0 measure gives the class's delivery measure.
func FrontierFromSorted(sorted []Entry, maxHop int, slot []Entry) Frontier {
	return Frontier{Entries: sweep2D(sorted, hopBound(maxHop), slot)}
}

// buildFrontier3D extracts the hop-aware Pareto frontier of all entries
// with Hop <= maxHop, sorted by increasing LD for readability.
func buildFrontier3D(entries []Entry, maxHop int32) []Entry {
	var f frontier3D
	for _, e := range entries {
		if e.Hop <= maxHop {
			f.add(e)
		}
	}
	sort.Slice(f, func(i, j int) bool { return f[i].LD < f[j].LD })
	return f
}
