package reach

import (
	"math"
	"sync"

	"opportunet/internal/core"
	"opportunet/internal/par"
	"opportunet/internal/trace"
)

// build is one completed envelope construction: a fixed slot resolution
// evaluated on one delay grid. lo[kIdx]/hi[kIdx] hold the unnormalized
// lower/upper success measures of hop class kIdx at each grid budget —
// classes kIdx < maxK are the hop-bound-(kIdx+1) classes, kIdx == maxK
// is the unbounded class.
type build struct {
	slots  int
	maxK   int
	window float64 // observation window length b−a
	pairs  int     // ordered internal pairs
	grid   []float64
	lo, hi [][]float64
}

// sameGrid reports whether the build was evaluated on this exact grid.
func (bd *build) sameGrid(grid []float64) bool {
	if len(bd.grid) != len(grid) {
		return false
	}
	for i, d := range grid {
		if bd.grid[i] != d {
			return false
		}
	}
	return true
}

// acc accumulates one source's ramp contributions for every hop class,
// bucketed by the delay grid. Each slot of the start-time sweep
// contributes a clamped ramp clamp(d−c, 0, w) to a class's measure —
// exact where del is constant across the slot, and evaluated once with
// the slot's right (lower side) or left (upper side) boundary value
// where del jumps, which is what makes the two sums sandwich the exact
// curve. Using the ramp identity
//
//	clamp(d−c, 0, w) = max(0, d−c) − max(0, d−(c+w)),
//
// a ramp is two unit-slope breakpoints (+1 at c, −1 at c+w), and since
// envelopes are only ever evaluated at the grid budgets, each
// breakpoint collapses to a (count, value-sum) update in the bucket of
// the first grid point at or above it — no sorted event multisets, no
// per-event storage. Evaluating a class at grid[m] is then
// prefixCount·grid[m] − prefixSum over buckets ≤ m, identical at every
// grid point to evaluating the full sorted multiset (breakpoints past
// the last budget contribute nothing anywhere and are dropped).
//
// Layout: per class, four consecutive G-sized blocks
// [loCnt, loSum, hiCnt, hiSum].
type acc struct {
	grid   []float64
	buf    []float64
	events int64
}

func newAcc(classes int, grid []float64) *acc {
	return &acc{grid: grid, buf: make([]float64, classes*4*len(grid))}
}

// buckets locates the two breakpoints of a clamped ramp on the grid:
// the first bucket at or above c and, searching only the remaining
// suffix (end ≥ c always), the first at or above end. An index of G
// means the breakpoint lies past every budget and is dropped. The
// searches are hand-rolled: this is the innermost accumulation step and
// the sort.Search closure overhead is measurable here.
func (ac *acc) buckets(c, end float64) (int, int) {
	grid := ac.grid
	lo, hi := 0, len(grid)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if grid[m] < c {
			lo = m + 1
		} else {
			hi = m
		}
	}
	b1 := lo
	hi = len(grid)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if grid[m] < end {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return b1, lo
}

// addRamp registers one clamped ramp (start c, width w) into a
// (count, sum) block pair.
func (ac *acc) addRamp(off int, c, w float64) {
	G := len(ac.grid)
	end := c + w
	b1, b2 := ac.buckets(c, end)
	if b1 < G {
		ac.buf[off+b1]++
		ac.buf[off+G+b1] += c
	}
	if b2 < G {
		ac.buf[off+b2]--
		ac.buf[off+G+b2] -= end
	}
	ac.events++
}

// exact adds a contribution present in both envelopes: a constant run
// of del across one or more whole slots has exactly measure
// clamp(d−c, 0, w) of successful starting times. The buckets are
// located once and applied to both the lower and upper blocks.
func (ac *acc) exact(kIdx int, c, w float64) {
	G := len(ac.grid)
	base := kIdx * 4 * G
	end := c + w
	b1, b2 := ac.buckets(c, end)
	if b1 < G {
		ac.buf[base+b1]++
		ac.buf[base+G+b1] += c
		ac.buf[base+2*G+b1]++
		ac.buf[base+3*G+b1] += c
	}
	if b2 < G {
		ac.buf[base+b2]--
		ac.buf[base+G+b2] -= end
		ac.buf[base+2*G+b2]--
		ac.buf[base+3*G+b2] -= end
	}
	ac.events += 2
}

func (ac *acc) lower(kIdx int, c, w float64) {
	ac.addRamp(kIdx*4*len(ac.grid), c, w)
}

func (ac *acc) upper(kIdx int, c, w float64) {
	ac.addRamp(kIdx*4*len(ac.grid)+2*len(ac.grid), c, w)
}

// lanes is one source's derivation arena inside a build: the exact
// frontier of every (hop class, destination) lane, back to back in fr,
// a forward-only cursor into each, and the run-merge state of the slot
// sweep. Lane l = kIdx·nInt + d owns fr[lo[l]:hi[l]]. sorted and slot
// are the one-pair scratch of the archive sort and the frontier sweeps.
type lanes struct {
	sorted, slot []core.Entry
	fr           []core.Entry
	lo, hi, cur  []int32
	runVal       []float64
	runStart     []int32
}

// derive fills the lanes of source si from the exhaustive result: per
// destination the pair's archive is sorted once and swept once per hop
// class (bound kIdx+1, unbounded for kIdx == maxK). Classes at or above
// the pair's largest archived hop count admit the same entries as the
// unbounded class, so they share its entries instead of sweeping again:
// on quick Reality Mining, where most pairs saturate far below the
// 17-hop fixpoint, that takes the derivation and sweep of a 64-slot
// build from 0.67 to 0.43 s.
func (ln *lanes) derive(res *core.Result, sources []trace.NodeID, si, maxK int) {
	nInt := len(sources)
	n := (maxK + 1) * nInt
	if cap(ln.lo) < n {
		ln.lo, ln.hi, ln.cur = make([]int32, n), make([]int32, n), make([]int32, n)
		ln.runVal, ln.runStart = make([]float64, n), make([]int32, n)
	}
	ln.lo, ln.hi, ln.cur = ln.lo[:n], ln.hi[:n], ln.cur[:n]
	ln.runVal, ln.runStart = ln.runVal[:n], ln.runStart[:n]
	ln.fr = ln.fr[:0]
	src := sources[si]
	for d, dst := range sources {
		if d == si {
			continue
		}
		m := res.PairArchiveLen(src, dst)
		if cap(ln.sorted) < m {
			ln.sorted, ln.slot = make([]core.Entry, m), make([]core.Entry, m)
		}
		sorted := res.SortedArchiveInto(src, dst, ln.sorted)
		top := int32(0)
		for _, en := range sorted {
			top = max(top, en.Hop)
		}
		all := maxK*nInt + d
		ln.lo[all] = int32(len(ln.fr))
		ln.fr = append(ln.fr, core.FrontierFromSorted(sorted, 0, ln.slot).Entries...)
		ln.hi[all] = int32(len(ln.fr))
		for kIdx := 0; kIdx < maxK; kIdx++ {
			l := kIdx*nInt + d
			if int32(kIdx+1) >= top {
				ln.lo[l], ln.hi[l] = ln.lo[all], ln.hi[all]
				continue
			}
			ln.lo[l] = int32(len(ln.fr))
			ln.fr = append(ln.fr, core.FrontierFromSorted(sorted, kIdx+1, ln.slot).Entries...)
			ln.hi[l] = int32(len(ln.fr))
		}
	}
	copy(ln.cur, ln.lo)
}

// buildAt runs the slot sweep at the given resolution and returns the
// finished envelopes evaluated on the grid. One exhaustive computation
// from the internal devices gives every pair's exact frontiers; per
// source, each boundary s_i reads del_k(s_i) = max(s_i, EA) off the
// first frontier entry with LD ≥ s_i (+Inf when none is left) — the
// lane cursors only move forward, since the boundaries increase — and
// run-merges the per-destination delivery times: while del stays
// constant across consecutive boundaries the slots between them
// contribute one exact ramp, and each slot where del jumps contributes
// a pessimistic ramp to the lower envelope (right boundary value — del
// is non-decreasing in the starting time, so that value bounds the slot
// from above) and an optimistic one to the upper envelope (left
// boundary value). Infinite delivery times contribute nothing: an
// unreachable boundary pins its slot's lower contribution at zero and
// the preceding value keeps the upper side honest.
//
// The derived result and the lanes live only for the call: the engine
// keeps the envelopes, nothing else.
func (e *Engine) buildAt(slots int, grid []float64) (*build, error) {
	reMetrics.builds.Inc()
	a, b := e.view.Start(), e.view.End()
	K := e.maxK
	nInt := len(e.sources)
	G := len(grid)
	sb := make([]float64, slots+1)
	for i := 0; i <= slots; i++ {
		sb[i] = a + (b-a)*float64(i)/float64(slots)
	}
	sb[slots] = b

	res, err := core.ComputeView(e.view, core.Options{
		Sources:  e.sources,
		Directed: e.opt.Directed,
		Workers:  e.opt.Workers,
		Ctx:      e.opt.Ctx,
	})
	if err != nil {
		return nil, err
	}
	var pool sync.Pool
	accs := make([]*acc, nInt)
	err = par.DoErrCtx(e.opt.Ctx, nInt, e.opt.Workers, func(si int) error {
		ac := newAcc(K+1, grid)
		accs[si] = ac
		ln, _ := pool.Get().(*lanes)
		if ln == nil {
			ln = &lanes{}
		}
		defer pool.Put(ln)
		ln.derive(res, e.sources, si, K)
		fr, runVal, runStart := ln.fr, ln.runVal, ln.runStart
		for i := 0; i <= slots; i++ {
			t := sb[i]
			for kIdx := 0; kIdx <= K; kIdx++ {
				base := kIdx * nInt
				for d := 0; d < nInt; d++ {
					if d == si {
						continue
					}
					l := base + d
					c, end := ln.cur[l], ln.hi[l]
					for c < end && fr[c].LD < t {
						c++
					}
					ln.cur[l] = c
					v := inf
					if c < end {
						v = max(t, fr[c].EA)
					}
					if i == 0 {
						runVal[l], runStart[l] = v, 0
						continue
					}
					pv := runVal[l]
					if v == pv {
						continue
					}
					// Flush the constant run [s_rs, s_{i-1}] — exact on
					// both sides — then account the jump slot
					// [s_{i-1}, s_i].
					rs := int(runStart[l])
					if rs < i-1 && !math.IsInf(pv, 1) {
						ac.exact(kIdx, pv-sb[i-1], sb[i-1]-sb[rs])
					}
					w := sb[i] - sb[i-1]
					if !math.IsInf(v, 1) {
						ac.lower(kIdx, v-sb[i], w)
					}
					if !math.IsInf(pv, 1) {
						ac.upper(kIdx, pv-sb[i], w)
					}
					runVal[l] = v
					runStart[l] = int32(i)
				}
			}
		}
		// Final flush: runs that extend to the window end.
		for kIdx := 0; kIdx <= K; kIdx++ {
			base := kIdx * nInt
			for d := 0; d < nInt; d++ {
				if d == si {
					continue
				}
				pv := runVal[base+d]
				rs := int(runStart[base+d])
				if rs < slots && !math.IsInf(pv, 1) {
					ac.exact(kIdx, pv-sb[slots], sb[slots]-sb[rs])
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Reduce the per-source accumulators in source order — the totals
	// (hence every envelope value) are independent of worker scheduling —
	// then turn each class's bucketed breakpoints into evaluated curves
	// by a prefix scan over the grid.
	total := make([]float64, (K+1)*4*G)
	var events int64
	for _, ac := range accs {
		for j, v := range ac.buf {
			total[j] += v
		}
		events += ac.events
	}
	bd := &build{
		slots:  slots,
		maxK:   K,
		window: b - a,
		pairs:  nInt * (nInt - 1),
		grid:   append([]float64(nil), grid...),
		lo:     make([][]float64, K+1),
		hi:     make([][]float64, K+1),
	}
	for kIdx := 0; kIdx <= K; kIdx++ {
		base := kIdx * 4 * G
		bd.lo[kIdx] = evalCurve(grid, total[base:base+G], total[base+G:base+2*G])
		bd.hi[kIdx] = evalCurve(grid, total[base+2*G:base+3*G], total[base+3*G:base+4*G])
	}
	reMetrics.events.Add(events)
	return bd, nil
}

// evalCurve turns one bucketed breakpoint set into the measure curve at
// the grid budgets: Σ over breakpoints at or below grid[m] of
// (grid[m] − breakpoint), via running prefix count and value sums.
func evalCurve(grid, cnt, sum []float64) []float64 {
	out := make([]float64, len(grid))
	var pc, ps float64
	for m, d := range grid {
		pc += cnt[m]
		ps += sum[m]
		out[m] = pc*d - ps
	}
	return out
}

// classFor maps a hop bound (core convention: 0 = unbounded) to the
// envelope indexes answering it. Bounds above maxK are answered soundly
// but loosely: the maxK lower envelope under-estimates every larger
// bound's curve, and the unbounded upper envelope over-estimates it.
func (bd *build) classFor(hopBound int) (loIdx, hiIdx int) {
	switch {
	case hopBound <= 0 || hopBound > bd.maxK:
		hiIdx = bd.maxK
		if hopBound <= 0 {
			loIdx = bd.maxK
		} else {
			loIdx = bd.maxK - 1
		}
	default:
		loIdx, hiIdx = hopBound-1, hopBound-1
	}
	return loIdx, hiIdx
}

// boundsInto fills lower/upper with the normalized envelope values of
// the hop class at each grid budget (same normalization as the exact
// tier: pairs × window).
func (bd *build) boundsInto(hopBound int, lower, upper []float64) {
	loIdx, hiIdx := bd.classFor(hopBound)
	norm := float64(bd.pairs) * bd.window
	for i := range bd.grid {
		lower[i] = bd.lo[loIdx][i] / norm
		upper[i] = bd.hi[hiIdx][i] / norm
	}
}
