// Package analysis turns core path computations into the paper's
// empirical quantities: the aggregated delay CDFs of Figure 9/10/11, the
// (1−ε)-diameter of §4.1, the diameter-as-a-function-of-delay curve of
// Figure 12, the data-set summaries of Table 1, and the contact-removal
// studies of §6.
//
// Every probability is the paper's: an empirical success ratio over all
// ordered internal (source, destination) pairs with the starting time
// uniform over the observation window, with unreachable cases counted in
// the denominator. The integration over starting times is exact — the
// delivery functions are piecewise, so no per-second enumeration is
// needed.
//
// The per-pair loops behind every aggregate fan out across the worker
// count carried by core.Options. Parallel results are byte-identical to
// a serial run: each pair's contribution is computed into its own slot
// and the floating-point reductions always run in pair order. A Study's
// methods are safe for concurrent use; the frontier memo and the
// success-curve cache are guarded internally.
//
// Cancellation: a Study inherits core.Options.Ctx. Once that context is
// done, the aggregation loops stop handing out pairs, nothing further is
// cached, and methods without an error return yield incomplete values —
// callers that share a cancellable context must check Study.Err() (or
// the context) before using results. Constructors and the removal
// studies return ctx.Err() directly, the same error at every worker
// count.
package analysis

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"
	"sync"

	"opportunet/internal/core"
	"opportunet/internal/flood"
	"opportunet/internal/par"
	"opportunet/internal/reach"
	"opportunet/internal/rng"
	"opportunet/internal/timeline"
	"opportunet/internal/trace"
)

// Unbounded selects the no-hop-limit class in hop-bound lists.
const Unbounded = 0

// Study wraps one timeline view with its exhaustive path computation and
// caches per-hop-bound frontiers for the pair set under analysis.
type Study struct {
	// Trace is the materialized trace the study was built from; it is nil
	// when the study was built directly over a derived timeline view
	// (NewStudyView), so metadata reads go through View.
	Trace *trace.Trace
	// View is the timeline view the paths were computed over; always set.
	View   *timeline.View
	Result *core.Result
	// Pairs are the ordered (source, destination) pairs aggregated over:
	// all ordered pairs of internal devices. External devices still act
	// as relays inside paths.
	Pairs [][2]trace.NodeID

	workers int
	ctx     context.Context

	// state holds the caches shared between a study and its WithContext
	// handles. A Study value is therefore safe to shallow-copy — handles
	// alias the same warm state.
	state *studyState
}

// studyState is the cache layer shared by every handle over one study:
// the frontier memo and the success-curve cache. Cancelled aggregations
// never write to it, so handles with short-lived request contexts can
// hammer a shared warm study without poisoning the caches for each
// other.
type studyState struct {
	mu        sync.Mutex
	frontiers map[int][]core.Frontier // memo bound -> frontier per pair
	curves    map[curveKey][]float64  // (memo bound, grid, window) -> summed success measure

	// sorted holds every pair's archive sorted by (LD, EA, Hop), pair i
	// at sorted[pairOff[i]:pairOff[i+1]] (Delta == 0 only). Built on
	// the first frontier miss, dropped by ClearCaches.
	sorted []core.Entry

	// pairOff is the arena offset table for per-pair frontier building
	// (Delta == 0 only): pair i's slot is arena[pairOff[i]:pairOff[i+1]],
	// sized by the pair's archive length. Computed once per study — it
	// depends only on the immutable Result — and deliberately survives
	// ClearCaches.
	pairOff []int
}

// NewStudy computes optimal paths for all internal sources of the trace
// and prepares aggregation over all ordered internal pairs. opt.Sources
// is overridden with the internal device set; opt.Workers parallelizes
// both the path computation and this study's aggregation loops.
func NewStudy(tr *trace.Trace, opt core.Options) (*Study, error) {
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	s, err := NewStudyView(timeline.New(tr).All(), opt)
	if err != nil {
		return nil, err
	}
	s.Trace = tr
	return s, nil
}

// NewStudyView is NewStudy over a timeline view: removal studies derive
// many views of one shared base index and analyze each without
// re-sorting or copying the trace. The view is assumed to come from a
// validated trace.
func NewStudyView(v *timeline.View, opt core.Options) (*Study, error) {
	internal := v.InternalNodes()
	if len(internal) < 2 {
		return nil, fmt.Errorf("analysis: trace %q has %d internal devices, need at least 2", v.Name(), len(internal))
	}
	opt.Sources = internal
	res, err := core.ComputeView(v, opt)
	if err != nil {
		return nil, err
	}
	s := &Study{
		View:    v,
		Result:  res,
		workers: opt.Workers,
		ctx:     opt.Ctx,
		state:   newStudyState(),
	}
	for _, a := range internal {
		for _, b := range internal {
			if a != b {
				s.Pairs = append(s.Pairs, [2]trace.NodeID{a, b})
			}
		}
	}
	return s, nil
}

// NewStudyResult wraps an already computed core.Result — typically the
// output of an incremental core.Engine.Extend pass during streaming
// ingestion — into a Study over the same view, skipping the path
// computation NewStudyView would redo from scratch. The result must
// cover every internal device of the view as a source (Extend with
// Options.Sources set to v.InternalNodes() does); opt carries the
// worker count and context the aggregations use, and must match the
// options the result was computed under for the aggregates to mean
// anything.
func NewStudyResult(v *timeline.View, res *core.Result, opt core.Options) (*Study, error) {
	internal := v.InternalNodes()
	if len(internal) < 2 {
		return nil, fmt.Errorf("analysis: trace %q has %d internal devices, need at least 2", v.Name(), len(internal))
	}
	if res == nil {
		return nil, fmt.Errorf("analysis: nil result")
	}
	covered := make(map[trace.NodeID]bool, len(res.Sources()))
	for _, src := range res.Sources() {
		covered[src] = true
	}
	for _, a := range internal {
		if !covered[a] {
			return nil, fmt.Errorf("analysis: result does not cover internal source %d", a)
		}
	}
	s := &Study{
		View:    v,
		Result:  res,
		workers: opt.Workers,
		ctx:     opt.Ctx,
		state:   newStudyState(),
	}
	for _, a := range internal {
		for _, b := range internal {
			if a != b {
				s.Pairs = append(s.Pairs, [2]trace.NodeID{a, b})
			}
		}
	}
	return s, nil
}

func newStudyState() *studyState {
	return &studyState{
		frontiers: make(map[int][]core.Frontier),
		curves:    make(map[curveKey][]float64),
	}
}

// WithContext returns a handle over the same study whose aggregation
// loops observe ctx instead of the construction context. The handle
// aliases the underlying result, frontier memo and curve cache, so a
// warm study can serve many concurrent requests each with its own
// deadline: a call cancelled through any handle returns incomplete
// values uncached (check Err), leaving the shared caches exactly as a
// never-started call would.
func (s *Study) WithContext(ctx context.Context) *Study {
	clone := *s
	clone.ctx = ctx
	return &clone
}

// Err reports the study's cancellation state: the context error when
// the context carried by core.Options is done, nil otherwise. After any
// aggregation call, a non-nil Err means that call's results are
// incomplete and must be discarded.
func (s *Study) Err() error {
	if s.ctx != nil {
		return s.ctx.Err()
	}
	return nil
}

// pairOffsets returns (computing on first use) the arena offset table
// for per-pair frontier slots: prefix sums of every pair's archive
// length, in pair order.
func (s *Study) pairOffsets() []int {
	st := s.state
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.pairOff == nil {
		off := make([]int, len(s.Pairs)+1)
		for i, p := range s.Pairs {
			off[i+1] = off[i] + s.Result.PairArchiveLen(p[0], p[1])
		}
		st.pairOff = off
	}
	return st.pairOff
}

// memoBound maps a hop bound to the key its frontiers and curves are
// memoized under. No archived summary uses more than Result.Hops
// contacts, so every bound k >= Hops selects exactly the unbounded
// class, as k <= 0 does; keying each such k apart would keep a copy of
// the unbounded frontiers per bound. Outputs keep the requested bound.
func (s *Study) memoBound(hopBound int) int {
	if hopBound <= 0 || hopBound >= s.Result.Hops {
		return Unbounded
	}
	return hopBound
}

// sortedArchives returns (sorting on first use) every analyzed pair's
// archive sorted by (LD, EA, Hop), in one arena laid out by
// pairOffsets, for the Delta == 0 model. The arena is as large as all
// archives together and lives until ClearCaches. A sort cancelled
// through the study context returns ok false and is never kept.
func (s *Study) sortedArchives() (sorted []core.Entry, ok bool) {
	st := s.state
	st.mu.Lock()
	sorted = st.sorted
	st.mu.Unlock()
	if sorted != nil {
		return sorted, true
	}
	off := s.pairOffsets()
	sorted = make([]core.Entry, off[len(s.Pairs)])
	if err := par.DoCtx(s.ctx, len(s.Pairs), s.workers, func(i int) {
		p := s.Pairs[i]
		s.Result.SortedArchiveInto(p[0], p[1], sorted[off[i]:off[i+1]])
	}); err != nil {
		return nil, false
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.sorted == nil {
		st.sorted = sorted
	}
	return st.sorted, true
}

// frontiersFor returns (building and caching on first use) the frontier
// of every analyzed pair under the given hop bound, memoized under
// memoBound. For the Delta == 0 model every pair's archive is sorted
// once per study (sortedArchives); each bound's frontiers are then a
// filter-and-sweep of it into an archive-sized scratch arena, compacted
// into an exact-size one (compactFrontiers): three allocations per hop
// bound with the frontier slice. Each pair owns a disjoint slot, so the
// parallel build stays race-free and byte-identical at every worker
// count. It is safe for concurrent use;
// when two goroutines race on an uncached bound, both build the same
// deterministic value and one copy wins. When the study's context is
// cancelled mid-build, the incomplete slice is returned uncached —
// Err() tells callers to discard it.
func (s *Study) frontiersFor(hopBound int) []core.Frontier {
	hopBound = s.memoBound(hopBound)
	st := s.state
	st.mu.Lock()
	if fs, ok := st.frontiers[hopBound]; ok {
		st.mu.Unlock()
		anMetrics.memoHits.Inc()
		return fs
	}
	st.mu.Unlock()
	anMetrics.memoMisses.Inc()
	fs := make([]core.Frontier, len(s.Pairs))
	var build func(i int)
	if s.Result.Delta == 0 {
		sorted, ok := s.sortedArchives()
		if !ok {
			return fs
		}
		off := s.pairOffsets()
		scratch := make([]core.Entry, off[len(s.Pairs)])
		build = func(i int) {
			fs[i] = core.FrontierFromSorted(sorted[off[i]:off[i+1]], hopBound, scratch[off[i]:off[i+1]])
		}
	} else {
		build = func(i int) {
			p := s.Pairs[i]
			fs[i] = s.Result.Frontier(p[0], p[1], hopBound)
		}
	}
	if err := par.DoCtx(s.ctx, len(s.Pairs), s.workers, build); err != nil {
		return fs
	}
	if s.Result.Delta == 0 {
		compactFrontiers(fs)
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if prev, ok := st.frontiers[hopBound]; ok {
		return prev
	}
	st.frontiers[hopBound] = fs
	return fs
}

// compactFrontiers moves frontiers swept into archive-sized slots into
// one arena of exactly their total length, each capacity-capped: the
// memo keeps a bound's frontiers for the study's life, and they fill
// only a fraction of the archive (1–41% on the quick datasets).
func compactFrontiers(fs []core.Frontier) {
	n := 0
	for _, f := range fs {
		n += len(f.Entries)
	}
	arena := make([]core.Entry, 0, n)
	for i, f := range fs {
		if len(f.Entries) == 0 {
			continue
		}
		start := len(arena)
		arena = append(arena, f.Entries...)
		fs[i].Entries = arena[start:len(arena):len(arena)]
	}
}

// ClearCaches drops the memoized frontiers, the sorted archives and the
// success curves. Results are unaffected — the caches rebuild on
// demand. Exposed for releasing memory after a study has been mined,
// and for benchmarks that need to time the aggregation work itself.
func (s *Study) ClearCaches() {
	st := s.state
	st.mu.Lock()
	defer st.mu.Unlock()
	st.frontiers = make(map[int][]core.Frontier)
	st.sorted = nil
	st.curves = make(map[curveKey][]float64)
}

// curveKey identifies one cached success curve: the hop bound, the
// starting-time window, and a fingerprint of the delay grid values.
type curveKey struct {
	hopBound int
	a, b     float64
	gridLen  int
	gridHash uint64
}

func makeCurveKey(hopBound int, grid []float64, a, b float64) curveKey {
	// Inline FNV-1a over the grid's float bits: hashing a few dozen
	// floats should not allocate a hasher per (cached!) curve lookup.
	const offset64, prime64 = uint64(14695981039346656037), uint64(1099511628211)
	h := offset64
	for _, g := range grid {
		bits := math.Float64bits(g)
		for i := 0; i < 8; i++ {
			h ^= uint64(byte(bits >> (8 * i)))
			h *= prime64
		}
	}
	return curveKey{hopBound: hopBound, a: a, b: b, gridLen: len(grid), gridHash: h}
}

// curveBufPool recycles the per-pair integration buffer of successCurve
// across hop bounds, windows, and — because the pool is package-level —
// across the studies of a removal study's repetitions. The buffer is a
// single flat pairs × grid array: one allocation (amortized zero when
// pooled) instead of one row slice per pair per integration.
var curveBufPool sync.Pool

func getCurveBuf(need int) []float64 {
	if p, _ := curveBufPool.Get().(*[]float64); p != nil && cap(*p) >= need {
		anMetrics.curveBufWarm.Inc()
		buf := (*p)[:need]
		clear(buf) // cancelled integrations must read zeros, as a fresh make would
		return buf
	}
	return make([]float64, need)
}

func putCurveBuf(buf []float64) {
	curveBufPool.Put(&buf)
}

// curveScratch lends one pooled integration buffer to every curve-cache
// miss of a call, taking it from the pool on the first miss only: a
// multi-bound aggregation cycles one buffer through its bounds instead
// of through the pool per bound, and a fully warm call takes none.
// Every miss of one call integrates the same pairs × grid.
type curveScratch struct{ buf []float64 }

func (c *curveScratch) get(need int) []float64 {
	if c.buf == nil {
		c.buf = getCurveBuf(need)
	} else {
		clear(c.buf) // cancelled integrations must read zeros
	}
	return c.buf
}

func (c *curveScratch) release() {
	if c.buf != nil {
		putCurveBuf(c.buf)
	}
}

// successCurve returns, for each budget in grid, the sum over all pairs
// of the SuccessWithin measure on window [a, b] — the unnormalized
// success curve every diameter and CDF computation integrates. Curves
// are cached per (memo bound, grid, window), so Diameter,
// DiameterAtDelay, DiameterVsEpsilon and DelayCDFs share one
// integration per hop bound. Callers must not modify the returned
// slice.
func (s *Study) successCurve(hopBound int, grid []float64, a, b float64) []float64 {
	var sc curveScratch
	defer sc.release()
	return s.successCurveBuf(hopBound, grid, a, b, &sc)
}

// successCurveBuf is successCurve drawing its pairs × grid integration
// buffer from sc. On a cache miss each pair's curve is one
// core.Frontier.SuccessCurve pass over the ascending budgets: an
// unsorted grid is integrated as a stably sorted copy and scattered
// back through the permutation, so the cache key stays the grid as
// given. The per-pair integrations fan out across workers; the
// reduction runs in pair order, so the curve is byte-identical at every
// worker count and to a per-budget SuccessWithin loop.
func (s *Study) successCurveBuf(hopBound int, grid []float64, a, b float64, sc *curveScratch) []float64 {
	hopBound = s.memoBound(hopBound)
	key := makeCurveKey(hopBound, grid, a, b)
	st := s.state
	st.mu.Lock()
	if c, ok := st.curves[key]; ok {
		st.mu.Unlock()
		anMetrics.curveHits.Inc()
		return c
	}
	st.mu.Unlock()
	anMetrics.curveMisses.Inc()

	fs := s.frontiersFor(hopBound)
	budgets, perm := grid, []int(nil)
	if !slices.IsSorted(grid) {
		perm = make([]int, len(grid))
		for i := range perm {
			perm[i] = i
		}
		slices.SortStableFunc(perm, func(i, j int) int { return cmp.Compare(grid[i], grid[j]) })
		budgets = make([]float64, len(grid))
		for j, i := range perm {
			budgets[j] = grid[i]
		}
	}
	ng := len(grid)
	flat := sc.get(len(fs) * ng)
	cancelled := par.DoCtx(s.ctx, len(fs), s.workers, func(i int) {
		fs[i].SuccessCurve(budgets, a, b, flat[i*ng:(i+1)*ng])
	}) != nil
	sum := make([]float64, ng)
	for i := 0; i < len(fs); i++ {
		row := flat[i*ng : (i+1)*ng]
		for gi, v := range row {
			sum[gi] += v
		}
	}
	if perm != nil {
		sorted := sum
		sum = make([]float64, ng)
		for j, i := range perm {
			sum[i] = sorted[j]
		}
	}
	if cancelled {
		// Incomplete integration: hand it back uncached so a later
		// (uncancelled) caller rebuilds the true curve.
		return sum
	}

	st.mu.Lock()
	defer st.mu.Unlock()
	if prev, ok := st.curves[key]; ok {
		return prev
	}
	st.curves[key] = sum
	return sum
}

// successProbs returns the normalized success curve: successCurve
// divided by pairs · window. The returned slice is freshly allocated.
func (s *Study) successProbs(hopBound int, grid []float64, a, b float64) []float64 {
	return s.normalize(s.successCurve(hopBound, grid, a, b), a, b)
}

func (s *Study) normalize(sum []float64, a, b float64) []float64 {
	out := make([]float64, len(sum))
	norm := float64(len(s.Pairs)) * (b - a)
	for i, v := range sum {
		out[i] = v / norm
	}
	return out
}

// SuccessProbability returns P[a message between a uniform ordered
// internal pair, created at a uniform time in the window, is delivered
// within delay d using at most hopBound hops] (hopBound 0 = unbounded).
func (s *Study) SuccessProbability(d float64, hopBound int) float64 {
	a, b := s.View.Start(), s.View.End()
	if b <= a {
		return 0
	}
	fs := s.frontiersFor(hopBound)
	vals := make([]float64, len(fs))
	par.DoCtx(s.ctx, len(fs), s.workers, func(i int) {
		vals[i] = fs[i].SuccessWithin(d, a, b)
	})
	sum := 0.0
	for _, v := range vals {
		sum += v
	}
	return sum / (float64(len(fs)) * (b - a))
}

// DelayCDF is the empirical CDF of the optimal delay for one hop-bound
// class, evaluated on a grid of delay budgets (one curve of Figure 9).
type DelayCDF struct {
	HopBound int // 0 = unbounded
	Grid     []float64
	Success  []float64
}

// DelayCDFs evaluates the success probability on the grid for each hop
// bound (Figures 9–11). Bounds are evaluated in the order given.
func (s *Study) DelayCDFs(hopBounds []int, grid []float64) []DelayCDF {
	return s.DelayCDFsWindow(hopBounds, grid, s.View.Start(), s.View.End())
}

// DelayCDFsWindow restricts the starting times to [a, b] — e.g. daytime
// only, as in the paper's §5.3.1 remark that the multi-hop improvement
// during the day correlates with the contact rate. Paths may still use
// contacts after b.
func (s *Study) DelayCDFsWindow(hopBounds []int, grid []float64, a, b float64) []DelayCDF {
	// One flat integration buffer serves every hop bound of the call.
	var sc curveScratch
	defer sc.release()
	out := make([]DelayCDF, len(hopBounds))
	for i, k := range hopBounds {
		out[i] = DelayCDF{HopBound: k, Grid: grid, Success: s.normalize(s.successCurveBuf(k, grid, a, b, &sc), a, b)}
	}
	return out
}

// Diameter returns the (1−ε)-diameter of §4.1 evaluated on the delay
// grid: the smallest hop bound k such that, for every budget d in the
// grid, the success probability within k hops is at least (1−ε) times
// the unbounded success probability. The second return value reports the
// per-budget worst ratio of the returned k (diagnostics).
func (s *Study) Diameter(eps float64, grid []float64) (int, float64) {
	a, b := s.View.Start(), s.View.End()
	ref := s.successProbs(Unbounded, grid, a, b)
	maxK := s.Result.Hops
	for k := 1; k <= maxK && s.Err() == nil; k++ {
		cur := s.successProbs(k, grid, a, b)
		worst := 1.0
		ok := true
		for i := range grid {
			if ref[i] <= 0 {
				continue
			}
			ratio := cur[i] / ref[i]
			if ratio < worst {
				worst = ratio
			}
			if cur[i]+reach.SuccessCurveTol < (1-eps)*ref[i] {
				ok = false
			}
		}
		if ok {
			return k, worst
		}
	}
	return maxK, 0
}

// DiameterVsEpsilon returns the (1−ε)-diameter for each confidence
// parameter in eps, sharing one set of per-hop success curves. The
// diameter is monotone non-increasing in ε: demanding a larger share of
// flooding's success can only require more hops. This sweep quantifies
// how much of the headline number rides on the strictness of the 99%
// criterion.
func (s *Study) DiameterVsEpsilon(eps []float64, grid []float64) []int {
	a, b := s.View.Start(), s.View.End()
	out := make([]int, len(eps))
	for i := range out {
		out[i] = -1
	}
	ref := s.successProbs(Unbounded, grid, a, b)
	remaining := len(eps)
	for k := 1; k <= s.Result.Hops && remaining > 0 && s.Err() == nil; k++ {
		cur := s.successProbs(k, grid, a, b)
		worst := 1.0
		for gi := range grid {
			if ref[gi] <= 0 {
				continue
			}
			if r := cur[gi] / ref[gi]; r < worst {
				worst = r
			}
		}
		for i, e := range eps {
			if out[i] < 0 && worst+reach.SuccessCurveTol >= 1-e {
				out[i] = k
				remaining--
			}
		}
	}
	for i := range out {
		if out[i] < 0 {
			out[i] = s.Result.Hops
		}
	}
	return out
}

// DiameterAtDelay returns, for every budget d in the grid, the smallest
// hop bound achieving (1−ε) of the unbounded success at that single
// budget — the curve of Figure 12.
func (s *Study) DiameterAtDelay(eps float64, grid []float64) []int {
	a, b := s.View.Start(), s.View.End()
	ref := s.successProbs(Unbounded, grid, a, b)
	out := make([]int, len(grid))
	remaining := len(grid)
	for i := range out {
		out[i] = -1
		if ref[i] <= 0 {
			out[i] = 0 // nothing succeeds at this budget at all
			remaining--
		}
	}
	for k := 1; k <= s.Result.Hops && remaining > 0 && s.Err() == nil; k++ {
		cur := s.successProbs(k, grid, a, b)
		for i := range grid {
			if out[i] < 0 && cur[i]+reach.SuccessCurveTol >= (1-eps)*ref[i] {
				out[i] = k
				remaining--
			}
		}
	}
	for i := range out {
		if out[i] < 0 {
			out[i] = s.Result.Hops
		}
	}
	return out
}

// MinDelayDist collects, over all pairs, the minimum achievable delay
// within the window for the given hop bound (+Inf when a pair is never
// connected) — a compact connectivity summary.
func (s *Study) MinDelayDist(hopBound int) []float64 {
	a, b := s.View.Start(), s.View.End()
	fs := s.frontiersFor(hopBound)
	out := make([]float64, len(fs))
	par.DoCtx(s.ctx, len(fs), s.workers, func(i int) {
		out[i] = fs[i].MinDelay(a, b)
	})
	return out
}

// DeliveryExample is Figure 8's subject: one source-destination pair with
// the frontier (delivery function representation) for each hop bound.
type DeliveryExample struct {
	Src, Dst  trace.NodeID
	HopBounds []int
	Frontiers []core.Frontier
}

// FindDeliveryExample looks for a pair whose connectivity requires at
// least minHops relays (no path with fewer hops exists at any time), as
// in Figure 8 where a Hong-Kong pair has no path below 3 hops. It
// returns the first such pair with the frontiers for bounds 1..maxBound
// and unbounded, or an error if no pair needs that many hops.
func (s *Study) FindDeliveryExample(minHops, maxBound int) (*DeliveryExample, error) {
	for _, p := range s.Pairs {
		mh := s.Result.MinHops(p[0], p[1])
		if mh != minHops {
			continue
		}
		ex := &DeliveryExample{Src: p[0], Dst: p[1]}
		for k := 1; k <= maxBound; k++ {
			ex.HopBounds = append(ex.HopBounds, k)
			ex.Frontiers = append(ex.Frontiers, s.Result.Frontier(p[0], p[1], k))
		}
		ex.HopBounds = append(ex.HopBounds, Unbounded)
		ex.Frontiers = append(ex.Frontiers, s.Result.Frontier(p[0], p[1], Unbounded))
		return ex, nil
	}
	return nil, fmt.Errorf("analysis: no pair with minimal hop count %d", minHops)
}

// AverageCDFs averages success curves from repeated experiments
// (Figure 10 averages 5 independent removals). All inputs must share the
// same grid and hop bound layout.
func AverageCDFs(runs [][]DelayCDF) ([]DelayCDF, error) {
	if len(runs) == 0 {
		return nil, fmt.Errorf("analysis: no runs to average")
	}
	base := runs[0]
	out := make([]DelayCDF, len(base))
	for i := range base {
		out[i] = DelayCDF{HopBound: base[i].HopBound, Grid: base[i].Grid, Success: make([]float64, len(base[i].Success))}
	}
	for _, run := range runs {
		if len(run) != len(base) {
			return nil, fmt.Errorf("analysis: run shape mismatch")
		}
		for i := range run {
			if run[i].HopBound != base[i].HopBound || len(run[i].Success) != len(base[i].Success) {
				return nil, fmt.Errorf("analysis: run %d layout mismatch", i)
			}
			for j, v := range run[i].Success {
				out[i].Success[j] += v
			}
		}
	}
	for i := range out {
		for j := range out[i].Success {
			out[i].Success[j] /= float64(len(runs))
		}
	}
	return out, nil
}

// RandomRemovalStudy applies the §6.1 treatment: remove each contact
// independently with probability p, analyze, and average over reps
// repetitions. It returns the averaged CDFs and the per-repetition
// diameters.
//
// The repetitions fan out across opt.Workers. Each repetition's RNG
// stream is split from the seed in repetition order before the fan-out,
// so the removals — and therefore the averaged curves and diameters —
// are byte-identical to a serial run at any worker count.
func RandomRemovalStudy(tr *trace.Trace, p float64, reps int, seed uint64, opt core.Options, hopBounds []int, grid []float64, eps float64) ([]DelayCDF, []int, error) {
	return RandomRemovalStudyView(timeline.New(tr).All(), p, reps, seed, opt, hopBounds, grid, eps)
}

// RandomRemovalStudyView is RandomRemovalStudy over a timeline view:
// every repetition derives a keep-mask view of the same base index, so
// the per-rep work filters pre-sorted arrays instead of re-sorting and
// re-indexing a trace copy. Each repetition consumes one Bernoulli draw
// per kept contact in trace order — exactly the stream consumption of
// trace.RemoveRandom — so results are bit-identical to the trace-based
// path.
func RandomRemovalStudyView(v *timeline.View, p float64, reps int, seed uint64, opt core.Options, hopBounds []int, grid []float64, eps float64) ([]DelayCDF, []int, error) {
	if reps < 1 {
		return nil, nil, fmt.Errorf("analysis: need at least one repetition")
	}
	r := rng.New(seed)
	streams := make([]*rng.Source, reps)
	for rep := range streams {
		streams[rep] = r.Split()
	}
	// Derive the per-rep views serially: each RemoveRandom consumes its
	// own pre-split stream, keeping the removals independent of both the
	// worker count and the fan-out order.
	cuts := make([]*timeline.View, reps)
	for rep := range cuts {
		cuts[rep] = v.RemoveRandom(p, streams[rep])
	}
	runs := make([][]DelayCDF, reps)
	diameters := make([]int, reps)
	err := par.DoErrCtx(opt.Ctx, reps, opt.Workers, func(rep int) error {
		st, err := NewStudyView(cuts[rep], opt)
		if err != nil {
			return err
		}
		runs[rep] = st.DelayCDFs(hopBounds, grid)
		d, _ := st.Diameter(eps, grid)
		diameters[rep] = d
		// A cancellation mid-aggregation leaves this rep's curves
		// incomplete; surface it so the averaged study is never built
		// from partial integrations.
		return st.Err()
	})
	if err != nil {
		return nil, nil, err
	}
	avg, err := AverageCDFs(runs)
	return avg, diameters, err
}

// DurationThresholdStudy applies the §6.2 treatment: drop every contact
// shorter than the threshold, then analyze. It returns the study over
// the filtered trace and the fraction of contacts removed.
func DurationThresholdStudy(tr *trace.Trace, threshold float64, opt core.Options) (*Study, float64, error) {
	return DurationThresholdStudyView(timeline.New(tr).All(), threshold, opt)
}

// DurationThresholdStudyView is DurationThresholdStudy over a timeline
// view, deriving the thresholded view from the shared base index. The
// removed fraction is relative to the input view's contact count.
func DurationThresholdStudyView(v *timeline.View, threshold float64, opt core.Options) (*Study, float64, error) {
	cut := v.MinDuration(threshold)
	removed := 1 - float64(cut.NumContacts())/math.Max(1, float64(v.NumContacts()))
	st, err := NewStudyView(cut, opt)
	if err != nil {
		return nil, 0, err
	}
	return st, removed, nil
}

// SelfCheck validates a study's engine results against an independent
// event-driven flooding simulation at `probes` random (source, starting
// time) points, covering every destination each time. It returns an
// error describing the first disagreement — which would indicate a bug,
// never expected in normal operation. Exposed so tools can offer
// first-party verification on user traces. The per-destination checks of
// each probe fan out across workers; the probe points themselves are
// drawn serially from the seed, so the probe sequence (and any reported
// disagreement) is identical at every worker count.
func (s *Study) SelfCheck(probes int, seed uint64) error {
	fl := flood.NewView(s.View, flood.Options{})
	r := rng.New(seed)
	internal := s.View.InternalNodes()
	errs := make([]error, len(internal))
	for i := 0; i < probes; i++ {
		if err := s.Err(); err != nil {
			return err
		}
		src := internal[r.Intn(len(internal))]
		t0 := s.View.Start() + r.Uniform(0, s.View.Duration())
		arr := fl.EarliestDelivery(src, t0)
		if err := par.DoCtx(s.ctx, len(internal), s.workers, func(j int) {
			dst := internal[j]
			errs[j] = nil
			if dst == src {
				return
			}
			got := s.Result.Frontier(src, dst, Unbounded).Del(t0)
			want := arr[dst]
			if math.IsInf(got, 1) != math.IsInf(want, 1) ||
				(!math.IsInf(got, 1) && math.Abs(got-want) > 1e-6) {
				errs[j] = fmt.Errorf("analysis: self-check failed: pair (%d, %d) at t=%v: engine %v, flooding %v",
					src, dst, t0, got, want)
			}
		}); err != nil {
			return err
		}
		if err := par.First(errs); err != nil {
			return err
		}
	}
	return nil
}

// DatasetSummary is one row of Table 1.
type DatasetSummary struct {
	Name             string
	DurationDays     float64
	Granularity      float64
	InternalDevices  int
	InternalContacts int
	// InternalRate is the average number of internal contacts per
	// internal device per day.
	InternalRate    float64
	ExternalDevices int
	// ExternalContacts counts contacts touching an external device.
	ExternalContacts int
	// TotalRate includes external contacts.
	TotalRate float64
}

// Summarize computes the Table 1 row for a trace.
func Summarize(tr *trace.Trace) DatasetSummary {
	s := DatasetSummary{
		Name:            tr.Name,
		DurationDays:    tr.Duration() / 86400,
		Granularity:     tr.Granularity,
		InternalDevices: tr.NumInternal(),
		ExternalDevices: tr.NumNodes() - tr.NumInternal(),
	}
	internal := tr.InternalOnly()
	s.InternalContacts = len(internal.Contacts)
	s.ExternalContacts = len(tr.Contacts) - s.InternalContacts
	s.InternalRate = internal.RateOfContact()
	s.TotalRate = tr.RateOfContact()
	return s
}
