// Package reach is the certified bounds tier over the exact space-time
// path calculus: a temporal reachability engine in the spirit of
// Whitbeck et al.'s temporal reachability graphs, computing cheap,
// *certified* two-sided bounds on the paper's aggregate quantities
// instead of exact per-pair delivery functions.
//
// The construction slices the observation window into S start-time
// slots. At every slot boundary s_i the engine runs a hop-layered
// temporal relaxation from each source — the min-plus composition of
// per-δ reachability steps, each layer composing one more contact onto
// the reachable set, with exact contact times — which yields the exact
// optimal delivery time del_k(src → dst, s_i) for every hop bound k and
// for unbounded relaying. Because del is non-decreasing in the starting
// time, the two boundary values of a slot sandwich del everywhere inside
// it, and the Lebesgue measure of successful starting times per slot is
// bracketed by two closed forms. Summed over slots, pairs and sources,
// those brackets become lower/upper envelopes of the success curve of
// every hop class — exact wherever del is constant across a slot, with
// slack only in the slots where del jumps.
//
// On top of the envelopes the engine certifies diameter answers: a hop
// bound k definitely passes the (1−ε) criterion when even the lower
// envelope of its curve clears (1−ε) times the upper envelope of the
// unbounded curve, and definitely fails when even its upper envelope
// stays below (1−ε) times the unbounded lower envelope. Both
// certificates imply the exact decision (they fold in the exact
// aggregation's comparison tolerance), so a bracket [lo, hi] always
// contains the exhaustive engine's answer — the guarantee behind the
// daemon's degraded bounds-only answers and cmd/diameter -approx. The
// exact analysis shares only SuccessCurveTol with this package. When
// the slot resolution is too coarse to decide, Refine doubles it up to
// a cap.
//
// Construction is sharded over sources with internal/par (results are
// byte-identical at every worker count), scratch is pooled per the
// internal/core allocation discipline, builds are ctx-cancellable, and
// the layer is obs-instrumented.
package reach

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"opportunet/internal/timeline"
	"opportunet/internal/trace"
)

// SuccessCurveTol is the absolute tolerance under which every
// success-curve comparison in the repository is made: a curve value
// within SuccessCurveTol of a threshold counts as meeting it. The exact
// aggregation (internal/analysis) uses it for the (1−ε)-diameter
// criterion at every site, and the reach certificates fold the same
// tolerance into their pass/fail inequalities — sharing one constant is
// what makes "certificate implies exact decision" hold to the last bit.
const SuccessCurveTol = 1e-12

// Default engine parameters. 64 slots resolve the quick datasets'
// diameters in one build most of the time; refinement quadruples the
// resolution once before the bounds settle for a gap.
const (
	defaultSlots   = 64
	defaultMaxHops = 16
	refineFactor   = 4
)

var inf = math.Inf(1)

// Options parameterizes an Engine.
type Options struct {
	// MaxHops is the largest hop bound the engine keeps a separate
	// reachability layer for; 0 selects the default (16). Queries for
	// larger bounds are answered with sound but looser envelopes (the
	// MaxHops lower envelope and the unbounded upper envelope). The
	// unbounded layer is always exact regardless of MaxHops.
	MaxHops int
	// Slots is the initial start-time slot count; 0 selects the default
	// (64). More slots tighten the envelopes at proportional build cost.
	Slots int
	// MaxSlots caps Refine escalation; 0 selects refineFactor × Slots.
	MaxSlots int
	// Directed treats each contact as usable only in its recorded A→B
	// orientation, mirroring core.Options.Directed.
	Directed bool
	// Workers shards the per-source relaxations; 0 selects GOMAXPROCS.
	// Results are byte-identical at every worker count.
	Workers int
	// Ctx, when non-nil, cancels builds in progress.
	Ctx context.Context
}

// Engine computes reachability envelopes over one timeline view. Methods
// are safe for concurrent use (builds are serialized internally). The
// envelope build is lazy: New is cheap, the first bounds query pays for
// the slot sweep.
type Engine struct {
	view    *timeline.View
	opt     Options
	sources []trace.NodeID // internal devices, increasing
	intIdx  []int32        // node → dense internal index, -1 for external
	maxK    int

	mu    sync.Mutex
	built *build // finest completed build, nil until first query

	// lastBuildNS is the wall-clock cost of the last completed envelope
	// sweep; DiameterBoundsBudget uses it to predict whether another
	// refinement fits a request deadline.
	lastBuildNS atomic.Int64

	inOnce    sync.Once
	lastInEnd []float64 // node → last usable incoming contact end, -Inf if none
}

// HasBuild reports whether the engine already holds a completed build
// for this exact delay grid — i.e. whether envelope queries on it are
// warm reads rather than a fresh slot sweep. Serving layers use it to
// decide whether a degraded bounds answer is available without paying
// for a build.
func (e *Engine) HasBuild(grid []float64) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.built != nil && e.built.sameGrid(grid)
}

// lastIn returns, per node, the largest end time over the contact
// directions that can deliver to it (respecting Directed), or -Inf for a
// node nothing can ever reach. The relaxation's scan cutoff rests on it:
// any contact improving node w ends by lastIn[w], so begins by it too.
func (e *Engine) lastIn() []float64 {
	e.inOnce.Do(func() {
		n := e.view.NumNodes()
		li := make([]float64, n)
		for i := range li {
			li[i] = math.Inf(-1)
		}
		for u := 0; u < n; u++ {
			byBeg, _, _ := e.view.OutgoingIndex(trace.NodeID(u))
			for j := range byBeg {
				ec := &byBeg[j]
				if e.opt.Directed && !ec.Fwd {
					continue
				}
				if ec.End > li[ec.To] {
					li[ec.To] = ec.End
				}
			}
		}
		e.lastInEnd = li
	})
	return e.lastInEnd
}

// New prepares an engine over the view. The aggregation population is
// the same as the exact tier's: all ordered pairs of internal devices,
// with external devices acting only as relays.
func New(v *timeline.View, opt Options) (*Engine, error) {
	if opt.MaxHops <= 0 {
		opt.MaxHops = defaultMaxHops
	}
	if opt.Slots <= 0 {
		opt.Slots = defaultSlots
	}
	if opt.MaxSlots <= 0 {
		opt.MaxSlots = opt.Slots * refineFactor
	}
	internal := v.InternalNodes()
	if len(internal) < 2 {
		return nil, fmt.Errorf("reach: trace %q has %d internal devices, need at least 2", v.Name(), len(internal))
	}
	if v.End() <= v.Start() {
		return nil, fmt.Errorf("reach: trace %q has an empty observation window", v.Name())
	}
	intIdx := make([]int32, v.NumNodes())
	for i := range intIdx {
		intIdx[i] = -1
	}
	for i, u := range internal {
		intIdx[u] = int32(i)
	}
	return &Engine{view: v, opt: opt, sources: internal, intIdx: intIdx, maxK: opt.MaxHops}, nil
}

// MaxHops returns the largest hop bound with a dedicated reachability
// layer.
func (e *Engine) MaxHops() int { return e.maxK }

// Slots returns the slot resolution of the current build (the initial
// resolution before any build or refinement).
func (e *Engine) Slots() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.built != nil {
		return e.built.slots
	}
	return e.opt.Slots
}

// CanReach reports whether a message created on src at time t can reach
// dst within the delay budget, using any number of hops. The answer is
// exact (it runs the layered relaxation from the actual starting time,
// not a slot boundary) and agrees bit-for-bit with the exhaustive
// engine's delivery function: both compute the same min/max compositions
// of the same contact times.
func (e *Engine) CanReach(src, dst trace.NodeID, t, delay float64) bool {
	reMetrics.canReach.Inc()
	if delay < 0 || int(src) < 0 || int(src) >= len(e.intIdx) || int(dst) < 0 || int(dst) >= len(e.intIdx) {
		return false
	}
	if src == dst {
		return true
	}
	sc := getScratch(e.view.NumNodes(), len(e.sources), e.maxK)
	defer putScratch(sc)
	sc.relax(e.view, src, t, 0, nil, e.opt.Directed, e.lastIn())
	return sc.arrCur[dst]-t <= delay
}

// Certifiable reports whether the engine can possibly certify answers
// on this delay grid: a start-time slot at the finest allowed
// resolution must be no wider than the smallest budget, or the lower
// envelopes are pinned near zero at that budget (every slot containing
// any jump contributes nothing below one slot width) and the
// certificates are vacuous. DiameterBounds uses it to stop refining on
// window/grid combinations no allowed resolution can help with — the
// decision depends only on the trace window, the grid and the engine
// options, so it is identical at every worker count.
func (e *Engine) Certifiable(grid []float64) bool {
	if len(grid) == 0 || grid[0] <= 0 {
		return false
	}
	return (e.view.End()-e.view.Start())/grid[0] <= float64(e.opt.MaxSlots)
}

// slotsFor picks the initial slot resolution for a grid: the smallest
// doubling of the configured Slots that makes a slot no wider than the
// smallest budget, so the first build is already at a potentially
// certifying resolution instead of paying for a provably vacuous coarse
// pass first. When the last doubling would overshoot MaxSlots the
// resolution clamps to exactly MaxSlots: Certifiable promised that
// MaxSlots suffices, and stopping a doubling short of it would leave
// slots wider than the smallest budget — the build cost is paid but the
// head of the grid stays undecidable. Grids the engine can never
// certify at any allowed resolution stay at the configured Slots —
// escalating toward an unreachable target would only burn time.
func (e *Engine) slotsFor(grid []float64) int {
	s := e.opt.Slots
	if !e.Certifiable(grid) {
		return s
	}
	need := (e.view.End() - e.view.Start()) / grid[0]
	for float64(s) < need && s < e.opt.MaxSlots {
		s *= 2
		if s > e.opt.MaxSlots {
			s = e.opt.MaxSlots
		}
	}
	return s
}

// ensure returns the current build for the grid, constructing it on
// first use (or when the grid changed since the last build). Callers
// hold e.mu.
func (e *Engine) ensure(grid []float64) (*build, error) {
	if len(grid) == 0 {
		return nil, fmt.Errorf("reach: empty delay grid")
	}
	for i := 1; i < len(grid); i++ {
		if grid[i] < grid[i-1] {
			return nil, fmt.Errorf("reach: delay grid must be sorted ascending")
		}
	}
	if e.built != nil && e.built.sameGrid(grid) {
		return e.built, nil
	}
	bd, err := e.buildAt(e.slotsFor(grid), grid)
	if err != nil {
		return nil, err
	}
	e.built = bd
	return bd, nil
}

// Refine doubles the engine's slot resolution (×2 per call, clamping
// the final step to the MaxSlots cap so the cap itself is reachable),
// rebuilding the envelopes on the current grid, and reports whether a
// finer build was produced. Before any bounds query there is no
// build (and no grid) to refine.
func (e *Engine) Refine() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.built == nil {
		return false
	}
	next := e.built.slots * 2
	if next > e.opt.MaxSlots {
		next = e.opt.MaxSlots
	}
	if next <= e.built.slots {
		return false
	}
	bd, err := e.buildAt(next, e.built.grid)
	if err != nil {
		return false
	}
	reMetrics.refines.Inc()
	e.built = bd
	return true
}
