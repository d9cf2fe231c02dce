// Package reach is the certified bounds tier over the exact space-time
// path calculus: cheap, *certified* two-sided envelopes of the paper's
// aggregate success curves and (1−ε)-diameter, in the spirit of
// Whitbeck et al.'s temporal reachability graphs, instead of exact
// per-pair curves at every budget.
//
// The construction slices the observation window into S start-time
// slots. A build runs the exhaustive engine (core.ComputeView) once
// from the internal devices and reads the exact optimal delivery time
// del_k(src → dst, s_i) at every slot boundary s_i, for every hop bound
// k and for unbounded relaying, off the pair's Pareto frontier of that
// hop class: del_k(s_i) = max(s_i, EA) of the first frontier entry with
// LD ≥ s_i. Because del is non-decreasing in the starting time, the two
// boundary values of a slot sandwich del everywhere inside it, and the
// Lebesgue measure of successful starting times per slot is bracketed
// by two closed forms. Summed over slots, pairs and sources, those
// brackets become lower/upper envelopes of the success curve of every
// hop class — exact wherever del is constant across a slot, with slack
// only in the slots where del jumps.
//
// On top of the envelopes the engine certifies diameter answers: a hop
// bound k definitely passes the (1−ε) criterion when even the lower
// envelope of its curve clears (1−ε) times the upper envelope of the
// unbounded curve, and definitely fails when even its upper envelope
// stays below (1−ε) times the unbounded lower envelope. Both
// certificates imply the exact decision (they fold in the exact
// aggregation's comparison tolerance), so a bracket [lo, hi] always
// contains the exhaustive engine's answer — the guarantee behind
// cmd/diameter -approx. The exact analysis shares only SuccessCurveTol
// with this package. When
// the slot resolution is too coarse to decide, Refine doubles it up to
// a cap.
//
// Construction is sharded over sources with internal/par (results are
// byte-identical at every worker count), the derived core result and
// frontier arenas live only for one build, builds are ctx-cancellable,
// and the layer is obs-instrumented.
package reach

import (
	"context"
	"fmt"
	"math"
	"sync"

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
	// envelope class for; 0 selects the default (16). Queries for
	// larger bounds are answered with sound but looser envelopes (the
	// MaxHops lower envelope and the unbounded upper envelope). The
	// unbounded class is always exact regardless of MaxHops.
	MaxHops int
	// Slots is the initial start-time slot count; 0 selects the default
	// (64). More slots tighten the envelopes at proportional build cost.
	Slots int
	// MaxSlots caps Refine escalation; 0 selects refineFactor × Slots.
	MaxSlots int
	// Directed treats each contact as usable only in its recorded A→B
	// orientation, mirroring core.Options.Directed.
	Directed bool
	// Workers shards the core computation and the per-source slot
	// sweeps; 0 selects GOMAXPROCS. Results are byte-identical at every
	// worker count.
	Workers int
	// Ctx, when non-nil, cancels builds in progress.
	Ctx context.Context
}

// Engine computes reachability envelopes over one timeline view. Methods
// are safe for concurrent use (builds are serialized internally). The
// envelope build is lazy: New is cheap, the first bounds query pays for
// the exhaustive computation and the slot sweep. Between builds the
// engine holds only the finished envelopes.
type Engine struct {
	view    *timeline.View
	opt     Options
	sources []trace.NodeID // internal devices, increasing
	maxK    int

	mu    sync.Mutex
	built *build // finest completed build, nil until first query
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
	return &Engine{view: v, opt: opt, sources: internal, maxK: opt.MaxHops}, nil
}

// MaxHops returns the largest hop bound with a dedicated envelope
// class.
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
