package server

import (
	"fmt"
	"sync"
	"time"

	"opportunet/internal/analysis"
	"opportunet/internal/core"
	"opportunet/internal/stats"
	"opportunet/internal/timeline"
	"opportunet/internal/trace"
)

// maxGridPoints caps the per-request delay-grid resolution: a query
// cannot make the server integrate over an arbitrarily fine grid.
const maxGridPoints = 512

// maxReachSlots caps ReachSlotBudget: beyond it an envelope build costs
// more than it saves.
const maxReachSlots = 8192

// Dataset is one warm, query-ready dataset in the daemon's registry:
// the timeline index and the exhaustive path computation wrapped in an
// analysis.Study, whose frontier memo and curve cache make repeated
// queries cheap. All fields are read-only after LoadDataset; the Study
// serializes its own internal state, so a Dataset serves concurrent
// requests without further locking.
type Dataset struct {
	Name  string
	View  *timeline.View
	Study *analysis.Study

	// DefaultPoints and DefaultEps parameterize the default grid and
	// confidence. LoadDataset answers the default /v1/diameter and
	// /v1/delaycdf once, so the curves those queries read are cached
	// from boot.
	DefaultPoints int
	DefaultEps    float64

	// Diameter is the exact (1−ε)-diameter at DefaultEps on the default
	// grid, computed at load.
	Diameter int

	// LoadTime is how long the full load (paths + default queries) took.
	LoadTime time.Duration

	opt      core.Options
	servable []bool // node → usable as src/dst (computed internal source)

	gridMu sync.Mutex
	grids  map[int][]float64 // points → memoized delay grid
}

// LoadOptions parameterizes LoadDataset.
type LoadOptions struct {
	// Core carries Workers, Directed, TransmitDelay and MaxHops. Its Ctx
	// only cancels the load: each request runs under its own context.
	Core core.Options
	// Points is the default delay-grid resolution (0 = 60, the
	// repo-wide default); Eps the default diameter confidence (0 = 0.01).
	Points int
	Eps    float64
}

// LoadDataset computes the full path archive for a trace and wraps it
// into a warm Dataset. The expensive work happens here, once: the
// exhaustive paths, then the default-grid diameter and the default-hop
// delay CDFs, so requests only ever read warm state or run bounded
// incremental aggregation. A load whose context is cancelled part-way
// fails with the context's error.
func LoadDataset(tr *trace.Trace, lo LoadOptions) (*Dataset, error) {
	if lo.Points <= 0 {
		lo.Points = 60
	}
	if lo.Points > maxGridPoints {
		lo.Points = maxGridPoints
	}
	if lo.Eps <= 0 {
		lo.Eps = 0.01
	}
	start := time.Now()
	st, err := analysis.NewStudy(tr, lo.Core)
	if err != nil {
		return nil, err
	}
	ds := &Dataset{
		Name:          tr.Name,
		View:          st.View,
		Study:         st,
		DefaultPoints: lo.Points,
		DefaultEps:    lo.Eps,
		opt:           lo.Core,
		grids:         make(map[int][]float64),
	}
	ds.servable = make([]bool, st.View.NumNodes())
	for _, src := range st.Result.Sources() {
		ds.servable[src] = true
	}
	// The default queries' curves stay in the Study's cache. Warming
	// more hop classes would cost memory for curves nobody asked for.
	grid := ds.Grid(ds.DefaultPoints)
	ds.Diameter, _ = st.Diameter(ds.DefaultEps, grid)
	hops, _ := parseHops(defaultHops) // a constant list that parses
	st.DelayCDFs(hops, grid)
	if err := st.Err(); err != nil {
		return nil, err
	}
	ds.LoadTime = time.Since(start)
	return ds, nil
}

// Grid returns the dataset's delay grid at the given resolution,
// memoized so identical queries share one backing slice (the Study's
// curve cache keys on its values). The shape matches cmd/diameter:
// log-spaced from 2 minutes (or 1% of the window for short traces) up
// to the full window.
func (ds *Dataset) Grid(points int) []float64 {
	if points <= 0 {
		points = ds.DefaultPoints
	}
	if points > maxGridPoints {
		points = maxGridPoints
	}
	ds.gridMu.Lock()
	defer ds.gridMu.Unlock()
	if g, ok := ds.grids[points]; ok {
		return g
	}
	hi := ds.View.Duration()
	lo := 120.0
	if lo >= hi/2 {
		lo = hi / 100
	}
	g := stats.LogSpace(lo, hi, points)
	ds.grids[points] = g
	return g
}

// ReachSlotBudget picks a reach.Engine slot cap for a window/grid
// combination: the smallest doubling of the 256-slot package ceiling
// that makes a slot no wider than the smallest delay budget, which is
// what lets DiameterBounds certify a pass on multi-day traces. The
// daemon builds no reach engine; perfbench's study workload and
// BenchmarkReachBounds size their builds with it. The reach escalation
// ladder only visits doublings of its 64-slot base, so a cap strictly
// between rungs pays extra build cost without buying resolution (the
// build clamps to the cap mid-doubling). Returns 0 — the package
// default — when even maxReachSlots slots cannot certify: a cheap
// coarse build then gives loose-but-sound envelopes instead of a huge
// one that still cannot certify.
func ReachSlotBudget(window, minBudget float64) int {
	if minBudget <= 0 || window <= 0 {
		return 0
	}
	need := window / minBudget
	if need <= 256 {
		return 0
	}
	s := 256
	for float64(s) < need {
		s *= 2
		if s > maxReachSlots {
			return 0
		}
	}
	return s
}

// CheckPair validates a queried (src, dst) pair: both in range and the
// source actually computed (internal devices only — external devices
// relay inside paths but are not query endpoints).
func (ds *Dataset) CheckPair(src, dst trace.NodeID) error {
	n := trace.NodeID(ds.View.NumNodes())
	if src < 0 || src >= n || dst < 0 || dst >= n {
		return fmt.Errorf("pair (%d, %d) out of range (nodes=%d)", src, dst, n)
	}
	if !ds.servable[src] {
		return fmt.Errorf("node %d is not a computed source (external devices only relay)", src)
	}
	return nil
}
