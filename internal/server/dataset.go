package server

import (
	"fmt"
	"sync"
	"time"

	"opportunet/internal/analysis"
	"opportunet/internal/core"
	"opportunet/internal/reach"
	"opportunet/internal/stats"
	"opportunet/internal/timeline"
	"opportunet/internal/trace"
)

// maxGridPoints caps the per-request delay-grid resolution: a query
// cannot make the server integrate over an arbitrarily fine grid.
const maxGridPoints = 512

// maxReachSlots caps the bounds tier's slot resolution at load time —
// beyond this the envelope build costs more than it saves.
const maxReachSlots = 8192

// Dataset is one warm, query-ready dataset in the daemon's registry:
// the timeline index, the exhaustive path computation wrapped in an
// analysis.Study (whose frontier memo and curve cache make repeated
// queries cheap), and the reach bounds engine that degraded answers come
// from. All fields are read-only after LoadDataset; the Study and the
// reach engine serialize their own internal state, so a Dataset serves
// concurrent requests without further locking.
type Dataset struct {
	Name  string
	View  *timeline.View
	Study *analysis.Study
	// Reach is the dataset's bounds engine. Only degraded answers read
	// it: exact queries never touch it, so its one build stays the
	// default grid's prewarmed envelopes. nil when the tier does not
	// apply (δ > 0).
	Reach *reach.Engine

	// DefaultPoints and DefaultEps parameterize the grid prewarmed at
	// load time; queries that stick to them get warm degraded answers
	// even after their deadline has expired.
	DefaultPoints int
	DefaultEps    float64

	// WarmLo/WarmHi are the certified diameter bounds prewarmed on the
	// default grid (WarmHi == -1 when no pass was certified).
	WarmLo, WarmHi int

	// LoadTime is how long the full load (paths + prewarm) took.
	LoadTime time.Duration

	opt      core.Options
	servable []bool // node → usable as src/dst (computed internal source)

	gridMu sync.Mutex
	grids  map[int][]float64 // points → memoized delay grid
}

// LoadOptions parameterizes LoadDataset.
type LoadOptions struct {
	// Core carries Workers, Directed, TransmitDelay, MaxHops and the
	// dataset's *lifetime* context — builds and the bounds tier outlive
	// any single request, so this must be the daemon's context, never a
	// request's.
	Core core.Options
	// Points is the default delay-grid resolution (0 = 60, the
	// repo-wide default); Eps the default diameter confidence (0 = 0.01).
	Points int
	Eps    float64
	// SkipPrewarm skips building the reach envelopes and certified
	// diameter bounds at load. The first deadline-busting diameter
	// query then has no warm bounds to degrade to and fails with 504
	// instead — keep prewarm on in production, off only for tests that
	// need a cold tier.
	SkipPrewarm bool
}

// LoadDataset computes the full path archive for a trace and wraps it
// into a warm Dataset: the expensive work (exhaustive paths, reach
// envelopes, certified diameter bounds on the default grid) happens
// here, once, so requests only ever read warm state or run bounded
// incremental aggregation.
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
		WarmLo:        0,
		WarmHi:        -1,
		opt:           lo.Core,
		grids:         make(map[int][]float64),
	}
	ds.servable = make([]bool, st.View.NumNodes())
	for _, src := range st.Result.Sources() {
		ds.servable[src] = true
	}
	if st.Result.Delta == 0 {
		// Size the slot budget to the default grid: a slot no wider than
		// the smallest delay budget is what lets DiameterBounds certify a
		// pass on real multi-day traces (the package default of 256 slots
		// cannot). Capped so a pathological window/grid ratio degrades to
		// loose-but-sound envelopes instead of an unbounded build.
		grid := ds.Grid(ds.DefaultPoints)
		eng, err := reach.New(st.View, reach.Options{
			MaxHops:  st.Result.Hops,
			MaxSlots: ReachSlotBudget(ds.View.Duration(), grid[0]),
			Directed: lo.Core.Directed,
			Workers:  lo.Core.Workers,
			Ctx:      lo.Core.Ctx,
		})
		if err == nil {
			ds.Reach = eng
		}
	}
	if !lo.SkipPrewarm && ds.Reach != nil {
		// Build the envelopes and certified diameter bounds for the
		// default grid now, so deadline-busting queries degrade to a warm
		// read instead of a cold build nobody can wait for. The build
		// runs its own exhaustive computation from the internal devices;
		// only the envelopes outlive it. An uncertifiable upper side
		// comes back as -1 (WarmHi stays "unknown"); the serving layer
		// substitutes the fixpoint ceiling.
		grid := ds.Grid(ds.DefaultPoints)
		if blo, bhi, err := ds.Reach.DiameterBounds(ds.DefaultEps, grid); err == nil {
			ds.WarmLo, ds.WarmHi = blo, bhi
		}
	}
	ds.LoadTime = time.Since(start)
	return ds, nil
}

// Grid returns the dataset's delay grid at the given resolution,
// memoized so identical queries share one backing slice (the reach
// engine's grid identity check and the Study's curve cache both key on
// its values). The shape matches cmd/diameter: log-spaced from 2
// minutes (or 1% of the window for short traces) up to the full
// window.
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

// ReachSlotBudget picks the bounds tier's slot cap for a window/grid
// combination: the smallest doubling of the 256-slot package ceiling
// that makes a slot no wider than the smallest delay budget. The reach
// escalation ladder only visits doublings of its 64-slot base, so a
// cap strictly between rungs pays extra build cost without buying
// resolution (the build clamps to the cap mid-doubling). Returns 0 —
// the package default — when even maxReachSlots slots cannot certify;
// the tier then serves loose-but-sound envelopes from a cheap coarse
// build instead of paying for a huge one that still cannot certify.
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
