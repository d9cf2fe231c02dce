package main

import (
	"bytes"
	"fmt"
	"math"
	"time"

	"opportunet/internal/analysis"
	"opportunet/internal/core"
	"opportunet/internal/experiments"
	"opportunet/internal/flood"
	"opportunet/internal/obs"
	"opportunet/internal/reach"
	"opportunet/internal/rng"
	"opportunet/internal/server"
	"opportunet/internal/stats"
	"opportunet/internal/timeline"
	"opportunet/internal/trace"
)

// The study workload: the paper's per-dataset analysis, one layer at a
// time, on two datasets of opposite shape — the quick Infocom05
// conference trace (internal devices only: dense, deep fixpoint, a
// 4096-slot reach build) and the quick 20-day Reality Mining campus
// trace (sparse, long window, the reach package's default slots).
var studyDatasets = []string{experiments.Infocom05, experiments.RealityMining}

// studyHops are the hop bounds of the delay CDFs (∞ last).
var studyHops = []int{1, 2, 3, 4, 5, 6, analysis.Unbounded}

const (
	studyGridPoints = 40
	studyEps        = 0.01
	studyRemovalP   = 0.5
	studyRemovalRep = 2
)

var (
	studyEpsSweep   = []float64{0.001, 0.01, 0.05, 0.1}
	studyThresholds = []float64{121, 601}
)

// studyGrid is the daemon's grid shape: log-spaced from 2 minutes (or 1%
// of a short window) to the full window.
func studyGrid(window float64, points int) []float64 {
	lo := 120.0
	if lo >= window/2 {
		lo = window / 100
	}
	return stats.LogSpace(lo, window, points)
}

// studyInput is one dataset serialized in the trace text format, so the
// pass starts from bytes like any user of the tools does.
type studyInput struct {
	name string
	text []byte
}

func studyInputs(seed uint64) ([]studyInput, error) {
	cfg := &experiments.Config{Quick: true, Seed: seed}
	var ins []studyInput
	for _, name := range studyDatasets {
		tr, err := cfg.Trace(name)
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if err := tr.Write(&buf); err != nil {
			return nil, err
		}
		ins = append(ins, studyInput{name: name, text: buf.Bytes()})
	}
	return ins, nil
}

// layerClock accumulates seconds per per-layer metric name.
type layerClock map[string]float64

// time runs fn, adding its duration to name; a nil clock (an untraced
// run) only runs fn.
func (lc layerClock) time(name string, fn func()) {
	if lc == nil {
		fn()
		return
	}
	lc[name] += timed(fn)
}

func (lc layerClock) add(name string, v float64) {
	if lc != nil {
		lc[name] += v
	}
}

// studyState is what one dataset's pass leaves for the oracles.
type studyState struct {
	view    *timeline.View
	res     *core.Result
	cdfs    []analysis.DelayCDF
	grid    []float64
	diam    int
	lo, hi  int
	entries int
	slots   int
}

// studyPass runs the analysis of one dataset, timing each layer call.
func studyPass(in studyInput, seed uint64, opt core.Options, lc layerClock) (*studyState, error) {
	st := &studyState{}
	var tr *trace.Trace
	var err error
	lc.time("trace.parse_s", func() { tr, err = trace.Read(bytes.NewReader(in.text)) })
	if err != nil {
		return nil, fmt.Errorf("%s: parse: %w", in.name, err)
	}
	lc.time("timeline.index_s", func() {
		st.view = timeline.New(tr).All()
		st.view.Adjacency()
	})
	lc.time("core.compute_s", func() { st.res, err = core.ComputeView(st.view, opt) })
	if err != nil {
		return nil, fmt.Errorf("%s: compute: %w", in.name, err)
	}
	for _, src := range st.res.Sources() {
		for dst := 0; dst < st.res.NumNodes; dst++ {
			st.entries += st.res.PairArchiveLen(src, trace.NodeID(dst))
		}
	}
	s, err := analysis.NewStudyResult(st.view, st.res, opt)
	if err != nil {
		return nil, fmt.Errorf("%s: study: %w", in.name, err)
	}
	st.grid = studyGrid(st.view.Duration(), studyGridPoints)
	lc.time("analysis.cdf_s", func() { st.cdfs = s.DelayCDFs(studyHops, st.grid) })
	lc.time("analysis.diameter_s", func() {
		st.diam, _ = s.Diameter(studyEps, st.grid)
		s.DiameterVsEpsilon(studyEpsSweep, st.grid)
	})
	if err := s.Err(); err != nil {
		return nil, fmt.Errorf("%s: aggregate: %w", in.name, err)
	}
	t0 := time.Now()
	if _, _, err := analysis.RandomRemovalStudyView(st.view, studyRemovalP, studyRemovalRep, seed, opt, studyHops, st.grid, studyEps); err != nil {
		return nil, fmt.Errorf("%s: removal: %w", in.name, err)
	}
	for _, thr := range studyThresholds {
		ts, _, err := analysis.DurationThresholdStudyView(st.view, thr, opt)
		if err != nil {
			return nil, fmt.Errorf("%s: threshold: %w", in.name, err)
		}
		ts.DelayCDFs(studyHops, st.grid)
		ts.Diameter(studyEps, st.grid)
		if err := ts.Err(); err != nil {
			return nil, fmt.Errorf("%s: threshold: %w", in.name, err)
		}
	}
	lc.add("analysis.removal_s", time.Since(t0).Seconds())
	lc.time("reach.bounds_s", func() {
		var eng *reach.Engine
		eng, err = reach.New(st.view, reach.Options{
			MaxHops:  st.res.Hops,
			MaxSlots: server.ReachSlotBudget(st.view.Duration(), st.grid[0]),
			Workers:  opt.Workers,
		})
		if err == nil {
			st.lo, st.hi, err = eng.DiameterBounds(studyEps, st.grid)
			st.slots = eng.Slots()
		}
	})
	if err != nil {
		return nil, fmt.Errorf("%s: reach: %w", in.name, err)
	}
	return st, nil
}

// studyOracle checks one dataset's pass: sampled delivery times against
// flooding, CDF monotonicity in budget and hop bound, and the reach
// bracket around the exact diameter.
func studyOracle(o *outcome, st *studyState, seed uint64) {
	f := flood.NewView(st.view, flood.Options{})
	r := rng.New(seed)
	srcs := st.res.Sources()
	for i := 0; i < 24; i++ {
		src := srcs[r.Intn(len(srcs))]
		t0 := st.view.Start() + r.Float64()*st.view.Duration()
		want := f.EarliestDelivery(src, t0)
		for dst := range want {
			if trace.NodeID(dst) == src {
				continue
			}
			got := st.res.Frontier(src, trace.NodeID(dst), 0).Del(t0)
			o.check(sameTime(got, want[dst]))
		}
	}
	for i, c := range st.cdfs {
		for j := 1; j < len(c.Success); j++ {
			o.check(c.Success[j] >= c.Success[j-1]-1e-12)
		}
		// Each bounded curve lies under the next one and under ∞ (last).
		if i+1 < len(st.cdfs) {
			next := st.cdfs[i+1]
			for j := range c.Success {
				o.check(c.Success[j] <= next.Success[j]+1e-12)
			}
		}
	}
	o.check(st.lo <= st.diam && (st.hi < 0 || st.diam <= st.hi))
}

func sameTime(a, b float64) bool {
	if math.IsInf(a, 1) || math.IsInf(b, 1) {
		return math.IsInf(a, 1) && math.IsInf(b, 1)
	}
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b))
}

func runStudy(r *run) (*outcome, error) {
	o := newOutcome()
	var ins []studyInput
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		var err error
		setups = append(setups, timed(func() { ins, err = studyInputs(r.seed) }))
		if err != nil {
			return nil, err
		}
	}
	opt := core.Options{Workers: r.nproc}
	var states []*studyState
	var lc layerClock
	var perDataset []float64 // seconds of each dataset's analysis, every pass
	pass := func() error {
		states = states[:0]
		for _, in := range ins {
			t0 := time.Now()
			st, err := studyPass(in, r.seed, opt, lc)
			o.op(err)
			if err != nil {
				return err
			}
			perDataset = append(perDataset, time.Since(t0).Seconds())
			states = append(states, st)
		}
		return nil
	}

	if !r.traced {
		walls, err := r.repeat(pass)
		if err != nil {
			return nil, err
		}
		contacts := 0
		for _, st := range states {
			contacts += st.view.NumContacts()
		}
		o.metrics["setup_s"] = median(setups)
		o.metrics["wall_s"] = median(walls)
		o.metrics["op_p50_ms"] = 1e3 * quantile(perDataset, 0.5)
		o.metrics["op_p90_ms"] = 1e3 * quantile(perDataset, 0.9)
		o.metrics["rate_per_s"] = float64(contacts) / median(walls)
	} else {
		// Untraced reference pass, then the same pass with the program's
		// counters wired; the per-layer times come from the traced pass.
		var err error
		plain := timed(func() { err = pass() })
		if err != nil {
			return nil, err
		}
		plainP50 := 1e3 * median(perDataset)
		perDataset = perDataset[:0]
		lc = layerClock{}
		reg := obs.NewRegistry()
		obs.Wire(reg)
		traced := timed(func() { err = pass() })
		obs.Wire(nil)
		if err != nil {
			return nil, err
		}
		o.metrics["tracing.overhead_p50_ms"] = 1e3*median(perDataset) - plainP50
		for k, v := range lc {
			o.metrics[k] = v
		}
		entries := 0
		for _, st := range states {
			entries += st.entries
		}
		o.metrics["core.archive_entries"] = float64(entries)
		o.metrics["core.accept_ratio"] = ratio(counter(reg, "core_extensions_accepted_total"), counter(reg, "core_extensions_attempted_total"))
		o.metrics["analysis.curve_hit_ratio"] = curveHitRatio(reg)
		o.metrics["par.busy_frac"] = ratio(counter(reg, "par_worker_busy_ns_total")/1e9, traced*float64(r.nproc))
		o.metrics["tracing.overhead_s"] = traced - plain
		rss, err := peakRSSMiB("self")
		if err != nil {
			return nil, err
		}
		o.metrics["mem.peak_rss_mb"] = rss
	}
	for i, st := range states {
		studyOracle(o, st, r.seed+uint64(i))
		o.sizef("dataset=%s contacts=%d nodes=%d window_s=%g fixpoint_hops=%d reach_slots=%d grid_points=%d",
			studyDatasets[i], st.view.NumContacts(), st.view.NumNodes(), st.view.Duration(), st.res.Hops, st.slots, len(st.grid))
	}
	return o, nil
}

func counter(reg *obs.Registry, name string) float64 {
	return float64(reg.Counter(name, "").Value())
}

func curveHitRatio(reg *obs.Registry) float64 {
	hits := counter(reg, "analysis_curve_cache_hits_total")
	return ratio(hits, hits+counter(reg, "analysis_curve_cache_misses_total"))
}
