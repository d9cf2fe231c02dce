package main

import (
	"bytes"
	"fmt"
	"slices"
	"time"

	"opportunet/internal/analysis"
	"opportunet/internal/core"
	"opportunet/internal/timeline"
	"opportunet/internal/trace"
	"opportunet/internal/tracegen"
)

// The ingest workload: a time-ordered full-size Infocom05 feed (external
// devices included) streamed through trace.Stream → Appender.Append →
// Snapshot → core.Engine.Extend in ingestEpochs epochs, then one final
// study over the last result. It is the only workload that writes the
// timeline and updates core incrementally.
const ingestEpochs = 200

func ingestInput(seed uint64) ([]byte, int, error) {
	tr, err := tracegen.Infocom05(seed)
	if err != nil {
		return nil, 0, err
	}
	tr.SortByBeg()
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		return nil, 0, err
	}
	return buf.Bytes(), len(tr.Contacts), nil
}

// ingestState is what one feed leaves for the oracle and the metrics.
type ingestState struct {
	view      *timeline.View
	res       *core.Result
	opt       core.Options
	queryable []float64 // seconds from each epoch's append to its extended result
	extend    []float64 // seconds of each epoch's Extend
	segments  int
}

func ingestPass(text []byte, epochSize, workers int, lc layerClock) (*ingestState, error) {
	st := &ingestState{}
	var ap *timeline.Appender
	var eng *core.Engine
	maxEnd := 0.0
	header := func(h trace.Header) error {
		meta := &trace.Trace{Name: h.Name, Granularity: h.Granularity, Start: h.Start, End: h.End, Kinds: h.Kinds()}
		var err error
		if ap, err = timeline.NewAppender(meta, 0); err != nil {
			return err
		}
		st.opt = core.Options{Workers: workers, Sources: meta.InternalNodes()}
		eng = core.NewEngine(st.opt)
		maxEnd = h.Start
		return nil
	}
	var inEmit float64
	emit := func(batch []trace.Contact) error {
		t0 := time.Now()
		var err error
		lc.time("timeline.append_s", func() {
			if err = ap.Append(batch); err != nil {
				return
			}
			for _, c := range batch {
				maxEnd = max(maxEnd, c.End)
			}
			ap.ExtendWindow(maxEnd)
		})
		if err != nil {
			return err
		}
		lc.time("timeline.snapshot_s", func() { st.view = ap.Snapshot().All() })
		ext := timed(func() { st.res, err = eng.Extend(st.view) })
		if err != nil {
			return err
		}
		st.extend = append(st.extend, ext)
		d := time.Since(t0).Seconds()
		st.queryable = append(st.queryable, d)
		inEmit += d
		return nil
	}
	var err error
	total := timed(func() { err = trace.Stream(bytes.NewReader(text), epochSize, header, emit) })
	if err != nil {
		return nil, fmt.Errorf("feed: %w", err)
	}
	lc.add("trace.stream_s", total-inEmit)
	lc.add("core.extend_s", sum(st.extend))
	st.segments = ap.Segments()
	lc.time("analysis.final_s", func() {
		var s *analysis.Study
		if s, err = analysis.NewStudyResult(st.view, st.res, st.opt); err != nil {
			return
		}
		d, _ := s.Diameter(studyEps, studyGrid(st.view.Duration(), 60))
		if err = s.Err(); err == nil && (d < 1 || d > st.res.Hops) {
			err = fmt.Errorf("diameter %d outside [1, %d]", d, st.res.Hops)
		}
	})
	if err != nil {
		return nil, fmt.Errorf("final study: %w", err)
	}
	return st, nil
}

// ingestOracle compares the incrementally extended archive with a cold
// computation over the same view, pair by pair.
func ingestOracle(o *outcome, st *ingestState) error {
	cold, err := core.ComputeView(st.view, st.opt)
	if err != nil {
		return err
	}
	// Pair by pair, not Result.Hops: the incremental engine keeps the
	// largest hop count any epoch needed, which can exceed the cold
	// fixpoint once later contacts dominate a long path.
	for _, src := range cold.Sources() {
		for dst := 0; dst < cold.NumNodes; dst++ {
			a := cold.Frontier(src, trace.NodeID(dst), 0).Entries
			b := st.res.Frontier(src, trace.NodeID(dst), 0).Entries
			o.check(slices.Equal(a, b))
		}
	}
	return nil
}

// ingestFeeds is how many feeds one pass ingests, each generated from
// its own seed: the cost of one feed moves ±10% with its seed, and the
// pass averages that out.
const ingestFeeds = 2

func runIngest(r *run) (*outcome, error) {
	o := newOutcome()
	texts := make([][]byte, ingestFeeds)
	sizes := make([]int, ingestFeeds)
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		var err error
		setups = append(setups, timed(func() {
			for f := range texts {
				if texts[f], sizes[f], err = ingestInput(r.seed + uint64(f)<<32); err != nil {
					return
				}
			}
		}))
		if err != nil {
			return nil, err
		}
	}
	var states []*ingestState
	var lc layerClock
	pass := func() error {
		states = states[:0]
		for f, text := range texts {
			st, err := ingestPass(text, (sizes[f]+ingestEpochs-1)/ingestEpochs, r.nproc, lc)
			o.op(err)
			if err != nil {
				return err
			}
			states = append(states, st)
		}
		return nil
	}
	// queryable collects every epoch's append-to-queryable seconds.
	queryable := func() []float64 {
		var q []float64
		for _, st := range states {
			q = append(q, st.queryable...)
		}
		return q
	}
	contacts := 0
	for _, n := range sizes {
		contacts += n
	}
	if !r.traced {
		var q []float64
		walls, err := r.repeat(func() error {
			err := pass()
			q = append(q, queryable()...)
			return err
		})
		if err != nil {
			return nil, err
		}
		o.metrics["setup_s"] = median(setups)
		o.metrics["wall_s"] = median(walls)
		o.metrics["op_p50_ms"] = 1e3 * quantile(q, 0.5)
		o.metrics["op_p90_ms"] = 1e3 * quantile(q, 0.9)
		o.metrics["rate_per_s"] = float64(contacts) / median(walls)
	} else {
		var err error
		plain := timed(func() { err = pass() })
		if err != nil {
			return nil, err
		}
		plainP50 := median(queryable())
		lc = layerClock{}
		traced := timed(func() { err = pass() })
		if err != nil {
			return nil, err
		}
		for k, v := range lc {
			o.metrics[k] = v
		}
		var extend []float64
		segments := 0
		for _, st := range states {
			extend = append(extend, st.extend...)
			segments += st.segments
		}
		o.metrics["timeline.segments"] = float64(segments)
		o.metrics["core.extend_p90_ms"] = 1e3 * quantile(extend, 0.9)
		o.metrics["tracing.overhead_s"] = traced - plain
		o.metrics["tracing.overhead_p50_ms"] = 1e3 * (median(queryable()) - plainP50)
		rss, err := peakRSSMiB("self")
		if err != nil {
			return nil, err
		}
		o.metrics["mem.peak_rss_mb"] = rss
	}
	for f, st := range states {
		if err := ingestOracle(o, st); err != nil {
			return nil, err
		}
		o.sizef("feed=%d dataset=infocom05-full contacts=%d nodes=%d window_s=%g fixpoint_hops=%d epochs=%d segments=%d",
			f, sizes[f], st.view.NumNodes(), st.view.Duration(), st.res.Hops, len(st.queryable), st.segments)
	}
	return o, nil
}
