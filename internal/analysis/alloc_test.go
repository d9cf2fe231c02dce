package analysis

import (
	"testing"

	"opportunet/internal/core"
	"opportunet/internal/randtemp"
	"opportunet/internal/rng"
	"opportunet/internal/stats"
	"opportunet/internal/tracegen"
)

// TestDelayCDFAggregationAllocs pins the aggregation pipeline's
// allocation discipline: with the frontier arena (one flat allocation
// per hop bound instead of filter/sort/output allocations per pair)
// and the pooled integration buffer, a full multi-bound CDF evaluation
// stays within a small per-bound budget that is independent of the
// pair count. Regressions here reintroduce the per-pair garbage that
// dominated the aggregation benchmark before the arena.
func TestDelayCDFAggregationAllocs(t *testing.T) {
	cfg := tracegen.Infocom05Config()
	cfg.TargetContacts = 1500
	cfg.ExternalDevices, cfg.ExternalContacts = 0, 0
	cfg.Devices = 15
	tr, err := tracegen.Generate(cfg, 21)
	if err != nil {
		t.Fatal(err)
	}
	st, err := NewStudy(tr, core.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	grid := stats.LogSpace(120, 86400, 12)
	bounds := []int{1, 2, 3, Unbounded}
	allocs := testing.AllocsPerRun(20, func() {
		st.ClearCaches()
		if cdfs := st.DelayCDFs(bounds, grid); len(cdfs) != len(bounds) {
			t.Fatal("wrong CDF count")
		}
	})
	// Measured ~72 for 4 bounds (frontier slice + scratch and compact
	// arenas + curve sum + normalized output + cache insert per bound,
	// plus the sorted archives, the cleared maps and the flat buffer
	// header). 3 per pair would already be ~600.
	t.Logf("allocs per run: %.0f", allocs)
	const budget = 96
	if allocs > budget {
		t.Fatalf("DelayCDFs allocated %.0f times per run, budget %d", allocs, budget)
	}
}

// TestDelayCDFsAllocsPinned pins the aggregation's allocation behavior:
// with warm frontiers, one DelayCDFs call over many hop bounds shares a
// single pooled integration buffer across bounds, so the per-call
// allocations stay bounded by the small per-bound outputs (sum + probs
// + cache bookkeeping), not by pairs × grid buffers.
func TestDelayCDFsAllocsPinned(t *testing.T) {
	tr, err := randtemp.DiscreteModel{N: 12, Lambda: 0.3, Slots: 24, SlotSeconds: 300}.Generate(rng.New(4))
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewStudy(tr, core.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	grid := stats.LogSpace(60, tr.Duration(), 40)
	bounds := []int{1, 2, 3, 4, 5, 6, Unbounded}
	// Warm the frontier memo and the buffer pool; curves are dropped
	// each run so every bound re-integrates.
	s.DelayCDFs(bounds, grid)
	clearCurves := func() {
		s.state.mu.Lock()
		s.state.curves = make(map[curveKey][]float64)
		s.state.mu.Unlock()
	}
	allocs := testing.AllocsPerRun(20, func() {
		clearCurves()
		s.DelayCDFs(bounds, grid)
	})
	// ~6 allocations per hop bound (sum, probs, key bookkeeping, memo
	// map churn) plus the output slice; the flat pairs × grid buffer
	// must not be re-allocated per bound.
	if max := float64(8*len(bounds) + 8); allocs > max {
		t.Fatalf("DelayCDFs allocations regressed: %v allocs/op, want <= %v", allocs, max)
	}
	// Fully-warm calls (curves cached) must stay near-free.
	s.DelayCDFs(bounds, grid)
	warm := testing.AllocsPerRun(20, func() {
		s.DelayCDFs(bounds, grid)
	})
	if max := float64(3*len(bounds) + 4); warm > max {
		t.Fatalf("warm DelayCDFs allocations regressed: %v allocs/op, want <= %v", warm, max)
	}
}
