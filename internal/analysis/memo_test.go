package analysis

import (
	"math"
	"testing"

	"opportunet/internal/core"
	"opportunet/internal/obs"
	"opportunet/internal/rng"
	"opportunet/internal/stats"
)

// TestSortedArchivesMatchFrontier checks the per-study sorted arena
// against Result.Frontier for every pair at bounds 0 and 1..Hops+1, on
// a ComputeView result and on an Engine.Extend result (whose archive
// is grouped by hop, not stored in acceptance order).
func TestSortedArchivesMatchFrontier(t *testing.T) {
	tr := parallelTestTrace(61, 14, 900)
	cold, err := NewStudy(tr, core.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	streamed := streamedStudy(t, tr, core.Options{Workers: 2}, rng.New(62), 64)
	for _, st := range []*Study{cold, streamed} {
		bounds := []int{Unbounded}
		for k := 1; k <= st.Result.Hops+1; k++ {
			bounds = append(bounds, k)
		}
		for _, k := range bounds {
			fs := st.frontiersFor(k)
			for i, p := range st.Pairs {
				want := st.Result.Frontier(p[0], p[1], k).Entries
				got := fs[i].Entries
				if len(got) != len(want) {
					t.Fatalf("bound %d pair %v: %d entries, want %d", k, p, len(got), len(want))
				}
				for j := range want {
					if got[j] != want[j] {
						t.Fatalf("bound %d pair %v entry %d: %+v, want %+v", k, p, j, got[j], want[j])
					}
				}
			}
		}
	}
}

// TestHopBoundsAboveFixpointShareUnbounded: every bound at or above
// Result.Hops is the unbounded class, so its curve is the unbounded
// curve bit for bit and it builds no frontier set or curve of its own,
// while the output keeps the requested bound.
func TestHopBoundsAboveFixpointShareUnbounded(t *testing.T) {
	reg := obs.NewRegistry()
	obs.Wire(reg)
	defer obs.Wire(nil)

	st, err := NewStudy(parallelTestTrace(63, 12, 700), core.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	grid := stats.LogSpace(10, 8000, 16)
	ref := st.DelayCDFs([]int{Unbounded}, grid)[0]
	memo := reg.Counter("analysis_frontier_memo_misses_total", "").Value()
	curves := reg.Counter("analysis_curve_cache_misses_total", "").Value()

	hops := []int{st.Result.Hops, st.Result.Hops + 1, 1 << 20}
	for i, c := range st.DelayCDFs(hops, grid) {
		if c.HopBound != hops[i] {
			t.Fatalf("curve %d: HopBound %d, want the requested %d", i, c.HopBound, hops[i])
		}
		for g := range grid {
			if math.Float64bits(c.Success[g]) != math.Float64bits(ref.Success[g]) {
				t.Fatalf("bound %d grid %d: %v, unbounded %v", hops[i], g, c.Success[g], ref.Success[g])
			}
		}
	}
	if got := reg.Counter("analysis_frontier_memo_misses_total", "").Value(); got != memo {
		t.Fatalf("bounds at or above the fixpoint missed the frontier memo: %d -> %d", memo, got)
	}
	if got := reg.Counter("analysis_curve_cache_misses_total", "").Value(); got != curves {
		t.Fatalf("bounds at or above the fixpoint missed the curve cache: %d -> %d", curves, got)
	}
}

// TestWarmDelayCDFsTakeNoBuffer: a call answered entirely from the
// curve cache never takes the pairs × grid integration buffer.
func TestWarmDelayCDFsTakeNoBuffer(t *testing.T) {
	reg := obs.NewRegistry()
	obs.Wire(reg)
	defer obs.Wire(nil)

	st, err := NewStudy(parallelTestTrace(64, 12, 700), core.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	grid := stats.LogSpace(10, 8000, 24)
	bounds := []int{1, 2, Unbounded}
	st.DelayCDFs(bounds, grid)
	st.DelayCDFs(bounds, stats.LogSpace(10, 8000, 25)) // returns a buffer to the pool
	reuse := reg.Counter("analysis_curvebuf_pool_reuse_total", "").Value()
	st.DelayCDFs(bounds, grid)
	if got := reg.Counter("analysis_curvebuf_pool_reuse_total", "").Value(); got != reuse {
		t.Fatalf("warm DelayCDFs took an integration buffer: pool reuse %d -> %d", reuse, got)
	}
}

// TestSuccessCurveUnsortedGrid: a grid given out of order or with
// repeated budgets integrates each budget exactly as a sorted grid
// does, and as the per-pair sum of SuccessWithin in pair order.
func TestSuccessCurveUnsortedGrid(t *testing.T) {
	st, err := NewStudy(parallelTestTrace(65, 10, 500), core.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	a, b := st.View.Start(), st.View.End()
	grid := []float64{900, 30, math.Inf(1), 900, 0, -5, 200}
	for _, k := range []int{1, Unbounded} {
		got := st.successCurve(k, grid, a, b)
		fs := st.frontiersFor(k)
		for g, d := range grid {
			want := 0.0
			for i := range fs {
				want += fs[i].SuccessWithin(d, a, b)
			}
			if math.Float64bits(got[g]) != math.Float64bits(want) {
				t.Fatalf("bound %d budget %v: curve %v, per-budget sum %v", k, d, got[g], want)
			}
		}
	}
}
