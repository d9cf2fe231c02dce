package core

import (
	"math"
	"slices"
	"testing"

	"opportunet/internal/rng"
)

// successWithinRef is the per-budget integration loop SuccessCurve
// replaced: one walk of the frontier per budget, kept verbatim as the
// oracle.
func successWithinRef(f Frontier, d, a, b float64) float64 {
	if b <= a || len(f.Entries) == 0 || d < 0 {
		return 0
	}
	total := 0.0
	left := a
	for _, e := range f.Entries {
		if e.LD <= left {
			continue
		}
		segEnd := math.Min(e.LD, b)
		lo := math.Max(left, e.EA-d)
		if segEnd > lo {
			total += segEnd - lo
		}
		left = e.LD
		if left >= b {
			break
		}
	}
	return total
}

// checkCurveBits asserts SuccessCurve over the ascending budgets equals
// the reference loop bit for bit, and that SuccessWithin agrees too.
func checkCurveBits(t *testing.T, f Frontier, budgets []float64, a, b float64) {
	t.Helper()
	out := make([]float64, len(budgets))
	for i := range out {
		out[i] = math.NaN() // SuccessCurve must overwrite every slot
	}
	f.SuccessCurve(budgets, a, b, out)
	for g, d := range budgets {
		want := successWithinRef(f, d, a, b)
		if math.Float64bits(out[g]) != math.Float64bits(want) {
			t.Fatalf("window [%v, %v] budget %v (#%d of %v): curve %v, reference %v\nentries %+v",
				a, b, d, g, budgets, out[g], want, f.Entries)
		}
		if got := f.SuccessWithin(d, a, b); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("window [%v, %v]: SuccessWithin(%v) = %v, reference %v",
				a, b, d, got, want)
		}
	}
}

// TestSuccessCurveMatchesReference runs the kernel against the
// per-budget reference on random frontiers, windows and grids.
func TestSuccessCurveMatchesReference(t *testing.T) {
	r := rng.New(31)
	for rep := 0; rep < 200; rep++ {
		var p ParetoSet
		for i := 0; i < 1+r.Intn(30); i++ {
			ld := r.Uniform(0, 1000)
			p.Add(Entry{LD: ld, EA: ld + r.Uniform(-300, 300), Hop: int32(1 + r.Intn(5))})
		}
		a := r.Uniform(-200, 900)
		b := a + r.Uniform(-50, 1200)
		budgets := []float64{-1, 0, 0, math.Inf(1), math.Inf(-1)}
		for i := 0; i < r.Intn(40); i++ {
			budgets = append(budgets, r.Uniform(0, 800))
		}
		if len(budgets) > 5 {
			budgets = append(budgets, budgets[len(budgets)-1]) // duplicate
		}
		// Budgets exactly on the thresholds: EA − left, where a whole
		// segment starts to count.
		es := p.Entries()
		for i := 1; i < len(es); i += 2 {
			budgets = append(budgets, es[i].EA-es[i-1].LD)
		}
		slices.Sort(budgets)
		checkCurveBits(t, Frontier{Entries: es}, budgets, a, b)
	}
}

// TestSuccessWithinInfiniteBudget pins the infinite budget on a pair
// reachable only early in the window: one summary {LD 110, EA 100} on
// [0, 1000]. Only start times up to LD are ever delivered, so an
// infinite budget measures exactly 110, the same as any budget large
// enough to cover every finite delay.
func TestSuccessWithinInfiniteBudget(t *testing.T) {
	f := Frontier{Entries: []Entry{{LD: 110, EA: 100, Hop: 1}}}
	if got := f.SuccessWithin(math.Inf(1), 0, 1000); got != 110 {
		t.Errorf("SuccessWithin(+Inf) = %v, want 110", got)
	}
	if got := f.SuccessWithin(1e12, 0, 1000); got != 110 {
		t.Errorf("SuccessWithin(1e12) = %v, want 110", got)
	}
}

// TestSuccessCurvePanicsOnDelta: the kernel measures Delta == 0
// staircases only, so a frontier carrying a per-hop delay is a
// programming error, not a silently wrong measure.
func TestSuccessCurvePanicsOnDelta(t *testing.T) {
	f := Frontier{Entries: []Entry{{LD: 110, EA: 100, Hop: 1}}, Delta: 1}
	defer func() {
		if recover() == nil {
			t.Fatal("SuccessCurve on a Delta != 0 frontier did not panic")
		}
	}()
	f.SuccessCurve([]float64{10}, 0, 1000, make([]float64, 1))
}
