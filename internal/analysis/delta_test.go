package analysis

import (
	"cmp"
	"math"
	"slices"
	"testing"

	"opportunet/internal/core"
	"opportunet/internal/trace"
)

// unionMeasure is the per-hop-delay oracle, independent of core's curve
// kernel: the measure of start times in [a, b] that some archived
// summary of a pair delivers within budget d using at most k hops
// (k <= 0 unbounded). A summary (LD, EA, Hop) delivers t iff t ≤ LD,
// EA + Δ − t ≤ d and Hop·Δ ≤ d, so the set is the union of the
// intervals [max(a, EA + Δ − d), min(b, LD)] over the summaries with
// Hop·Δ ≤ d.
func unionMeasure(archive []core.Entry, delta, d float64, k int, a, b float64) float64 {
	var iv [][2]float64
	for _, e := range archive {
		if !(float64(e.Hop)*delta <= d) || k > 0 && int(e.Hop) > k {
			continue
		}
		if lo, hi := max(a, e.EA+delta-d), min(b, e.LD); lo < hi {
			iv = append(iv, [2]float64{lo, hi})
		}
	}
	slices.SortFunc(iv, func(x, y [2]float64) int { return cmp.Compare(x[0], y[0]) })
	total, end := 0.0, math.Inf(-1)
	for _, v := range iv {
		lo := max(v[0], end)
		if v[1] > lo {
			total += v[1] - lo
			end = v[1]
		}
	}
	return total
}

// checkDeltaCurves compares a per-hop-delay study's delay CDFs at hop
// bounds 0 and 1..Hops+1, and SuccessProbability at every budget, with
// the union oracle summed over pairs, within 1e-9 × window. It also
// checks that each curve stays within [0, 1], is monotone in the budget
// and is exactly 0 below Δ, since every path takes at least Hop·Δ.
func checkDeltaCurves(t *testing.T, s *Study, grid []float64) {
	t.Helper()
	a, b := s.View.Start(), s.View.End()
	delta := s.Result.Delta
	archives := make([][]core.Entry, len(s.Pairs))
	for i, p := range s.Pairs {
		slot := make([]core.Entry, s.Result.PairArchiveLen(p[0], p[1]))
		archives[i] = s.Result.SortedArchiveInto(p[0], p[1], slot)
	}
	bounds := []int{Unbounded}
	for k := 1; k <= s.Result.Hops+1; k++ {
		bounds = append(bounds, k)
	}
	norm := float64(len(s.Pairs)) * (b - a)
	tol := 1e-9 * (b - a)
	order := make([]int, len(grid))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(i, j int) int { return cmp.Compare(grid[i], grid[j]) })
	for _, c := range s.DelayCDFs(bounds, grid) {
		for g, d := range grid {
			want := 0.0
			for _, ar := range archives {
				want += unionMeasure(ar, delta, d, c.HopBound, a, b)
			}
			got := c.Success[g]
			if math.Abs(got*norm-want) > tol {
				t.Fatalf("Δ %v bound %d budget %v: curve measure %v, union oracle %v", delta, c.HopBound, d, got*norm, want)
			}
			if p := s.SuccessProbability(d, c.HopBound); math.Abs(p*norm-want) > tol {
				t.Fatalf("Δ %v bound %d budget %v: SuccessProbability measure %v, union oracle %v", delta, c.HopBound, d, p*norm, want)
			}
			if got < 0 || got > 1 {
				t.Fatalf("Δ %v bound %d budget %v: success %v outside [0, 1]", delta, c.HopBound, d, got)
			}
			if !(d >= delta) && got != 0 {
				t.Fatalf("Δ %v bound %d budget %v below Δ: success %v, want 0", delta, c.HopBound, d, got)
			}
		}
		prev := 0.0
		for _, g := range order {
			if math.IsNaN(grid[g]) {
				continue
			}
			if v := c.Success[g] * norm; v < prev-tol {
				t.Fatalf("Δ %v bound %d: measure falls from %v to %v at budget %v", delta, c.HopBound, prev, v, grid[g])
			} else {
				prev = v
			}
		}
	}
}

// FuzzDeltaCurve checks the exact per-hop-delay success measure against
// the union oracle on fuzzed tiny traces (2–8 devices, at most 40
// contacts), directed or not, with Δ from 1/8 to 32. Budgets cover
// 0, a negative one, NaN, +Inf, just below Δ, exactly and just below
// float64(h)·Δ for h up to Hops+1 (where the hop class changes), and
// one fuzzed value, in an unsorted grid. The input layout is data[0] →
// device count, data[1] → the fuzzed budget, then four bytes per
// contact: endpoints, begin time and duration.
func FuzzDeltaCurve(f *testing.F) {
	f.Add([]byte{2, 5, 0, 1, 0, 10, 1, 2, 20, 10, 2, 3, 25, 15}, false, uint8(7))
	f.Add([]byte{6, 30, 0, 2, 0, 9, 2, 1, 20, 1, 1, 3, 40, 7, 3, 4, 8, 60, 4, 5, 100, 3, 5, 0, 200, 30, 0, 5, 10, 0}, true, uint8(79))
	f.Add([]byte{7, 140, 0, 6, 50, 50, 6, 1, 50, 0, 1, 2, 50, 0, 2, 3, 140, 0, 3, 0, 250, 5, 0, 6, 50, 50}, false, uint8(200))
	f.Fuzz(func(t *testing.T, data []byte, directed bool, delay uint8) {
		if len(data) < 2 {
			return
		}
		n := 2 + int(data[0])%7
		tr := &trace.Trace{Name: "fuzz", Start: 0, End: 320, Kinds: make([]trace.Kind, n)}
		for i := 2; i+3 < len(data) && len(tr.Contacts) < 40; i += 4 {
			a := trace.NodeID(int(data[i]) % n)
			b := trace.NodeID(int(data[i+1]) % n)
			if a == b {
				b = (a + 1) % trace.NodeID(n)
			}
			beg := float64(data[i+2])
			tr.Contacts = append(tr.Contacts, trace.Contact{A: a, B: b, Beg: beg, End: beg + float64(data[i+3]%64)})
		}
		delta := float64(1+int(delay)) / 8
		s, err := NewStudy(tr, core.Options{Directed: directed, TransmitDelay: delta, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		grid := []float64{float64(data[1]), 0, -1, math.NaN(), math.Inf(1), math.Nextafter(delta, 0)}
		for h := 1; h <= s.Result.Hops+1; h++ {
			hd := float64(h) * delta
			grid = append(grid, hd, math.Nextafter(hd, 0))
		}
		checkDeltaCurves(t, s, grid)
	})
}

// TestDeltaInfiniteBudget pins the infinite budget under a per-hop
// delay on pairs reachable only early in the window: one contact
// [100, 110] on [0, 1000] with Δ = 1 archives the single summary
// {LD 110, EA 100, Hop 1} for each ordered pair. Only start times up to
// LD are ever delivered, so an infinite budget measures exactly 110 per
// pair, as does any budget large enough to cover every finite delay.
func TestDeltaInfiniteBudget(t *testing.T) {
	tr := &trace.Trace{Name: "early", Start: 0, End: 1000, Kinds: make([]trace.Kind, 2),
		Contacts: []trace.Contact{{A: 0, B: 1, Beg: 100, End: 110}}}
	s, err := NewStudy(tr, core.Options{TransmitDelay: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range s.Pairs {
		ar := s.Result.SortedArchiveInto(p[0], p[1], make([]core.Entry, s.Result.PairArchiveLen(p[0], p[1])))
		if len(ar) != 1 || ar[0] != (core.Entry{LD: 110, EA: 100, Hop: 1}) {
			t.Fatalf("pair %v archive %+v, want the one summary {110 100 1}", p, ar)
		}
	}
	for _, k := range []int{1, Unbounded} {
		for _, d := range []float64{math.Inf(1), 1e12} {
			if got := s.successCurve(k, []float64{d}, 0, 1000)[0]; got != 110*float64(len(s.Pairs)) {
				t.Errorf("bound %d budget %v: measure %v, want 110 per pair", k, d, got)
			}
		}
	}
	if got := s.SuccessProbability(math.Inf(1), Unbounded); got != 0.11 {
		t.Errorf("SuccessProbability(+Inf) = %v, want 0.11", got)
	}
}
