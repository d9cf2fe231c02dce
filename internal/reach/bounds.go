package reach

import "fmt"

// certSlack is the extra absolute margin (on normalized curves) by which
// envelope values are padded before they participate in a certificate.
// The envelope sums and the exact tier's aggregation add the same real
// quantities in different orders, so their float64 results can differ by
// a few ulps of the running sums (≲1e-11 after normalization); widening
// the bracket by this headroom keeps "certificate implies exact
// decision" true in floating point, not just on paper. The envelopes'
// discretization slack is orders of magnitude larger, so the padding
// costs no certification power in practice.
const certSlack = 1e-9

// padLo/padHi widen an envelope value downward/upward by the float
// headroom. Only the lower side clamps (probabilities are nonnegative);
// the upper side must stay unclamped inside certificates because upper
// envelopes genuinely exceed 1 when their slack is large, and capping
// them would understate the bracket.
func padLo(v float64) float64 {
	v -= certSlack
	if v < 0 {
		return 0
	}
	return v
}

func padHi(v float64) float64 { return v + certSlack }

// DeliveryBound returns lower/upper envelopes of the hop class's
// success curve P(success within d) evaluated at each grid budget —
// the certified bracket of the exact tier's DelayCDFs columns
// (hopBound follows the core convention: 0 means unbounded relaying).
// The envelopes come from the current build; call Refine to tighten
// them. The bounds are padded by the engine's float-summation slack, so
// lower ≤ exact ≤ upper holds in floating point.
func (e *Engine) DeliveryBound(hopBound int, grid []float64) (lower, upper []float64, err error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	bd, err := e.ensure(grid)
	if err != nil {
		return nil, nil, err
	}
	lower = make([]float64, len(grid))
	upper = make([]float64, len(grid))
	bd.boundsInto(hopBound, lower, upper)
	for i := range grid {
		lower[i] = padLo(lower[i])
		upper[i] = padHi(upper[i])
		if upper[i] > 1 {
			upper[i] = 1
		}
	}
	return lower, upper, nil
}

// DiameterBounds brackets the (1−ε)-diameter over the delay grid:
// the smallest hop bound whose success curve stays within a (1−ε)
// factor of the unbounded curve at every budget. It returns lo ≤ exact
// diameter ≤ hi; when lo == hi the answer is certified and an exact
// computation is unnecessary. hi == -1 means the envelopes could not
// certify any hop bound as passing (the exact answer then only has the
// trivial ceiling of the trace's longest shortest path). The method
// escalates the slot resolution internally up to the MaxSlots cap
// before settling for a gap.
func (e *Engine) DiameterBounds(eps float64, grid []float64) (lo, hi int, err error) {
	if eps < 0 || eps >= 1 {
		return 0, -1, fmt.Errorf("reach: eps %v outside [0, 1)", eps)
	}
	if len(grid) == 0 {
		return 0, -1, fmt.Errorf("reach: empty delay grid")
	}
	for {
		e.mu.Lock()
		bd, berr := e.ensure(grid)
		e.mu.Unlock()
		if berr != nil {
			return 0, -1, berr
		}
		lo, hi = bd.diameterBounds(eps, grid)
		// Refining can only pay off on grids the engine can certify at
		// some allowed resolution; otherwise settle for this build's gap.
		if lo == hi || !e.Certifiable(grid) || !e.Refine() {
			return lo, hi, nil
		}
	}
}

// diameterBounds scans hop bounds upward, certifying each as a definite
// pass, a definite fail, or ambiguous. A definite pass at k means even
// the padded lower envelope of k's curve clears (1−ε) times the padded
// upper envelope of the unbounded reference at every budget the
// reference could be positive on — so the exact criterion passes too. A
// definite fail means some budget is hopeless even against the smallest
// possible reference. Pass and fail exclude each other at any k, and
// the exact pass criterion is monotone in k (larger hop bounds only add
// successful starting times), so the exact diameter exceeds every
// certified fail and is at most the first certified pass.
func (bd *build) diameterBounds(eps float64, grid []float64) (lo, hi int) {
	norm := float64(bd.pairs) * bd.window
	thr := 1 - eps
	refLo := make([]float64, len(grid))
	refHi := make([]float64, len(grid))
	for i := range grid {
		refLo[i] = padLo(bd.lo[bd.maxK][i] / norm)
		refHi[i] = padHi(bd.hi[bd.maxK][i] / norm)
	}
	lo, hi = 1, -1
	for k := 1; k <= bd.maxK; k++ {
		pass, fail := true, false
		for i := range grid {
			lk := padLo(bd.lo[k-1][i] / norm)
			uk := padHi(bd.hi[k-1][i] / norm)
			// A zero padded reference certifies the exact reference is
			// zero there, where the exact criterion holds vacuously.
			if refHi[i] > 0 && lk+SuccessCurveTol < thr*refHi[i] {
				pass = false
			}
			if refLo[i] > 0 && uk+SuccessCurveTol < thr*refLo[i] {
				fail = true
			}
		}
		if fail {
			reMetrics.certFails.Inc()
			lo = k + 1
			continue
		}
		if pass {
			reMetrics.certPasses.Inc()
			hi = k
			break
		}
	}
	if hi != -1 && lo > hi {
		// Cannot happen (pass and fail exclude each other and exact
		// passing is monotone in k), but keep the contract lo ≤ hi
		// defensive.
		lo = hi
	}
	return lo, hi
}
