package timeline

// PairIndexByEnd returns pair p's end-sorted intervals and their suffix
// minima of begin times, which no exported accessor exposes, for the
// reference-index test.
func (v *View) PairIndexByEnd(p int) ([]Interval, []float64) {
	x := v.ensurePairIndex()
	lo, hi := x.off[p], x.off[p+1]
	return x.byEnd[lo:hi], x.sufMinBeg[lo:hi]
}
