package core

import (
	"testing"
	"testing/quick"

	"opportunet/internal/rng"
	"opportunet/internal/trace"
)

// TestFrontierFromSortedMatchesFrontier cross-validates the arena
// builder against the allocating path on random traces: for every pair
// and a spread of hop bounds, sweeping one sorted archive must produce
// exactly Frontier's entries, the sorted archive must be left as it
// was, and the returned slice must stay inside the pair's slot with
// its capacity capped (so an appending caller cannot spill into a
// neighboring arena slot).
func TestFrontierFromSortedMatchesFrontier(t *testing.T) {
	r := rng.New(77)
	err := quick.Check(func(seed uint64) bool {
		n := 3 + r.Intn(8)
		tr := randomTrace(r, n, 60, 100, false)
		res, err := Compute(tr, Options{})
		if err != nil {
			return false
		}
		for src := 0; src < n; src++ {
			for dst := 0; dst < n; dst++ {
				if src == dst {
					continue
				}
				s, d := trace.NodeID(src), trace.NodeID(dst)
				need := res.PairArchiveLen(s, d)
				sorted := res.SortedArchiveInto(s, d, make([]Entry, need))
				snapshot := append([]Entry(nil), sorted...)
				slot := make([]Entry, need)
				for _, bound := range []int{0, 1, 2, 3, res.Hops} {
					want := res.Frontier(s, d, bound)
					got := FrontierFromSorted(sorted, bound, slot)
					if len(got.Entries) != len(want.Entries) {
						t.Errorf("pair (%d,%d) bound %d: %d entries, want %d",
							src, dst, bound, len(got.Entries), len(want.Entries))
						return false
					}
					for i := range want.Entries {
						if got.Entries[i] != want.Entries[i] {
							t.Errorf("pair (%d,%d) bound %d entry %d: %+v, want %+v",
								src, dst, bound, i, got.Entries[i], want.Entries[i])
							return false
						}
					}
					if cap(got.Entries) > need {
						t.Errorf("pair (%d,%d) bound %d: frontier capacity %d escapes the %d-entry slot",
							src, dst, bound, cap(got.Entries), need)
						return false
					}
					for i := range snapshot {
						if sorted[i] != snapshot[i] {
							t.Errorf("pair (%d,%d) bound %d: sweep wrote into the sorted archive", src, dst, bound)
							return false
						}
					}
				}
			}
		}
		return true
	}, &quick.Config{MaxCount: 40})
	if err != nil {
		t.Fatal(err)
	}
}

// TestFrontierFromSortedZeroAlloc pins the arena builders' contract:
// sorting an archive into a caller-owned slot and sweeping a frontier
// out of it allocate nothing.
func TestFrontierFromSortedZeroAlloc(t *testing.T) {
	r := rng.New(9)
	tr := randomTrace(r, 8, 200, 100, false)
	res, err := Compute(tr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sorted := make([]Entry, res.PairArchiveLen(0, 1))
	slot := make([]Entry, len(sorted))
	allocs := testing.AllocsPerRun(1000, func() {
		res.SortedArchiveInto(0, 1, sorted)
		f := FrontierFromSorted(sorted, 0, slot)
		if f.Delta != 0 {
			t.Fatal("unexpected delta")
		}
	})
	if allocs != 0 {
		t.Fatalf("SortedArchiveInto + FrontierFromSorted allocated %.1f times per call, want 0", allocs)
	}
}
