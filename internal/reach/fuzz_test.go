package reach_test

import (
	"testing"

	"opportunet/internal/core"
	"opportunet/internal/reach"
	"opportunet/internal/stats"
	"opportunet/internal/timeline"
	"opportunet/internal/trace"
)

// FuzzReachBounds differentially checks the envelopes against core on
// fuzzed tiny traces (2–8 devices, some of them external relays, at
// most 40 contacts), in both contact orientations and at every slot
// resolution from 4 to 64: each DeliveryBound, for hop bounds 0 to
// MaxHops+1, must satisfy lower ≤ exact ≤ upper against the success
// curve of core's frontiers, and DiameterBounds must bracket the exact
// (1−ε)-diameter. The input layout is data[0] → device count,
// data[1] → external-device mask, data[2] → MaxHops (1–5), then four
// bytes per contact: endpoints, begin time and duration.
func FuzzReachBounds(f *testing.F) {
	f.Add([]byte{3, 0, 2, 0, 1, 10, 5, 1, 2, 12, 30, 2, 0, 90, 0}, false, uint8(0))
	f.Add([]byte{6, 4, 4, 0, 2, 0, 9, 2, 1, 20, 1, 1, 3, 40, 7, 3, 4, 8, 60, 4, 5, 100, 3, 5, 0, 200, 30}, true, uint8(60))
	f.Add([]byte{7, 64, 1, 0, 6, 50, 50, 6, 1, 70, 0, 1, 2, 140, 9, 2, 3, 140, 0, 3, 0, 250, 5}, false, uint8(17))
	f.Fuzz(func(t *testing.T, data []byte, directed bool, slotsRaw uint8) {
		if len(data) < 3 {
			return
		}
		n := 2 + int(data[0])%7
		tr := &trace.Trace{Name: "fuzz", Start: 0, End: 320, Kinds: make([]trace.Kind, n)}
		for i := range tr.Kinds {
			if data[1]>>i&1 == 1 {
				tr.Kinds[i] = trace.External
			}
		}
		maxK := 1 + int(data[2])%5
		for i := 3; i+3 < len(data) && len(tr.Contacts) < 40; i += 4 {
			a := trace.NodeID(int(data[i]) % n)
			b := trace.NodeID(int(data[i+1]) % n)
			if a == b {
				b = (a + 1) % trace.NodeID(n)
			}
			beg := float64(data[i+2])
			tr.Contacts = append(tr.Contacts, trace.Contact{A: a, B: b, Beg: beg, End: beg + float64(data[i+3]%64)})
		}
		slots := 4 + int(slotsRaw)%61
		v := timeline.New(tr).All()
		eng, err := reach.New(v, reach.Options{MaxHops: maxK, Slots: slots, MaxSlots: slots, Directed: directed, Workers: 2})
		if err != nil {
			return // fewer than two internal devices
		}
		res, err := core.ComputeView(v, core.Options{Directed: directed})
		if err != nil {
			t.Fatal(err)
		}
		grid := stats.LogSpace(1, v.Duration(), 12)
		for hop := 0; hop <= maxK+1; hop++ {
			lower, upper, err := eng.DeliveryBound(hop, grid)
			if err != nil {
				t.Fatal(err)
			}
			exact := exactCurve(v, res, hop, grid)
			for i := range grid {
				if !(lower[i] <= exact[i] && exact[i] <= upper[i]) {
					t.Fatalf("hop %d budget %v: envelope [%v, %v] misses exact %v", hop, grid[i], lower[i], upper[i], exact[i])
				}
			}
		}
		curves := exactCurves(t, v, res, maxK, grid)
		for _, eps := range []float64{0.01, 0.2} {
			lo, hi, err := eng.DiameterBounds(eps, grid)
			if err != nil {
				t.Fatal(err)
			}
			exact := exactDiameter(curves, eps)
			if lo > exact || (hi != -1 && exact > hi) {
				t.Fatalf("eps %v: bounds [%d, %d] miss exact %d", eps, lo, hi, exact)
			}
		}
	})
}
