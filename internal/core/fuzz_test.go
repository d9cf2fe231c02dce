package core

import (
	"math"
	"slices"
	"testing"

	"opportunet/internal/flood"
	"opportunet/internal/timeline"
	"opportunet/internal/trace"
)

// FuzzParetoSet drives the incremental frontier with arbitrary summary
// streams: the staircase invariant and the dominance semantics must hold
// whatever the insertion order.
func FuzzParetoSet(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6})
	f.Add([]byte{9, 0, 9, 0, 1, 1, 2, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		var p ParetoSet
		var all []Entry
		for i := 0; i+1 < len(data); i += 2 {
			e := Entry{LD: float64(data[i]), EA: float64(data[i+1]), Hop: 1}
			all = append(all, e)
			p.Add(e)
		}
		es := p.Entries()
		for i := 1; i < len(es); i++ {
			if es[i].LD <= es[i-1].LD || es[i].EA <= es[i-1].EA {
				t.Fatalf("staircase invariant broken: %+v", es)
			}
		}
		// The frontier must preserve del(t) against the raw stream.
		fr := Frontier{Entries: es}
		for probe := 0.0; probe <= 256; probe += 16 {
			want := bruteDel(all, probe)
			got := fr.Del(probe)
			if math.IsInf(want, 1) != math.IsInf(got, 1) {
				t.Fatalf("del(%v): inf mismatch", probe)
			}
			if !math.IsInf(want, 1) && want != got {
				t.Fatalf("del(%v) = %v, want %v", probe, got, want)
			}
		}
	})
}

// FuzzSuccessCurve differentially checks the one-pass curve kernel
// against the per-budget reference loop, bit for bit, for both delay
// models: fuzzed frontiers (built through ParetoSet), windows, and
// grids mixing negative, zero, duplicate, infinite and NaN budgets.
func FuzzSuccessCurve(f *testing.F) {
	f.Add([]byte{10, 20, 30, 25, 60, 90}, []byte{0, 1, 2, 5, 5, 40}, int16(0), int16(100), uint8(0), uint8(4))
	f.Add([]byte{110, 100}, []byte{2, 200, 255}, int16(0), int16(1000), uint8(3), uint8(16))
	f.Add([]byte{1, 9, 2, 2, 7, 3, 9, 9, 200, 4}, []byte{3, 4, 1, 0, 2, 2}, int16(-40), int16(30), uint8(9), uint8(1))
	f.Fuzz(func(t *testing.T, entries, grid []byte, lo, hi int16, scale, delta uint8) {
		unit := 1 + float64(scale)/7
		var p ParetoSet
		for i := 0; i+2 < len(entries) && i < 3*64; i += 3 {
			p.Add(Entry{
				LD:  float64(entries[i]) * unit,
				EA:  float64(entries[i+1]) * unit,
				Hop: int32(1 + entries[i+2]%5),
			})
		}
		budgets := make([]float64, 0, len(grid))
		for i, g := range grid {
			if i == 64 {
				break
			}
			switch g {
			case 0:
				budgets = append(budgets, -unit)
			case 1:
				budgets = append(budgets, 0)
			case 2:
				budgets = append(budgets, math.Inf(1))
			case 3:
				budgets = append(budgets, math.NaN())
			default:
				budgets = append(budgets, float64(g-4)*unit/3)
			}
		}
		slices.Sort(budgets)
		a, b := float64(lo)*unit, float64(hi)*unit
		fr := Frontier{Entries: p.Entries()}
		checkCurveBits(t, fr, budgets, a, b)
		fr.Delta = 0.25 + float64(delta)/4
		checkCurveBits(t, fr, budgets, a, b)
		checkCurveBits(t, fr.Indexed(), budgets, a, b)
	})
}

// FuzzComputeVsFlood checks the profile engine against the flood oracle
// on fuzzed tiny traces (2–8 devices, at most 40 contacts), directed or
// not, with TransmitDelay 0 or positive. From every source, at start
// times on and between the contact boundaries, Frontier(src, dst,
// k).Del(t0) must equal row k of EarliestDeliveryByHops for every hop
// bound k from 1 to Hops+1, and the unbounded frontier must equal row
// Hops+1, within 1e-9. The input layout is data[0] → device count,
// data[1] → an extra start time, then four bytes per contact:
// endpoints, begin time and duration.
func FuzzComputeVsFlood(f *testing.F) {
	f.Add([]byte{2, 5, 0, 1, 0, 10, 1, 2, 20, 10, 2, 3, 25, 15}, false, uint8(0))
	f.Add([]byte{6, 30, 0, 2, 0, 9, 2, 1, 20, 1, 1, 3, 40, 7, 3, 4, 8, 60, 4, 5, 100, 3, 5, 0, 200, 30, 0, 5, 10, 0}, true, uint8(9))
	f.Add([]byte{7, 140, 0, 6, 50, 50, 6, 1, 50, 0, 1, 2, 50, 0, 2, 3, 140, 0, 3, 0, 250, 5, 0, 6, 50, 50}, false, uint8(200))
	f.Fuzz(func(t *testing.T, data []byte, directed bool, delay uint8) {
		if len(data) < 2 {
			return
		}
		n := 2 + int(data[0])%7
		tr := &trace.Trace{Name: "fuzz", Start: 0, End: 320, Kinds: make([]trace.Kind, n)}
		probes := []float64{float64(data[1]) - 16}
		for i := 2; i+3 < len(data) && len(tr.Contacts) < 40; i += 4 {
			a := trace.NodeID(int(data[i]) % n)
			b := trace.NodeID(int(data[i+1]) % n)
			if a == b {
				b = (a + 1) % trace.NodeID(n)
			}
			beg := float64(data[i+2])
			end := beg + float64(data[i+3]%64)
			tr.Contacts = append(tr.Contacts, trace.Contact{A: a, B: b, Beg: beg, End: end})
			probes = append(probes, beg, end, end+0.5)
		}
		var delta float64
		if delay > 0 {
			delta = float64(delay) / 8
		}
		v := timeline.New(tr).All()
		res, err := ComputeView(v, Options{Directed: directed, TransmitDelay: delta, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		fl := flood.NewView(v, flood.Options{Directed: directed, TransmitDelay: delta})
		top := res.Hops + 1
		for src := trace.NodeID(0); int(src) < n; src++ {
			rows := make([][][]float64, len(probes))
			for i, t0 := range probes {
				rows[i] = fl.EarliestDeliveryByHops(src, t0, top)
			}
			for dst := trace.NodeID(0); int(dst) < n; dst++ {
				if dst == src {
					continue
				}
				for k := 0; k <= top; k++ {
					fr := res.Frontier(src, dst, k)
					row := k
					if k == 0 {
						row = top
					}
					for i, t0 := range probes {
						got, want := fr.Del(t0), rows[i][row][dst]
						if math.IsInf(want, 1) != math.IsInf(got, 1) || !math.IsInf(want, 1) && math.Abs(want-got) > 1e-9 {
							t.Fatalf("src %d dst %d bound %d t0 %v: Del %v, flood row %d %v", src, dst, k, t0, got, row, want)
						}
					}
				}
			}
		}
	})
}
