package core

import (
	"math"
	"slices"
	"testing"
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
