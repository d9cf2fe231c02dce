package core

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"opportunet/internal/rng"
)

// checkInvariant2D verifies the frontier staircase: LD strictly
// increasing, EA strictly increasing.
func checkInvariant2D(t *testing.T, es []Entry) {
	t.Helper()
	for i := 1; i < len(es); i++ {
		if es[i].LD <= es[i-1].LD || es[i].EA <= es[i-1].EA {
			t.Fatalf("invariant broken at %d: %+v", i, es)
		}
	}
}

func TestFrontier2DAddBasics(t *testing.T) {
	var f frontier2D
	if !f.add(Entry{LD: 10, EA: 5, Hop: 1}) {
		t.Fatal("first add rejected")
	}
	// Dominated: smaller LD, larger EA.
	if f.add(Entry{LD: 8, EA: 6, Hop: 1}) {
		t.Fatal("dominated entry accepted")
	}
	// Duplicate.
	if f.add(Entry{LD: 10, EA: 5, Hop: 2}) {
		t.Fatal("duplicate accepted")
	}
	// Dominates existing: replaces it.
	if !f.add(Entry{LD: 12, EA: 4, Hop: 3}) {
		t.Fatal("dominating entry rejected")
	}
	if len(f) != 1 || f[0].LD != 12 {
		t.Fatalf("frontier = %+v, want single (12,4)", f)
	}
	// Incomparable entries coexist.
	if !f.add(Entry{LD: 20, EA: 9, Hop: 1}) {
		t.Fatal("incomparable entry rejected")
	}
	if !f.add(Entry{LD: 5, EA: 1, Hop: 1}) {
		t.Fatal("incomparable entry rejected")
	}
	checkInvariant2D(t, f)
	if len(f) != 3 {
		t.Fatalf("frontier size %d, want 3", len(f))
	}
}

func TestFrontier2DAddEqualLD(t *testing.T) {
	var f frontier2D
	f.add(Entry{LD: 10, EA: 5})
	// Same LD, better EA must replace.
	if !f.add(Entry{LD: 10, EA: 3}) {
		t.Fatal("same-LD better-EA rejected")
	}
	if len(f) != 1 || f[0].EA != 3 {
		t.Fatalf("frontier = %+v", f)
	}
	// Same LD, worse EA must be rejected.
	if f.add(Entry{LD: 10, EA: 4}) {
		t.Fatal("same-LD worse-EA accepted")
	}
}

func TestFrontier2DAddMassRemoval(t *testing.T) {
	var f frontier2D
	f.add(Entry{LD: 1, EA: 10})
	f.add(Entry{LD: 2, EA: 20})
	f.add(Entry{LD: 3, EA: 30})
	f.add(Entry{LD: 4, EA: 40})
	// Dominates the middle two.
	if !f.add(Entry{LD: 3.5, EA: 15}) {
		t.Fatal("rejected")
	}
	checkInvariant2D(t, f)
	if len(f) != 3 {
		t.Fatalf("frontier = %+v, want 3 entries", f)
	}
}

// bruteAdd maintains a Pareto set the slow, obviously correct way.
type bruteSet []Entry

func (b *bruteSet) add(e Entry) bool {
	for _, q := range *b {
		if dominates2D(q, e) {
			return false
		}
	}
	out := (*b)[:0]
	for _, q := range *b {
		if !dominates2D(e, q) {
			out = append(out, q)
		}
	}
	*b = append(out, e)
	return true
}

func (b bruteSet) sorted() []Entry {
	cp := append([]Entry(nil), b...)
	sort.Slice(cp, func(i, j int) bool { return cp[i].LD < cp[j].LD })
	return cp
}

func TestFrontier2DAddMatchesBruteForce(t *testing.T) {
	r := rng.New(31)
	err := quick.Check(func(seed uint64) bool {
		var fast frontier2D
		var slow bruteSet
		n := 3 + r.Intn(60)
		for i := 0; i < n; i++ {
			e := Entry{
				LD:  float64(r.Intn(20)),
				EA:  float64(r.Intn(20)),
				Hop: int32(1 + r.Intn(5)),
			}
			okFast := fast.add(e)
			okSlow := slow.add(e)
			if okFast != okSlow {
				return false
			}
		}
		want := slow.sorted()
		if len(fast) != len(want) {
			return false
		}
		for i := range want {
			if fast[i].LD != want[i].LD || fast[i].EA != want[i].EA {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 300})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBuildFrontier2D(t *testing.T) {
	entries := []Entry{
		{LD: 10, EA: 5, Hop: 1},
		{LD: 20, EA: 4, Hop: 3}, // dominates the first
		{LD: 30, EA: 8, Hop: 2}, // incomparable with second
		{LD: 25, EA: 9, Hop: 1}, // dominated by third
		{LD: 30, EA: 7, Hop: 4}, // same LD as third, better EA
	}
	// Unbounded: frontier is {(20,4), (30,7)}.
	got := buildFrontier2D(entries, math.MaxInt32)
	if len(got) != 2 || got[0] != (Entry{LD: 20, EA: 4, Hop: 3}) || got[1] != (Entry{LD: 30, EA: 7, Hop: 4}) {
		t.Fatalf("unbounded frontier = %+v", got)
	}
	// Hop bound 1: only entries with Hop <= 1 → {(10,5), (25,9)}.
	got = buildFrontier2D(entries, 1)
	if len(got) != 2 || got[0].LD != 10 || got[1].LD != 25 {
		t.Fatalf("hop-1 frontier = %+v", got)
	}
	// Hop bound 2: {(10,5), (30,8)} — (25,9) dominated by (30,8).
	got = buildFrontier2D(entries, 2)
	if len(got) != 2 || got[1] != (Entry{LD: 30, EA: 8, Hop: 2}) {
		t.Fatalf("hop-2 frontier = %+v", got)
	}
	if buildFrontier2D(nil, 5) != nil {
		t.Fatal("empty input should give nil frontier")
	}
}

func TestBuildFrontier2DDuplicateKeepsMinHop(t *testing.T) {
	entries := []Entry{
		{LD: 10, EA: 5, Hop: 4},
		{LD: 10, EA: 5, Hop: 2},
	}
	got := buildFrontier2D(entries, math.MaxInt32)
	if len(got) != 1 || got[0].Hop != 2 {
		t.Fatalf("frontier = %+v, want single entry with Hop 2", got)
	}
}

func TestBuildFrontier2DMatchesIncremental(t *testing.T) {
	// Building the frontier from an archive must equal inserting archive
	// entries one by one, for any order.
	r := rng.New(77)
	err := quick.Check(func(seed uint64) bool {
		n := 1 + r.Intn(40)
		entries := make([]Entry, n)
		for i := range entries {
			entries[i] = Entry{LD: float64(r.Intn(15)), EA: float64(r.Intn(15)), Hop: 1}
		}
		batch := buildFrontier2D(entries, math.MaxInt32)
		var inc frontier2D
		for _, e := range entries {
			inc.add(e)
		}
		if len(batch) != len(inc) {
			return false
		}
		for i := range inc {
			if batch[i].LD != inc[i].LD || batch[i].EA != inc[i].EA {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDel(t *testing.T) {
	f := Frontier{Entries: []Entry{
		{LD: 10, EA: 5},
		{LD: 20, EA: 15},
		{LD: 30, EA: 40},
	}}
	cases := []struct{ t, want float64 }{
		{0, 5},   // before EA: wait until 5
		{7, 7},   // within [EA, LD] of first: immediate (contemporaneous path)
		{10, 10}, // boundary
		{11, 15}, // second entry applies
		{20, 20},
		{25, 40}, // third entry: store-and-forward until 40
		{30, 40},
		{31, math.Inf(1)}, // after last LD: unreachable
	}
	for _, c := range cases {
		if got := f.Del(c.t); got != c.want {
			t.Errorf("Del(%v) = %v, want %v", c.t, got, c.want)
		}
	}
	var empty Frontier
	if !math.IsInf(empty.Del(0), 1) {
		t.Error("empty frontier Del should be +Inf")
	}
}

func TestDelay(t *testing.T) {
	f := Frontier{Entries: []Entry{{LD: 10, EA: 20}}}
	if got := f.Delay(4); got != 16 {
		t.Errorf("Delay(4) = %v, want 16", got)
	}
	if got := f.Delay(11); !math.IsInf(got, 1) {
		t.Errorf("Delay(11) = %v, want +Inf", got)
	}
}

// bruteDel evaluates del(t) straight from eq. 3 of the paper.
func bruteDel(entries []Entry, t float64) float64 {
	best := math.Inf(1)
	for _, e := range entries {
		if t <= e.LD {
			if v := math.Max(t, e.EA); v < best {
				best = v
			}
		}
	}
	return best
}

func TestDelMatchesDefinitionProperty(t *testing.T) {
	r := rng.New(55)
	err := quick.Check(func(seed uint64) bool {
		var f frontier2D
		n := 1 + r.Intn(30)
		var all []Entry
		for i := 0; i < n; i++ {
			e := Entry{LD: r.Uniform(0, 100), EA: r.Uniform(0, 100), Hop: 1}
			all = append(all, e)
			f.add(e)
		}
		fr := Frontier{Entries: f}
		// del over the pruned frontier must equal del over the raw set:
		// pruning loses nothing (paper condition 4).
		for probe := 0; probe < 50; probe++ {
			tt := r.Uniform(-10, 120)
			if math.Abs(fr.Del(tt)-bruteDel(all, tt)) > 1e-9 {
				want, got := bruteDel(all, tt), fr.Del(tt)
				if !(math.IsInf(want, 1) && math.IsInf(got, 1)) {
					return false
				}
			}
		}
		return true
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSuccessWithinExact(t *testing.T) {
	// Single entry (LD=10, EA=20): delay(t) = 20−t for t ≤ 10, else ∞.
	f := Frontier{Entries: []Entry{{LD: 10, EA: 20}}}
	// Over [0, 40], delay ≤ 12 ⟺ t ∈ [8, 10]: measure 2.
	if got := f.SuccessWithin(12, 0, 40); math.Abs(got-2) > 1e-12 {
		t.Errorf("SuccessWithin(12) = %v, want 2", got)
	}
	// delay ≤ 25 ⟺ t ∈ [0, 10] (clamped by LD): measure 10.
	if got := f.SuccessWithin(25, 0, 40); math.Abs(got-10) > 1e-12 {
		t.Errorf("SuccessWithin(25) = %v, want 10", got)
	}
	// delay ≤ 5 ⟺ t ∈ [15, 10] = ∅.
	if got := f.SuccessWithin(5, 0, 40); got != 0 {
		t.Errorf("SuccessWithin(5) = %v, want 0", got)
	}
}

func TestSuccessWithinContemporaneous(t *testing.T) {
	// Entry with EA ≤ LD: immediate delivery possible during [EA, LD].
	f := Frontier{Entries: []Entry{{LD: 30, EA: 10}}}
	// delay ≤ 0 ⟺ t ∈ [10, 30]: measure 20.
	if got := f.SuccessWithin(0, 0, 100); math.Abs(got-20) > 1e-12 {
		t.Errorf("SuccessWithin(0) = %v, want 20", got)
	}
}

func TestSuccessWithinMatchesSampling(t *testing.T) {
	r := rng.New(66)
	err := quick.Check(func(seed uint64) bool {
		var f frontier2D
		for i := 0; i < 1+r.Intn(20); i++ {
			f.add(Entry{LD: r.Uniform(0, 100), EA: r.Uniform(0, 100), Hop: 1})
		}
		fr := Frontier{Entries: f}
		d := r.Uniform(0, 60)
		a, b := 0.0, 100.0
		exact := fr.SuccessWithin(d, a, b)
		// Riemann estimate.
		const samples = 20000
		hits := 0
		for i := 0; i < samples; i++ {
			t := a + (float64(i)+0.5)*(b-a)/samples
			if fr.Delay(t) <= d {
				hits++
			}
		}
		est := float64(hits) * (b - a) / samples
		return math.Abs(exact-est) < 0.1
	}, &quick.Config{MaxCount: 100})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSuccessWithinMonotoneInD(t *testing.T) {
	f := Frontier{Entries: []Entry{{LD: 10, EA: 20}, {LD: 50, EA: 45}, {LD: 80, EA: 90}}}
	prev := -1.0
	for d := 0.0; d < 100; d += 2.5 {
		got := f.SuccessWithin(d, 0, 100)
		if got < prev-1e-12 {
			t.Fatalf("SuccessWithin not monotone at d=%v", d)
		}
		if got > 100 {
			t.Fatalf("SuccessWithin exceeds window length: %v", got)
		}
		prev = got
	}
}

func TestSuccessWithinDegenerate(t *testing.T) {
	f := Frontier{Entries: []Entry{{LD: 10, EA: 5}}}
	if f.SuccessWithin(1, 5, 5) != 0 {
		t.Error("empty window should give 0")
	}
	if f.SuccessWithin(-1, 0, 10) != 0 {
		t.Error("negative budget should give 0")
	}
	var empty Frontier
	if empty.SuccessWithin(10, 0, 10) != 0 {
		t.Error("empty frontier should give 0")
	}
}

func TestFrontier3DAdd(t *testing.T) {
	var f frontier3D
	f.add(Entry{LD: 10, EA: 5, Hop: 3})
	// Same times, fewer hops: both must coexist? No — fewer hops with
	// equal times dominates.
	if !f.add(Entry{LD: 10, EA: 5, Hop: 2}) {
		t.Fatal("fewer-hop duplicate rejected")
	}
	if len(f) != 1 || f[0].Hop != 2 {
		t.Fatalf("frontier = %+v", f)
	}
	// Worse times but fewer hops: incomparable, coexists.
	if !f.add(Entry{LD: 8, EA: 6, Hop: 1}) {
		t.Fatal("incomparable 3D entry rejected")
	}
	if len(f) != 2 {
		t.Fatalf("frontier size %d, want 2", len(f))
	}
	// Dominated in all three: rejected.
	if f.add(Entry{LD: 7, EA: 7, Hop: 2}) {
		t.Fatal("3D-dominated entry accepted")
	}
}

func TestMaxHop(t *testing.T) {
	f := Frontier{Entries: []Entry{{Hop: 2}, {Hop: 5}, {Hop: 1}}}
	if f.MaxHop() != 5 {
		t.Errorf("MaxHop = %d", f.MaxHop())
	}
	var empty Frontier
	if empty.MaxHop() != 0 {
		t.Error("empty MaxHop should be 0")
	}
}

// brute3D maintains a hop-aware Pareto set the obvious way.
type brute3D []Entry

func (b *brute3D) add(e Entry) bool {
	for _, q := range *b {
		if dominates3D(q, e) {
			return false
		}
	}
	out := (*b)[:0]
	for _, q := range *b {
		if !dominates3D(e, q) {
			out = append(out, q)
		}
	}
	*b = append(out, e)
	return true
}

func TestFrontier3DMatchesBruteForce(t *testing.T) {
	r := rng.New(414)
	err := quick.Check(func(seed uint64) bool {
		var fast frontier3D
		var slow brute3D
		for i := 0; i < 3+r.Intn(50); i++ {
			e := Entry{
				LD:  float64(r.Intn(12)),
				EA:  float64(r.Intn(12)),
				Hop: int32(1 + r.Intn(5)),
			}
			if fast.add(e) != slow.add(e) {
				return false
			}
		}
		if len(fast) != len(slow) {
			return false
		}
		// Same sets (order-insensitive).
		for _, e := range slow {
			found := false
			for _, q := range fast {
				if q == e {
					found = true
					break
				}
			}
			if !found {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 300})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDelDeltaUsesHopPenalty(t *testing.T) {
	// Two entries with identical times but different hop counts: the
	// fewer-hop one delivers earlier once the start time pushes the
	// chain (delay = max(EA, t+(h-1)d) + d).
	f := Frontier{Delta: 10, Entries: []Entry{
		{LD: 100, EA: 0, Hop: 5},
		{LD: 60, EA: 0, Hop: 2},
	}}
	// At t=50: 5-hop chain delivers at 50+4*10+10 = 100; 2-hop at
	// 50+10+10 = 70.
	if got := f.Del(50); got != 70 {
		t.Fatalf("Del(50) = %v, want 70", got)
	}
	// At t=70 the 2-hop entry has expired (LD=60): 70+40+10 = 120.
	if got := f.Del(70); got != 120 {
		t.Fatalf("Del(70) = %v, want 120", got)
	}
}

func TestParetoSetPublicAPI(t *testing.T) {
	var p ParetoSet
	if !p.Add(Entry{LD: 5, EA: 1, Hop: 1}) || p.Len() != 1 {
		t.Fatal("Add/Len broken")
	}
	p.Add(Entry{LD: 3, EA: 2, Hop: 1}) // dominated
	if p.Len() != 1 {
		t.Fatal("dominated entry entered the set")
	}
	es := p.Entries()
	es[0].LD = -1 // must not alias
	if p.Entries()[0].LD != 5 {
		t.Fatal("Entries leaked internal storage")
	}
}
