package analysis

import (
	"math"
	"testing"

	"opportunet/internal/core"
	"opportunet/internal/stats"
	"opportunet/internal/trace"
	"opportunet/internal/tracegen"
)

// line builds the 3-device trace used in several tests:
// 0-1 at [0,10], 1-2 at [20,30], direct 0-2 at [60,70]; window [0,100].
func line() *trace.Trace {
	return &trace.Trace{
		Name: "line", Start: 0, End: 100, Kinds: make([]trace.Kind, 3),
		Contacts: []trace.Contact{
			{A: 0, B: 1, Beg: 0, End: 10},
			{A: 1, B: 2, Beg: 20, End: 30},
			{A: 0, B: 2, Beg: 60, End: 70},
		},
	}
}

func mustStudy(t *testing.T, tr *trace.Trace) *Study {
	t.Helper()
	s, err := NewStudy(tr, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewStudyPairs(t *testing.T) {
	s := mustStudy(t, line())
	if len(s.Pairs) != 6 {
		t.Fatalf("pairs = %d, want 6 ordered pairs", len(s.Pairs))
	}
}

func TestNewStudyRejectsTinyTraces(t *testing.T) {
	tr := &trace.Trace{Name: "one", Start: 0, End: 1, Kinds: []trace.Kind{trace.Internal, trace.External}}
	if _, err := NewStudy(tr, core.Options{}); err == nil {
		t.Fatal("study with one internal device accepted")
	}
}

func TestSuccessProbabilityHandComputed(t *testing.T) {
	s := mustStudy(t, line())
	// Budget 0 (immediate delivery): measure of contemporaneous windows.
	// Pair (0,1) & (1,0): contact [0,10] → 10. (1,2) & (2,1): 10.
	// (0,2) & (2,0): direct [60,70] → 10; two-hop path has EA=20 > LD=10
	// so nothing contemporaneous. Total 60 over 6 pairs × 100 s.
	got := s.SuccessProbability(0, Unbounded)
	want := 60.0 / 600.0
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("P[delay<=0] = %v, want %v", got, want)
	}
	// Budget 20, pair (0,2): two-hop (LD=10, EA=20): success for
	// t in [0,10]; direct: t in [40,70]. Union 10+30 = 40.
	// Pair (2,0): only the direct contact works chronologically
	// backwards... 2→0: 2-1 needs [20,30] then 1-0 [0,10]: invalid; so
	// direct only: t in [40,70] → 30.
	// Pair (0,1): delay ≤ 20 ⟺ t ≤ 10: measure... Del(t)=max(t,0) for
	// t<=10: delay 0; beyond 10: no path (no later 0-1 contact... but
	// 0-2 at [60,70] then 2-1? 2-1 contact is [20,30], before: invalid.
	// So 10. Same for (1,0): 10.
	// Pair (1,2): contact [20,30]: t ≤ 30 gives delay max(0,20−t)≤20 ⟺
	// t ≥ 0: measure 30. Also later path 1-0? none. So 30.
	// Pair (2,1): 30. Total: 40+30+10+10+30+30 = 150.
	got = s.SuccessProbability(20, Unbounded)
	want = 150.0 / 600.0
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("P[delay<=20] = %v, want %v", got, want)
	}
	// One-hop bound removes the relay path for (0,2).
	got = s.SuccessProbability(20, 1)
	want = 140.0 / 600.0
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("P[delay<=20, 1 hop] = %v, want %v", got, want)
	}
}

func TestDelayCDFsMonotone(t *testing.T) {
	s := mustStudy(t, line())
	grid := stats.LinSpace(0, 100, 21)
	cdfs := s.DelayCDFs([]int{1, 2, Unbounded}, grid)
	if len(cdfs) != 3 {
		t.Fatalf("got %d CDFs", len(cdfs))
	}
	for _, c := range cdfs {
		prev := -1.0
		for i, v := range c.Success {
			if v < prev-1e-12 || v < 0 || v > 1 {
				t.Fatalf("hop %d: CDF not monotone/in range at %d: %v", c.HopBound, i, v)
			}
			prev = v
		}
	}
	// More hops allowed → at least as much success, pointwise.
	for i := range grid {
		if cdfs[0].Success[i] > cdfs[1].Success[i]+1e-12 ||
			cdfs[1].Success[i] > cdfs[2].Success[i]+1e-12 {
			t.Fatalf("success not monotone in hop bound at grid %d", i)
		}
	}
}

func TestDiameterLineTrace(t *testing.T) {
	s := mustStudy(t, line())
	grid := stats.LinSpace(0, 100, 51)
	// The 2-hop relay path contributes real success mass that 1 hop
	// cannot reach, so the diameter must be 2 at eps = 0.01.
	d, worst := s.Diameter(0.01, grid)
	if d != 2 {
		t.Fatalf("diameter = %d, want 2", d)
	}
	if worst < 0.99 {
		t.Fatalf("worst ratio %v for returned diameter", worst)
	}
	// With a very lax eps the diameter shrinks to 1: the direct contact
	// already achieves >50%% of the flooding success at every budget on
	// this trace... verify by computing it.
	dLax, _ := s.Diameter(0.5, grid)
	if dLax != 1 {
		t.Fatalf("lax diameter = %d, want 1", dLax)
	}
}

func TestDiameterAtDelay(t *testing.T) {
	s := mustStudy(t, line())
	grid := []float64{0, 20, 100}
	ks := s.DiameterAtDelay(0.01, grid)
	if len(ks) != 3 {
		t.Fatalf("got %d entries", len(ks))
	}
	// Budget 0: only contemporaneous contacts matter; 1 hop achieves all
	// of it (the 2-hop path is never contemporaneous here).
	if ks[0] != 1 {
		t.Errorf("diameter at budget 0 = %d, want 1", ks[0])
	}
	// Budget 20: the 2-hop path for (0,2) contributes (40 vs 30)/600.
	if ks[1] != 2 {
		t.Errorf("diameter at budget 20 = %d, want 2", ks[1])
	}
}

func TestFindDeliveryExample(t *testing.T) {
	// Chain of 4 devices: pair (0,3) needs exactly 3 hops.
	tr := &trace.Trace{
		Name: "chain", Start: 0, End: 100, Kinds: make([]trace.Kind, 4),
		Contacts: []trace.Contact{
			{A: 0, B: 1, Beg: 0, End: 10},
			{A: 1, B: 2, Beg: 20, End: 30},
			{A: 2, B: 3, Beg: 40, End: 50},
		},
	}
	s := mustStudy(t, tr)
	ex, err := s.FindDeliveryExample(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if ex.Src != 0 || ex.Dst != 3 {
		t.Fatalf("example pair (%d,%d), want (0,3)", ex.Src, ex.Dst)
	}
	if len(ex.Frontiers) != 5 { // bounds 1..4 plus unbounded
		t.Fatalf("got %d frontiers", len(ex.Frontiers))
	}
	if !ex.Frontiers[0].Empty() || !ex.Frontiers[1].Empty() {
		t.Error("bounds 1 and 2 should be empty")
	}
	if ex.Frontiers[2].Empty() || ex.Frontiers[4].Empty() {
		t.Error("bound 3 and unbounded should be non-empty")
	}
	if _, err := s.FindDeliveryExample(9, 4); err == nil {
		t.Error("impossible example request should fail")
	}
}

func TestAverageCDFs(t *testing.T) {
	grid := []float64{1, 2}
	a := []DelayCDF{{HopBound: 1, Grid: grid, Success: []float64{0.2, 0.4}}}
	b := []DelayCDF{{HopBound: 1, Grid: grid, Success: []float64{0.4, 0.8}}}
	avg, err := AverageCDFs([][]DelayCDF{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(avg[0].Success[0]-0.3) > 1e-12 || math.Abs(avg[0].Success[1]-0.6) > 1e-12 {
		t.Fatalf("avg = %+v", avg[0].Success)
	}
	if _, err := AverageCDFs(nil); err == nil {
		t.Error("empty average should fail")
	}
	c := []DelayCDF{{HopBound: 2, Grid: grid, Success: []float64{0, 0}}}
	if _, err := AverageCDFs([][]DelayCDF{a, c}); err == nil {
		t.Error("mismatched layouts should fail")
	}
}

func TestRandomRemovalStudy(t *testing.T) {
	cfg := tracegen.Infocom05Config()
	cfg.TargetContacts = 1500
	cfg.ExternalDevices, cfg.ExternalContacts = 0, 0
	cfg.Devices = 15
	tr, err := tracegen.Generate(cfg, 21)
	if err != nil {
		t.Fatal(err)
	}
	grid := stats.LogSpace(120, 86400, 10)
	base, err := NewStudy(tr, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	baseCDF := base.DelayCDFs([]int{Unbounded}, grid)[0]

	avg, diams, err := RandomRemovalStudy(tr, 0.9, 3, 99, core.Options{}, []int{Unbounded}, grid, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if len(diams) != 3 {
		t.Fatalf("got %d diameters", len(diams))
	}
	// Removing 90% of contacts must hurt success at every budget where
	// the base had any.
	worse := 0
	for i := range grid {
		if avg[0].Success[i] < baseCDF.Success[i]-1e-9 {
			worse++
		}
	}
	if worse < len(grid)/2 {
		t.Fatalf("removal did not degrade success (%d/%d points)", worse, len(grid))
	}
	if _, _, err := RandomRemovalStudy(tr, 0.5, 0, 1, core.Options{}, []int{0}, grid, 0.01); err == nil {
		t.Error("zero repetitions should fail")
	}
}

func TestDurationThresholdStudy(t *testing.T) {
	tr := line()
	st, removed, err := DurationThresholdStudy(tr, 10, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if removed != 0 {
		t.Fatalf("removed = %v, want 0 (all contacts last 10)", removed)
	}
	if st.View.NumContacts() != 3 {
		t.Fatal("contacts lost unexpectedly")
	}
	st2, removed2, err := DurationThresholdStudy(tr, 11, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if removed2 != 1 || st2.View.NumContacts() != 0 {
		t.Fatalf("removed = %v with %d left", removed2, st2.View.NumContacts())
	}
}

func TestSummarize(t *testing.T) {
	tr := &trace.Trace{
		Name: "sum", Granularity: 120, Start: 0, End: 2 * 86400,
		Kinds: []trace.Kind{trace.Internal, trace.Internal, trace.External},
		Contacts: []trace.Contact{
			{A: 0, B: 1, Beg: 0, End: 120},
			{A: 0, B: 2, Beg: 500, End: 620},
		},
	}
	s := Summarize(tr)
	if s.InternalDevices != 2 || s.ExternalDevices != 1 {
		t.Fatalf("device counts: %+v", s)
	}
	if s.InternalContacts != 1 || s.ExternalContacts != 1 {
		t.Fatalf("contact counts: %+v", s)
	}
	if s.DurationDays != 2 {
		t.Fatalf("days = %v", s.DurationDays)
	}
	// Internal rate: 1 contact × 2 endpoints / 2 devices / 2 days = 0.5.
	if math.Abs(s.InternalRate-0.5) > 1e-12 {
		t.Fatalf("internal rate = %v", s.InternalRate)
	}
	// Total: contacts 0-1 (2 internal endpoints) + 0-2 (1 internal
	// endpoint) = 3 / 2 devices / 2 days = 0.75.
	if math.Abs(s.TotalRate-0.75) > 1e-12 {
		t.Fatalf("total rate = %v", s.TotalRate)
	}
}

func TestDelayCDFsWindow(t *testing.T) {
	s := mustStudy(t, line())
	grid := []float64{0, 20, 100}
	// Window [0, 15]: only starting times before 15 count. Pair (0,2)
	// with budget 20: the relay path works for t in [0,10] -> measure 10
	// of 15. Full-window result differs, so windows must matter.
	windowed := s.DelayCDFsWindow([]int{Unbounded}, grid, 0, 15)[0]
	full := s.DelayCDFs([]int{Unbounded}, grid)[0]
	if windowed.Success[1] == full.Success[1] {
		t.Fatal("windowed CDF should differ from full-window CDF")
	}
	// Hand value at budget 20, window [0,15]:
	// (0,1) & (1,0): delay<=20 iff t<=10 -> 10 each.
	// (1,2) & (2,1): contact [20,30]: del(t)=20 for t<=20; delay=20-t<=20
	// always for t in [0,15] -> 15 each.
	// (0,2): relay LD=10 EA=20: t<=10 gives delay 20-t in [10,20]<=20 ->
	// 10. Direct [60,70] needs t>=40: outside window.
	// (2,0): direct only, t>=40: 0.
	// Total (10+10+15+15+10+0)/(6*15) = 60/90.
	want := 60.0 / 90.0
	if math.Abs(windowed.Success[1]-want) > 1e-12 {
		t.Fatalf("windowed success = %v, want %v", windowed.Success[1], want)
	}
}

func TestSelfCheck(t *testing.T) {
	cfg := tracegen.Infocom05Config()
	cfg.Devices = 12
	cfg.TargetContacts = 800
	cfg.ExternalDevices, cfg.ExternalContacts = 0, 0
	tr, err := tracegen.Generate(cfg, 31)
	if err != nil {
		t.Fatal(err)
	}
	st := mustStudy(t, tr)
	if err := st.SelfCheck(5, 1); err != nil {
		t.Fatalf("self-check failed on a healthy study: %v", err)
	}
}

func TestDiameterVsEpsilon(t *testing.T) {
	s := mustStudy(t, line())
	grid := stats.LinSpace(0, 100, 51)
	eps := []float64{0.001, 0.01, 0.2, 0.5}
	ds := s.DiameterVsEpsilon(eps, grid)
	if len(ds) != len(eps) {
		t.Fatalf("got %d values", len(ds))
	}
	// Monotone non-increasing in epsilon.
	for i := 1; i < len(ds); i++ {
		if ds[i] > ds[i-1] {
			t.Fatalf("diameter not monotone in eps: %v", ds)
		}
	}
	// Consistency with the single-eps API.
	for i, e := range eps {
		want, _ := s.Diameter(e, grid)
		if ds[i] != want {
			t.Fatalf("eps=%v: sweep %d vs Diameter %d", e, ds[i], want)
		}
	}
}
