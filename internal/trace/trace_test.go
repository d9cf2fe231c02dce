package trace

import (
	"math"
	"testing"

	"opportunet/internal/rng"
)

// tiny builds a 4-node trace used across tests.
func tiny() *Trace {
	return &Trace{
		Name:        "tiny",
		Granularity: 10,
		Start:       0,
		End:         1000,
		Kinds:       []Kind{Internal, Internal, Internal, External},
		Contacts: []Contact{
			{A: 0, B: 1, Beg: 100, End: 200},
			{A: 1, B: 2, Beg: 150, End: 160},
			{A: 0, B: 2, Beg: 500, End: 800},
			{A: 2, B: 3, Beg: 900, End: 950},
		},
	}
}

func TestValidateOK(t *testing.T) {
	if err := tiny().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejects(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Trace)
	}{
		{"out of range", func(tr *Trace) { tr.Contacts[0].B = 99 }},
		{"negative id", func(tr *Trace) { tr.Contacts[0].A = -1 }},
		{"self contact", func(tr *Trace) { tr.Contacts[0].B = tr.Contacts[0].A }},
		{"negative duration", func(tr *Trace) { tr.Contacts[0].End = tr.Contacts[0].Beg - 1 }},
		{"NaN time", func(tr *Trace) { tr.Contacts[0].Beg = math.NaN() }},
		{"inverted window", func(tr *Trace) { tr.End = tr.Start - 1 }},
	}
	for _, c := range cases {
		tr := tiny()
		c.mut(tr)
		if err := tr.Validate(); err == nil {
			t.Errorf("%s: Validate accepted an invalid trace", c.name)
		}
	}
}

func TestCounts(t *testing.T) {
	tr := tiny()
	if tr.NumNodes() != 4 {
		t.Errorf("NumNodes = %d", tr.NumNodes())
	}
	if tr.NumInternal() != 3 {
		t.Errorf("NumInternal = %d", tr.NumInternal())
	}
	in := tr.InternalNodes()
	if len(in) != 3 || in[0] != 0 || in[2] != 2 {
		t.Errorf("InternalNodes = %v", in)
	}
	if tr.Duration() != 1000 {
		t.Errorf("Duration = %v", tr.Duration())
	}
}

func TestCloneIndependence(t *testing.T) {
	tr := tiny()
	cp := tr.Clone()
	cp.Contacts[0].Beg = -42
	cp.Kinds[0] = External
	if tr.Contacts[0].Beg == -42 || tr.Kinds[0] == External {
		t.Fatal("Clone shares storage with original")
	}
}

func TestInternalOnly(t *testing.T) {
	got := tiny().InternalOnly()
	if len(got.Contacts) != 3 {
		t.Fatalf("InternalOnly kept %d contacts, want 3", len(got.Contacts))
	}
	for _, c := range got.Contacts {
		if got.Kinds[c.A] != Internal || got.Kinds[c.B] != Internal {
			t.Fatal("InternalOnly kept a contact touching an external device")
		}
	}
}

func TestTimeWindowClips(t *testing.T) {
	got := tiny().TimeWindow(150, 600)
	if got.Start != 150 || got.End != 600 {
		t.Fatalf("window [%v, %v]", got.Start, got.End)
	}
	// Contacts: [100,200]→[150,200], [150,160] kept, [500,800]→[500,600],
	// [900,950] dropped.
	if len(got.Contacts) != 3 {
		t.Fatalf("kept %d contacts, want 3", len(got.Contacts))
	}
	for _, c := range got.Contacts {
		if c.Beg < 150 || c.End > 600 {
			t.Fatalf("contact not clipped: %+v", c)
		}
	}
}

func TestTimeWindowBoundaries(t *testing.T) {
	tr := &Trace{
		Start: 0, End: 1000, Kinds: make([]Kind, 2),
		Contacts: []Contact{
			{A: 0, B: 1, Beg: 0, End: 100},   // ends exactly at window start
			{A: 0, B: 1, Beg: 100, End: 100}, // instantaneous at window start
			{A: 0, B: 1, Beg: 150, End: 150}, // instantaneous inside
			{A: 0, B: 1, Beg: 300, End: 300}, // instantaneous at window end
			{A: 0, B: 1, Beg: 300, End: 400}, // begins exactly at window end
			{A: 0, B: 1, Beg: 500, End: 500}, // instantaneous outside
			{A: 0, B: 1, Beg: 90, End: 110},  // straddles window start
		},
	}
	got := tr.TimeWindow(100, 300)
	// A positive-length contact survives only with positive overlap, so
	// the two contacts merely touching the boundary are dropped; the
	// instantaneous contacts at 100, 150 and 300 are all inside the
	// closed window and survive unclipped.
	want := []Contact{
		{A: 0, B: 1, Beg: 100, End: 100},
		{A: 0, B: 1, Beg: 150, End: 150},
		{A: 0, B: 1, Beg: 300, End: 300},
		{A: 0, B: 1, Beg: 100, End: 110}, // straddler, clipped
	}
	if len(got.Contacts) != len(want) {
		t.Fatalf("kept %d contacts, want %d: %+v", len(got.Contacts), len(want), got.Contacts)
	}
	for i, w := range want {
		if got.Contacts[i] != w {
			t.Fatalf("contact %d = %+v, want %+v", i, got.Contacts[i], w)
		}
	}
	// A window touching only instantaneous contacts keeps exactly them.
	pt := tr.TimeWindow(150, 150)
	if len(pt.Contacts) != 1 || pt.Contacts[0].Beg != 150 {
		t.Fatalf("degenerate window kept %+v", pt.Contacts)
	}
}

func TestMinDuration(t *testing.T) {
	got := tiny().MinDuration(50)
	// Durations are 100, 10, 300, 50; threshold >= 50 keeps three.
	if len(got.Contacts) != 3 {
		t.Fatalf("kept %d contacts, want 3", len(got.Contacts))
	}
}

func TestRemoveRandomExtremes(t *testing.T) {
	tr := tiny()
	r := rng.New(1)
	if got := tr.RemoveRandom(0, r); len(got.Contacts) != len(tr.Contacts) {
		t.Fatal("RemoveRandom(0) dropped contacts")
	}
	if got := tr.RemoveRandom(1, r); len(got.Contacts) != 0 {
		t.Fatal("RemoveRandom(1) kept contacts")
	}
}

func TestRemoveRandomFraction(t *testing.T) {
	tr := &Trace{Start: 0, End: 1, Kinds: make([]Kind, 2)}
	for i := 0; i < 10000; i++ {
		tr.Contacts = append(tr.Contacts, Contact{A: 0, B: 1, Beg: float64(i), End: float64(i)})
	}
	got := tr.RemoveRandom(0.9, rng.New(2))
	frac := float64(len(got.Contacts)) / 10000
	if math.Abs(frac-0.1) > 0.02 {
		t.Fatalf("RemoveRandom(0.9) kept fraction %v, want ~0.1", frac)
	}
}

func TestDurationsAndRate(t *testing.T) {
	tr := tiny()
	d := tr.Durations()
	if len(d) != 4 || d[0] != 100 || d[2] != 300 {
		t.Fatalf("Durations = %v", d)
	}
	// Window is 1000 s. Internal endpoints: contacts 1,2,3 have 2 each,
	// contact 4 (2-3) has 1 internal endpoint → 7 events over 3 devices.
	days := 1000.0 / 86400
	want := 7.0 / 3 / days
	if got := tr.RateOfContact(); math.Abs(got-want) > 1e-9 {
		t.Fatalf("RateOfContact = %v, want %v", got, want)
	}
}

func TestRateOfContactDegenerate(t *testing.T) {
	tr := &Trace{Start: 0, End: 0, Kinds: []Kind{Internal}}
	if tr.RateOfContact() != 0 {
		t.Fatal("zero-length window should give rate 0")
	}
	tr2 := &Trace{Start: 0, End: 10, Kinds: []Kind{External, External}}
	if tr2.RateOfContact() != 0 {
		t.Fatal("no internal devices should give rate 0")
	}
}

func TestContactsPerNode(t *testing.T) {
	got := tiny().ContactsPerNode()
	want := []int{2, 2, 3, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ContactsPerNode = %v, want %v", got, want)
		}
	}
}

func TestSortByBeg(t *testing.T) {
	tr := tiny()
	tr.Contacts[0], tr.Contacts[2] = tr.Contacts[2], tr.Contacts[0]
	tr.SortByBeg()
	for i := 1; i < len(tr.Contacts); i++ {
		if tr.Contacts[i].Beg < tr.Contacts[i-1].Beg {
			t.Fatal("not sorted by Beg")
		}
	}
}

func TestHourlyContactCounts(t *testing.T) {
	tr := &Trace{
		Start: 0, End: 3 * 3600, Kinds: make([]Kind, 2),
		Contacts: []Contact{
			{A: 0, B: 1, Beg: 100, End: 200},
			{A: 0, B: 1, Beg: 3599, End: 3700},
			{A: 0, B: 1, Beg: 3601, End: 3700},
			{A: 0, B: 1, Beg: 2 * 3600, End: 2*3600 + 10},
		},
	}
	got := tr.HourlyContactCounts()
	want := []int{2, 1, 1}
	if len(got) != len(want) {
		t.Fatalf("len = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("HourlyContactCounts = %v, want %v", got, want)
		}
	}
	empty := &Trace{Start: 5, End: 5, Kinds: make([]Kind, 2)}
	if empty.HourlyContactCounts() != nil {
		t.Fatal("empty window should give nil")
	}
}

func TestPeakToTroughRatio(t *testing.T) {
	// 4 hours: counts 10, 2, 2, 0 -> peak 10, median of {10,2,2,0} = 2.
	tr := &Trace{Start: 0, End: 4 * 3600, Kinds: make([]Kind, 2)}
	add := func(hour, n int) {
		for i := 0; i < n; i++ {
			beg := float64(hour)*3600 + float64(i)
			tr.Contacts = append(tr.Contacts, Contact{A: 0, B: 1, Beg: beg, End: beg + 1})
		}
	}
	add(0, 10)
	add(1, 2)
	add(2, 2)
	if got := tr.PeakToTroughRatio(); got != 5 {
		t.Fatalf("PeakToTroughRatio = %v, want 5", got)
	}
	silent := &Trace{Start: 0, End: 3600, Kinds: make([]Kind, 2)}
	if silent.PeakToTroughRatio() != 0 {
		t.Fatal("silent trace should give 0")
	}
	// Mostly-silent trace with one busy hour: median 0 -> +Inf.
	spiky := &Trace{Start: 0, End: 10 * 3600, Kinds: make([]Kind, 2)}
	spiky.Contacts = []Contact{{A: 0, B: 1, Beg: 10, End: 20}}
	if !math.IsInf(spiky.PeakToTroughRatio(), 1) {
		t.Fatal("spiky trace should give +Inf")
	}
}

func TestGeneratedTraceHasDiurnalContrast(t *testing.T) {
	// Integration: tracegen cannot be imported here (cycle), so build a
	// simple two-phase trace and verify the statistic reacts.
	tr := &Trace{Start: 0, End: 48 * 3600, Kinds: make([]Kind, 2)}
	for h := 0; h < 48; h++ {
		n := 1
		if h%24 >= 9 && h%24 < 18 {
			n = 20
		}
		for i := 0; i < n; i++ {
			beg := float64(h)*3600 + float64(i*10)
			tr.Contacts = append(tr.Contacts, Contact{A: 0, B: 1, Beg: beg, End: beg + 5})
		}
	}
	if r := tr.PeakToTroughRatio(); r < 5 {
		t.Fatalf("day/night trace ratio %v, want >= 5", r)
	}
}

func TestCompact(t *testing.T) {
	tr := &Trace{
		Start: 0, End: 100,
		Kinds: []Kind{Internal, External, Internal, Internal, External},
		Contacts: []Contact{
			{A: 4, B: 0, Beg: 0, End: 1},
			{A: 2, B: 4, Beg: 5, End: 6},
		},
	}
	cp, oldID := tr.Compact()
	if cp.NumNodes() != 3 {
		t.Fatalf("compacted to %d devices, want 3", cp.NumNodes())
	}
	if err := cp.Validate(); err != nil {
		t.Fatal(err)
	}
	// Mapping covers devices 0, 2, 4 in order.
	want := []NodeID{0, 2, 4}
	for i := range want {
		if oldID[i] != want[i] {
			t.Fatalf("oldID = %v, want %v", oldID, want)
		}
	}
	// Kinds follow the mapping: old 4 was External.
	if cp.Kinds[0] != Internal || cp.Kinds[2] != External {
		t.Fatalf("kinds %v", cp.Kinds)
	}
	// Contacts renumbered: (4,0) -> (2,0).
	if cp.Contacts[0].A != 2 || cp.Contacts[0].B != 0 {
		t.Fatalf("contact 0 = %+v", cp.Contacts[0])
	}
	// Original untouched.
	if tr.Contacts[0].A != 4 {
		t.Fatal("Compact modified the original")
	}
}

func TestCompactEmptyTrace(t *testing.T) {
	tr := &Trace{Start: 0, End: 10, Kinds: make([]Kind, 5)}
	cp, oldID := tr.Compact()
	if cp.NumNodes() != 0 || len(oldID) != 0 {
		t.Fatalf("empty trace should compact to nothing, got %d devices", cp.NumNodes())
	}
}
