package timeline_test

import (
	"math"
	"testing"

	"opportunet/internal/rng"
	"opportunet/internal/timeline"
	"opportunet/internal/trace"
)

// checkIndexEqual compares every exported index surface of two views
// element for element — DirContact and Interval values include the
// positional CIdx, so agreement here means the underlying arrays are
// identical, not merely equivalent.
func checkIndexEqual(t *testing.T, got, want *timeline.View) {
	t.Helper()
	n := want.NumNodes()
	if got.NumNodes() != n {
		t.Fatalf("NumNodes: got %d, want %d", got.NumNodes(), n)
	}
	if got.NumContacts() != want.NumContacts() {
		t.Fatalf("NumContacts: got %d, want %d", got.NumContacts(), want.NumContacts())
	}
	for u := 0; u < n; u++ {
		id := trace.NodeID(u)
		gb, ge, gs := got.OutgoingIndex(id)
		wb, we, ws := want.OutgoingIndex(id)
		if len(gb) != len(wb) {
			t.Fatalf("node %d: adjacency size %d, want %d", u, len(gb), len(wb))
		}
		for i := range wb {
			if gb[i] != wb[i] {
				t.Fatalf("node %d byBeg[%d]: got %+v, want %+v", u, i, gb[i], wb[i])
			}
			if ge[i] != we[i] {
				t.Fatalf("node %d byEnd[%d]: got %+v, want %+v", u, i, ge[i], we[i])
			}
			if gs[i] != ws[i] {
				t.Fatalf("node %d sufMinBeg[%d]: got %v, want %v", u, i, gs[i], ws[i])
			}
		}
		gp, wp := got.Partners(id), want.Partners(id)
		if len(gp) != len(wp) {
			t.Fatalf("node %d: partners %v, want %v", u, gp, wp)
		}
		for i := range wp {
			if gp[i] != wp[i] {
				t.Fatalf("node %d partners[%d]: got %d, want %d", u, i, gp[i], wp[i])
			}
		}
	}
	np := want.Timeline().NumPairs()
	if got.Timeline().NumPairs() != np {
		t.Fatalf("NumPairs: got %d, want %d", got.Timeline().NumPairs(), np)
	}
	for p := 0; p < np; p++ {
		ga, gbn := got.PairEndpoints(p)
		wa, wbn := want.PairEndpoints(p)
		if ga != wa || gbn != wbn {
			t.Fatalf("pair %d endpoints: got (%d,%d), want (%d,%d)", p, ga, gbn, wa, wbn)
		}
		gi, wi := got.PairIntervals(p), want.PairIntervals(p)
		if len(gi) != len(wi) {
			t.Fatalf("pair %d: %d intervals, want %d", p, len(gi), len(wi))
		}
		for i := range wi {
			if gi[i] != wi[i] {
				t.Fatalf("pair %d interval[%d]: got %+v, want %+v", p, i, gi[i], wi[i])
			}
		}
	}
}

// header returns an empty trace carrying only the metadata of tr, the
// shape NewAppender ingests.
func header(tr *trace.Trace) *trace.Trace {
	return &trace.Trace{Name: tr.Name, Granularity: tr.Granularity, Start: tr.Start, End: tr.End, Kinds: tr.Kinds}
}

// appendInBatches feeds tr.Contacts to a fresh appender split at random
// points (batch sizes 0 are exercised too), preserving order.
func appendInBatches(t *testing.T, tr *trace.Trace, sealEvery int, r *rng.Source) *timeline.Appender {
	t.Helper()
	app, err := timeline.NewAppender(header(tr), sealEvery)
	if err != nil {
		t.Fatal(err)
	}
	cts := tr.Contacts
	for len(cts) > 0 {
		if r.Bool(0.05) { // empty batches are legal
			if err := app.Append(nil); err != nil {
				t.Fatal(err)
			}
		}
		k := 1 + r.Intn(63)
		if k > len(cts) {
			k = len(cts)
		}
		if err := app.Append(cts[:k]); err != nil {
			t.Fatal(err)
		}
		cts = cts[k:]
	}
	return app
}

// TestAppenderSnapshotMatchesNew is the core seal+compaction
// invariant: any sequential batch split, at any seal threshold,
// snapshots to exactly the index timeline.New builds over the same
// contact slice.
func TestAppenderSnapshotMatchesNew(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		for _, sealEvery := range []int{1, 7, 64, 100000} {
			r := rng.New(seed)
			tr := randomTrace(12, 500, r)
			app := appendInBatches(t, tr, sealEvery, r)
			got := app.Snapshot().All()
			want := timeline.New(tr).All()
			checkIndexEqual(t, got, want)
		}
	}
}

// TestSegmentQueriesBeforeMaterialization exercises the multi-segment
// read path: Meet/NextContact/ForOutgoingAfter answered straight off
// the sealed segments must agree with brute force and with the
// materialized index.
func TestSegmentQueriesBeforeMaterialization(t *testing.T) {
	r := rng.New(7)
	tr := randomTrace(10, 400, r)
	// A large run followed by a small one survives compaction as two
	// segments (the small run is under half the large run's size).
	app, err := timeline.NewAppender(header(tr), 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	if err := app.Append(tr.Contacts[:300]); err != nil {
		t.Fatal(err)
	}
	app.Seal()
	if err := app.Append(tr.Contacts[300:]); err != nil {
		t.Fatal(err)
	}
	fresh := app.Snapshot().All() // stays unmaterialized
	if app.Segments() < 2 {
		t.Fatalf("want multiple segments, got %d", app.Segments())
	}
	mat := app.Snapshot().All()
	mat.OutgoingByBeg(0) // force the snapshot's index
	for q := 0; q < 400; q++ {
		u := trace.NodeID(r.Intn(10))
		w := u
		for w == u {
			w = trace.NodeID(r.Intn(10))
		}
		at := r.Uniform(-10, 1100)
		if got, want := fresh.Meet(u, w, at), bruteMeet(tr.Contacts, u, w, at); got != want {
			t.Fatalf("segment Meet(%d, %d, %v) = %v, want %v", u, w, at, got, want)
		}
		if got, want := fresh.NextContact(u, at), bruteNext(tr.Contacts, u, at); got != want {
			t.Fatalf("segment NextContact(%d, %v) = %v, want %v", u, at, got, want)
		}
		type dir struct {
			to       trace.NodeID
			beg, end float64
			fwd      bool
		}
		collect := func(v *timeline.View) map[dir]int {
			set := make(map[dir]int)
			v.ForOutgoingAfter(u, at, func(run []timeline.DirContact) {
				for _, e := range run {
					if e.End < at {
						t.Fatalf("ForOutgoingAfter yielded End %v < t %v", e.End, at)
					}
					set[dir{e.To, e.Beg, e.End, e.Fwd}]++
				}
			})
			return set
		}
		gs, ws := collect(fresh), collect(mat)
		if len(gs) != len(ws) {
			t.Fatalf("ForOutgoingAfter(%d, %v): %d distinct directions, want %d", u, at, len(gs), len(ws))
		}
		for k, c := range ws {
			if gs[k] != c {
				t.Fatalf("ForOutgoingAfter(%d, %v): direction %+v count %d, want %d", u, at, k, gs[k], c)
			}
		}
	}
}

// TestAppenderOutOfOrderBatches feeds time-shuffled batches: the
// snapshot must equal timeline.New over the arrival-order slice (the
// order the appender actually saw).
func TestAppenderOutOfOrderBatches(t *testing.T) {
	r := rng.New(11)
	tr := randomTrace(10, 300, r)
	// Shuffle contacts so batch time ranges interleave arbitrarily.
	shuffled := append([]trace.Contact(nil), tr.Contacts...)
	for i := len(shuffled) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	}
	arrival := *tr
	arrival.Contacts = shuffled
	app := appendInBatches(t, &arrival, 16, r)
	got := app.Snapshot().All()
	want := timeline.New(&arrival).All()
	checkIndexEqual(t, got, want)
}

func minEnd(cts []trace.Contact) float64 {
	m := math.Inf(1)
	for _, c := range cts {
		if c.End < m {
			m = c.End
		}
	}
	return m
}

// TestEvictBefore checks the eviction contract: a no-op cutoff leaves
// the generation untouched, a real one bumps it, drops at least the
// fully expired segments, never drops a live contact, and the surviving
// snapshot still matches a fresh index over its own contacts.
func TestEvictBefore(t *testing.T) {
	r := rng.New(13)
	tr := randomTrace(10, 400, r)
	app := appendInBatches(t, tr, 32, r)
	gen0 := app.Generation()
	if app.EvictBefore(minEnd(tr.Contacts)) != 0 {
		t.Fatal("cutoff at min End must drop nothing")
	}
	if app.Generation() != gen0 {
		t.Fatal("no-op eviction must not bump the generation")
	}
	dropped := app.EvictBefore(500)
	if dropped > 0 && app.Generation() == gen0 {
		t.Fatal("eviction dropped contacts without bumping the generation")
	}
	// Segment-granular eviction may keep expired contacts inside
	// straddling segments, but must never lose a live one.
	snap := app.Snapshot().All()
	liveAbove := 0
	for _, c := range tr.Contacts {
		if c.End >= 500 {
			liveAbove++
		}
	}
	keptAbove := 0
	for _, c := range snap.Contacts() {
		if c.End >= 500 {
			keptAbove++
		}
	}
	if keptAbove != liveAbove {
		t.Fatalf("eviction lost live contacts: kept %d with End >= cutoff, want %d", keptAbove, liveAbove)
	}
	// The survivor set still indexes canonically.
	surv := &trace.Trace{Name: tr.Name, Granularity: tr.Granularity, Start: tr.Start, End: tr.End,
		Kinds: tr.Kinds, Contacts: snap.Contacts()}
	checkIndexEqual(t, snap, timeline.New(surv).All())
	// Full eviction empties the stream and keeps working.
	if app.EvictBefore(math.Inf(1)); app.Len() != 0 {
		t.Fatalf("full eviction left %d contacts", app.Len())
	}
	if err := app.Append(tr.Contacts[:10]); err != nil {
		t.Fatal(err)
	}
	if app.Len() != 10 {
		t.Fatalf("append after eviction: len %d, want 10", app.Len())
	}
}

// TestSnapshotImmuneToLaterAppends pins the aliasing contract: appends
// and evictions after a snapshot must not change what it sees.
func TestSnapshotImmuneToLaterAppends(t *testing.T) {
	r := rng.New(17)
	tr := randomTrace(8, 200, r)
	app, err := timeline.NewAppender(header(tr), 16)
	if err != nil {
		t.Fatal(err)
	}
	if err := app.Append(tr.Contacts[:120]); err != nil {
		t.Fatal(err)
	}
	snap := app.Snapshot().All()
	if err := app.Append(tr.Contacts[120:]); err != nil {
		t.Fatal(err)
	}
	app.EvictBefore(800)
	pre := *tr
	pre.Contacts = tr.Contacts[:120]
	checkIndexEqual(t, snap, timeline.New(&pre).All())
}

// TestAppendAllocs pins the streaming hot path: a warm Append into
// reserved capacity that does not cross the seal threshold must not
// allocate.
func TestAppendAllocs(t *testing.T) {
	r := rng.New(19)
	tr := randomTrace(10, 4096, r)
	app, err := timeline.NewAppender(header(tr), 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	app.Reserve(len(tr.Contacts))
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		batch := tr.Contacts[i : i+16]
		i += 16
		if err := app.Append(batch); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Fatalf("warm Append: %.1f allocs/run, budget 0", allocs)
	}
}

// TestSegmentMeetAllocs pins the segment-cursor query: Meet answered
// off sealed segments (no materialized index) must not allocate.
func TestSegmentMeetAllocs(t *testing.T) {
	r := rng.New(23)
	tr := randomTrace(30, 5000, r)
	app, err := timeline.NewAppender(header(tr), 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	if err := app.Append(tr.Contacts[:4000]); err != nil {
		t.Fatal(err)
	}
	app.Seal()
	if err := app.Append(tr.Contacts[4000:]); err != nil {
		t.Fatal(err)
	}
	v := app.Snapshot().All()
	if app.Segments() < 2 {
		t.Fatalf("want multiple segments, got %d", app.Segments())
	}
	q := rng.New(10)
	sink := 0.0
	allocs := testing.AllocsPerRun(200, func() {
		u := trace.NodeID(q.Intn(30))
		w := trace.NodeID((int(u) + 1 + q.Intn(29)) % 30)
		sink += v.Meet(u, w, q.Uniform(0, 1000))
	})
	if math.IsNaN(sink) {
		t.Fatal("sink went NaN")
	}
	if allocs > 0 {
		t.Fatalf("segment-cursor Meet: %.1f allocs/run, budget 0", allocs)
	}
}

// FuzzAppendMerge drives arbitrary out-of-order, duplicate and
// overlapping appends (with fuzzer-chosen batch boundaries, seal
// thresholds and eviction cutoffs) through seal, compaction and
// eviction, and asserts the snapshot index equals both a fresh
// timeline.New and the reference index over the same arrival-order
// contacts.
func FuzzAppendMerge(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}, uint8(3))
	f.Add([]byte{0, 0, 0, 0, 255, 255, 255, 255}, uint8(1))
	f.Add([]byte{9, 8, 7, 6, 5, 4, 3, 2, 1, 0}, uint8(0))
	f.Add([]byte{0, 3, 10, 5, 2, 4, 20, 6, 4, 100, 200, 0x25, 6, 7, 30, 3,
		0, 1, 210, 0x30, 2, 5, 40, 1, 3, 6, 41, 2, 0, 2, 42, 9}, uint8(1))
	f.Fuzz(func(t *testing.T, data []byte, sealByte uint8) {
		const n = 8
		kinds := make([]trace.Kind, n)
		meta := &trace.Trace{Name: "fuzz", Granularity: 1, Start: 0, End: 256, Kinds: kinds}
		app, err := timeline.NewAppender(meta, 1+int(sealByte)%16)
		if err != nil {
			t.Fatal(err)
		}
		var arrival []trace.Contact
		var batch []trace.Contact
		for i := 0; i+4 <= len(data); i += 4 {
			a := trace.NodeID(data[i] % n)
			b := trace.NodeID(data[i+1] % n)
			if a == b {
				b = (b + 1) % n
			}
			beg := float64(data[i+2])
			end := beg + float64(data[i+3]%32)
			c := trace.Contact{A: a, B: b, Beg: beg, End: end}
			batch = append(batch, c)
			if data[i]&1 == 0 {
				if err := app.Append(batch); err != nil {
					t.Fatal(err)
				}
				arrival = append(arrival, batch...)
				batch = batch[:0]
				// Durations use the low five bits of their byte; bit 5
				// calls EvictBefore here, with the partner byte as the
				// cutoff. Later seals then compact runs whose arrival
				// offsets the eviction rewrote.
				if data[i+3]&0x20 != 0 {
					app.EvictBefore(float64(data[i+1]))
					arrival = checkEvicted(t, app)
				}
			}
		}
		if err := app.Append(batch); err != nil {
			t.Fatal(err)
		}
		arrival = append(arrival, batch...)
		tr := &trace.Trace{Name: "fuzz", Granularity: 1, Start: 0, End: 256, Kinds: kinds, Contacts: arrival}
		got := app.Snapshot().All()
		want := timeline.New(tr).All()
		checkIndexEqual(t, got, want)
		checkAgainstRef(t, got, buildRef(arrival, n))
		// Cross-check the segment-cursor read path on a fresh snapshot.
		fresh := app.Snapshot().All()
		for _, at := range []float64{0, 63.5, 128, 300} {
			for u := trace.NodeID(0); u < n; u++ {
				if g, w := fresh.NextContact(u, at), want.NextContact(u, at); g != w {
					t.Fatalf("NextContact(%d, %v): segments %v, merged %v", u, at, g, w)
				}
			}
			if g, w := fresh.Meet(0, 1, at), want.Meet(0, 1, at); g != w {
				t.Fatalf("Meet(0, 1, %v): segments %v, merged %v", at, g, w)
			}
		}
	})
}

// checkEvicted checks an appender right after EvictBefore: its snapshot
// must index the surviving contacts exactly like the reference, and
// Meet and NextContact answered off the segments of a fresh snapshot
// must agree with brute force over them. It returns the survivors, the
// arrival order later appends extend.
func checkEvicted(t *testing.T, app *timeline.Appender) []trace.Contact {
	t.Helper()
	snap := app.Snapshot().All()
	live := append([]trace.Contact(nil), snap.Contacts()...)
	n := snap.NumNodes()
	checkAgainstRef(t, snap, buildRef(live, n))
	fresh := app.Snapshot().All()
	for _, at := range []float64{0, 63.5, 128, 300} {
		for u := trace.NodeID(0); int(u) < n; u++ {
			if g, w := fresh.NextContact(u, at), bruteNext(live, u, at); g != w {
				t.Fatalf("after eviction: NextContact(%d, %v) = %v, want %v", u, at, g, w)
			}
			for w := u + 1; int(w) < n; w++ {
				if g, want := fresh.Meet(u, w, at), bruteMeet(live, u, w, at); g != want {
					t.Fatalf("after eviction: Meet(%d, %d, %v) = %v, want %v", u, w, at, g, want)
				}
			}
		}
	}
	return live
}

// BenchmarkAppendThroughput measures steady-state streaming ingestion:
// 512-contact batches through validate+append+seal+compact.
func BenchmarkAppendThroughput(b *testing.B) {
	r := rng.New(29)
	tr := randomTrace(60, 1<<16, r)
	app, err := timeline.NewAppender(header(tr), 4096)
	if err != nil {
		b.Fatal(err)
	}
	i := 0
	b.SetBytes(512)
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		if i+512 > len(tr.Contacts) {
			b.StopTimer()
			app, err = timeline.NewAppender(header(tr), 4096)
			if err != nil {
				b.Fatal(err)
			}
			i = 0
			b.StartTimer()
		}
		if err := app.Append(tr.Contacts[i : i+512]); err != nil {
			b.Fatal(err)
		}
		i += 512
	}
}

// BenchmarkSegmentMeet measures the multi-segment point query against
// an unmaterialized snapshot.
func BenchmarkSegmentMeet(b *testing.B) {
	r := rng.New(31)
	tr := randomTrace(60, 1<<15, r)
	ap, err := timeline.NewAppender(header(tr), 1024)
	if err != nil {
		b.Fatal(err)
	}
	if err := ap.Append(tr.Contacts); err != nil {
		b.Fatal(err)
	}
	v := ap.Snapshot().All()
	q := rng.New(10)
	b.ReportAllocs()
	b.ResetTimer()
	sink := 0.0
	for n := 0; n < b.N; n++ {
		u := trace.NodeID(q.Intn(60))
		w := trace.NodeID((int(u) + 1 + q.Intn(59)) % 60)
		sink += v.Meet(u, w, q.Uniform(0, 1000))
	}
	if math.IsNaN(sink) {
		b.Fatal("sink went NaN")
	}
}
