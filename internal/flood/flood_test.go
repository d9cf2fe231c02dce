package flood

import (
	"math"
	"testing"

	"opportunet/internal/rng"
	"opportunet/internal/timeline"
	"opportunet/internal/trace"
)

func chain() *trace.Trace {
	// 0-1 at [0,10], 1-2 at [20,30], 2-3 at [25,40].
	return &trace.Trace{
		Start: 0, End: 50, Kinds: make([]trace.Kind, 4),
		Contacts: []trace.Contact{
			{A: 0, B: 1, Beg: 0, End: 10},
			{A: 1, B: 2, Beg: 20, End: 30},
			{A: 2, B: 3, Beg: 25, End: 40},
		},
	}
}

func TestEarliestDeliveryChain(t *testing.T) {
	f := New(chain(), Options{})
	arr := f.EarliestDelivery(0, 0)
	want := []float64{0, 0, 20, 25}
	for i := range want {
		if arr[i] != want[i] {
			t.Errorf("arr[%d] = %v, want %v", i, arr[i], want[i])
		}
	}
}

func TestEarliestDeliveryLateStart(t *testing.T) {
	f := New(chain(), Options{})
	// Starting at t=15, the first contact is gone: node 1 unreachable...
	// no wait: contact 0-1 ended at 10, so 1, 2, 3 all unreachable.
	arr := f.EarliestDelivery(0, 15)
	for i := 1; i < 4; i++ {
		if !math.IsInf(arr[i], 1) {
			t.Errorf("arr[%d] = %v, want +Inf", i, arr[i])
		}
	}
	// From node 1 at t=15, the rest of the chain works.
	arr = f.EarliestDelivery(1, 15)
	if arr[2] != 20 || arr[3] != 25 {
		t.Errorf("arr = %v", arr)
	}
}

func TestEarliestDeliveryByHops(t *testing.T) {
	f := New(chain(), Options{})
	byHops := f.EarliestDeliveryByHops(0, 0, 3)
	if !math.IsInf(byHops[0][1], 1) || byHops[0][0] != 0 {
		t.Errorf("hop 0 row wrong: %v", byHops[0])
	}
	if byHops[1][1] != 0 || !math.IsInf(byHops[1][2], 1) {
		t.Errorf("hop 1 row wrong: %v", byHops[1])
	}
	if byHops[2][2] != 20 || !math.IsInf(byHops[2][3], 1) {
		t.Errorf("hop 2 row wrong: %v", byHops[2])
	}
	if byHops[3][3] != 25 {
		t.Errorf("hop 3 row wrong: %v", byHops[3])
	}
}

func TestMaxHopsOption(t *testing.T) {
	f := New(chain(), Options{MaxHops: 2})
	arr := f.EarliestDelivery(0, 0)
	if arr[2] != 20 {
		t.Errorf("arr[2] = %v", arr[2])
	}
	if !math.IsInf(arr[3], 1) {
		t.Errorf("arr[3] = %v, want +Inf with MaxHops=2", arr[3])
	}
}

func TestDirected(t *testing.T) {
	tr := &trace.Trace{
		Start: 0, End: 10, Kinds: make([]trace.Kind, 2),
		Contacts: []trace.Contact{{A: 0, B: 1, Beg: 0, End: 5}},
	}
	f := New(tr, Options{Directed: true})
	if arr := f.EarliestDelivery(0, 0); arr[1] != 0 {
		t.Errorf("forward arr = %v", arr)
	}
	if arr := f.EarliestDelivery(1, 0); !math.IsInf(arr[0], 1) {
		t.Errorf("reverse arr = %v, want +Inf", arr)
	}
}

func TestTransmitDelay(t *testing.T) {
	tr := &trace.Trace{
		Start: 0, End: 200, Kinds: make([]trace.Kind, 3),
		Contacts: []trace.Contact{
			{A: 0, B: 1, Beg: 0, End: 100},
			{A: 1, B: 2, Beg: 0, End: 100},
		},
	}
	f := New(tr, Options{TransmitDelay: 5})
	arr := f.EarliestDelivery(0, 0)
	if arr[1] != 5 {
		t.Errorf("arr[1] = %v, want 5", arr[1])
	}
	if arr[2] != 10 {
		t.Errorf("arr[2] = %v, want 10", arr[2])
	}
	// Start too late for two transmissions: first can start at <=100,
	// second needs start <= 100, so start at 96 → second at 101 > 100.
	arr = f.EarliestDelivery(0, 96)
	if !math.IsInf(arr[2], 1) {
		t.Errorf("arr[2] = %v, want +Inf (no time for relay)", arr[2])
	}
}

func TestReachability(t *testing.T) {
	f := New(chain(), Options{})
	got := f.Reachability(0, 0)
	for i, want := range []bool{true, true, true, true} {
		if got[i] != want {
			t.Errorf("Reachability[%d] = %v", i, got[i])
		}
	}
	got = f.Reachability(3, 30)
	// From 3 at t=30: 2 via [25,40], then 1 via [20,30] exactly at its
	// last instant; 0 is gone (its contact ended at 10).
	if !got[2] || !got[1] || got[0] {
		t.Errorf("Reachability from 3 at 30 = %v", got)
	}
}

func TestNumNodes(t *testing.T) {
	if New(chain(), Options{}).NumNodes() != 4 {
		t.Error("NumNodes wrong")
	}
}

// FuzzFloodByHops checks the changed-set rounds of EarliestDeliveryByHops
// against denseByHops, bit for bit, on fuzzed tiny traces (2–8 devices,
// at most 40 contacts, directed or not, TransmitDelay 0 or positive),
// from every source at a fuzzed start time (special values included)
// and for hop bounds 0 to 12. The input layout is data[0] → device
// count, data[1] → maxK, data[2] → start time, then four bytes per
// contact: endpoints, begin time and duration.
func FuzzFloodByHops(f *testing.F) {
	f.Add([]byte{2, 3, 0, 0, 1, 0, 10, 1, 2, 20, 10, 2, 3, 25, 15}, false, uint8(0))
	f.Add([]byte{6, 12, 5, 0, 2, 0, 9, 2, 1, 20, 1, 1, 3, 40, 7, 3, 4, 8, 60, 4, 5, 100, 3, 5, 0, 200, 30, 0, 5, 10, 0}, true, uint8(9))
	f.Add([]byte{7, 40, 251, 0, 6, 50, 50, 6, 1, 50, 0, 1, 2, 50, 0, 2, 3, 140, 0, 3, 0, 250, 5, 0, 6, 50, 50}, false, uint8(200))
	f.Fuzz(func(t *testing.T, data []byte, directed bool, delay uint8) {
		if len(data) < 3 {
			return
		}
		n := 2 + int(data[0])%7
		maxK := int(data[1]) % 13
		var t0 float64
		switch data[2] {
		case 255:
			t0 = math.Inf(1)
		case 254:
			t0 = math.Inf(-1)
		case 253:
			t0 = math.NaN()
		case 252:
			t0 = math.Copysign(0, -1)
		default:
			t0 = float64(data[2]) - 16
		}
		tr := &trace.Trace{Name: "fuzz", Start: 0, End: 320, Kinds: make([]trace.Kind, n)}
		for i := 3; i+3 < len(data) && len(tr.Contacts) < 40; i += 4 {
			a := trace.NodeID(int(data[i]) % n)
			b := trace.NodeID(int(data[i+1]) % n)
			if a == b {
				b = (a + 1) % trace.NodeID(n)
			}
			beg := float64(data[i+2])
			tr.Contacts = append(tr.Contacts, trace.Contact{A: a, B: b, Beg: beg, End: beg + float64(data[i+3]%64)})
		}
		opt := Options{Directed: directed}
		if delay > 0 {
			opt.TransmitDelay = float64(delay) / 8
		}
		fl := NewView(timeline.New(tr).All(), opt)
		for src := trace.NodeID(0); int(src) < n; src++ {
			got := fl.EarliestDeliveryByHops(src, t0, maxK)
			want := denseByHops(fl, src, t0, maxK)
			if len(got) != len(want) {
				t.Fatalf("src %d: %d rows, dense %d", src, len(got), len(want))
			}
			for k := range want {
				for v := range want[k] {
					if math.Float64bits(got[k][v]) != math.Float64bits(want[k][v]) {
						t.Fatalf("src %d t0 %v row %d device %d: %v, dense %v", src, t0, k, v, got[k][v], want[k][v])
					}
				}
			}
		}
	})
}

// TestByHopsAtEpidemicCap checks the rows an unbounded forward.Epidemic
// reads on traces with more devices than its 64-round cap, against
// denseByHops bit for bit: a 72-device chain whose far end needs 71
// hops, so the cap binds before the fixpoint, and the same chain with
// random shortcuts, which reach the fixpoint early and share rows.
func TestByHopsAtEpidemicCap(t *testing.T) {
	const n, maxK = 72, 64
	r := rng.New(2311)
	tr := &trace.Trace{Name: "chain", Start: 0, End: 10 * n, Kinds: make([]trace.Kind, n)}
	for i := 0; i+1 < n; i++ {
		tr.Contacts = append(tr.Contacts, trace.Contact{A: trace.NodeID(i), B: trace.NodeID(i + 1), Beg: float64(10 * i), End: float64(10*i + 5)})
	}
	for shortcuts := range 2 {
		if shortcuts == 1 {
			for i := 0; i < 2*n; i++ {
				a, b := trace.NodeID(r.Intn(n)), trace.NodeID(r.Intn(n))
				if a == b {
					continue
				}
				beg := r.Uniform(0, 10*n)
				tr.Contacts = append(tr.Contacts, trace.Contact{A: a, B: b, Beg: beg, End: beg + r.Uniform(0, 30)})
			}
		}
		fl := NewView(timeline.New(tr).All(), Options{})
		if shortcuts == 0 {
			rows := fl.EarliestDeliveryByHops(0, 0, maxK)
			if math.IsInf(rows[maxK][maxK], 1) || !math.IsInf(rows[maxK][maxK+1], 1) {
				t.Fatalf("row %d reaches devices 64, 65 at %v, %v: the cap must bind", maxK, rows[maxK][maxK], rows[maxK][maxK+1])
			}
		}
		for probe := 0; probe < 12; probe++ {
			src, t0 := trace.NodeID(0), 0.0
			if probe > 0 {
				src, t0 = trace.NodeID(r.Intn(n)), r.Uniform(-50, 10*n)
			}
			got, want := fl.EarliestDeliveryByHops(src, t0, maxK), denseByHops(fl, src, t0, maxK)
			for k := range want {
				for v := range want[k] {
					if math.Float64bits(got[k][v]) != math.Float64bits(want[k][v]) {
						t.Fatalf("shortcuts %d src %d t0 %v row %d device %d: %v, dense %v", shortcuts, src, t0, k, v, got[k][v], want[k][v])
					}
				}
			}
		}
	}
}

// denseByHops is the reference for the changed-set rounds: the dense
// hop-by-hop Bellman-Ford that relaxes every reached device in every
// round and copies every row, over denseRelax (relax with math.Max).
func denseByHops(f *Flooder, src trace.NodeID, t0 float64, maxK int) [][]float64 {
	out := make([][]float64, maxK+1)
	prev := make([]float64, f.n)
	for i := range prev {
		prev[i] = math.Inf(1)
	}
	prev[src] = t0
	out[0] = append([]float64(nil), prev...)
	for k := 1; k <= maxK; k++ {
		next := append([]float64(nil), prev...)
		for v := 0; v < f.n; v++ {
			if math.IsInf(prev[v], 1) {
				continue
			}
			denseRelax(f, trace.NodeID(v), prev[v], func(to trace.NodeID, at float64) {
				if at < next[to] {
					next[to] = at
				}
			})
		}
		out[k] = next
		prev = next
	}
	return out
}

// denseRelax is relax as denseByHops runs it, with math.Max for the
// departure time.
func denseRelax(f *Flooder, v trace.NodeID, t float64, visit func(trace.NodeID, float64)) {
	delta := f.opt.TransmitDelay
	es := f.v.OutgoingByEnd(v)
	for i := len(es) - 1; i >= 0; i-- {
		e := es[i]
		if e.End < t {
			break // everything earlier in the slice ends sooner
		}
		if f.opt.Directed && !e.Fwd {
			continue
		}
		// Transmission starts at max(t, beg) ≤ end (guaranteed by the
		// check above for t; beg ≤ end by trace validation).
		dep := math.Max(t, e.Beg)
		visit(e.To, dep+delta)
	}
}
