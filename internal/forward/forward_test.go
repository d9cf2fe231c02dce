package forward

import (
	"math"
	"testing"

	"opportunet/internal/rng"
	"opportunet/internal/timeline"
	"opportunet/internal/trace"
	"opportunet/internal/tracegen"
)

// relayTrace: 0 meets 1 at [10,20], 1 meets 2 at [30,40], 0 meets 2 at
// [100,110]. Relaying beats waiting for the direct contact.
func relayTrace() *trace.Trace {
	return &trace.Trace{
		Name: "relay", Start: 0, End: 200, Kinds: make([]trace.Kind, 3),
		Contacts: []trace.Contact{
			{A: 0, B: 1, Beg: 10, End: 20},
			{A: 1, B: 2, Beg: 30, End: 40},
			{A: 0, B: 2, Beg: 100, End: 110},
		},
	}
}

// newEvaluator indexes tr and evaluates over its whole timeline.
func newEvaluator(tr *trace.Trace) *Evaluator {
	return NewEvaluatorView(timeline.New(tr).All())
}

func TestMeet(t *testing.T) {
	e := newEvaluator(relayTrace())
	cases := []struct {
		u, v trace.NodeID
		t    float64
		want float64
	}{
		{0, 1, 0, 10},
		{0, 1, 15, 15}, // mid-contact: immediate
		{0, 1, 21, math.Inf(1)},
		{1, 0, 0, 10}, // symmetric
		{0, 2, 0, 100},
		{0, 2, 105, 105},
		{0, 2, 111, math.Inf(1)},
	}
	for _, c := range cases {
		if got := e.Meet(c.u, c.v, c.t); got != c.want {
			t.Errorf("Meet(%d,%d,%v) = %v, want %v", c.u, c.v, c.t, got, c.want)
		}
	}
}

func TestMeetOverlappingContacts(t *testing.T) {
	// Two contacts: short late one and long early one; earliest transfer
	// after t=5 is 5 (inside the long contact), not the short one's Beg.
	tr := &trace.Trace{
		Start: 0, End: 200, Kinds: make([]trace.Kind, 2),
		Contacts: []trace.Contact{
			{A: 0, B: 1, Beg: 9, End: 10},
			{A: 0, B: 1, Beg: 0, End: 100},
		},
	}
	e := newEvaluator(tr)
	if got := e.Meet(0, 1, 5); got != 5 {
		t.Fatalf("Meet = %v, want 5", got)
	}
}

func TestDirect(t *testing.T) {
	e := newEvaluator(relayTrace())
	o := e.Direct(Message{Src: 0, Dst: 2, T0: 0, TTL: 150})
	if !o.Delivered || o.Delay != 100 || o.Copies != 1 {
		t.Fatalf("direct outcome %+v", o)
	}
	o = e.Direct(Message{Src: 0, Dst: 2, T0: 0, TTL: 50})
	if o.Delivered {
		t.Fatal("direct should miss with TTL 50")
	}
}

func TestTwoHopBeatsDirect(t *testing.T) {
	e := newEvaluator(relayTrace())
	o := e.TwoHop(Message{Src: 0, Dst: 2, T0: 0, TTL: 150})
	if !o.Delivered || o.Delay != 30 {
		t.Fatalf("two-hop outcome %+v, want delay 30 via relay 1", o)
	}
	if o.Copies != 2 { // src + relay 1 (relay got it at 10 <= delivery 30)
		t.Fatalf("copies = %d, want 2", o.Copies)
	}
}

func TestSourceSpray(t *testing.T) {
	e := newEvaluator(relayTrace())
	// Budget 1: no relays, equivalent to direct.
	o := e.SourceSpray(Message{Src: 0, Dst: 2, T0: 0, TTL: 150}, 1)
	if !o.Delivered || o.Delay != 100 {
		t.Fatalf("spray-1 outcome %+v", o)
	}
	// Budget 2: relay 1 gets a copy, delivers at 30.
	o = e.SourceSpray(Message{Src: 0, Dst: 2, T0: 0, TTL: 150}, 2)
	if !o.Delivered || o.Delay != 30 || o.Copies != 2 {
		t.Fatalf("spray-2 outcome %+v", o)
	}
	// Degenerate budget treated as 1.
	o = e.SourceSpray(Message{Src: 0, Dst: 2, T0: 0, TTL: 150}, 0)
	if o.Delay != 100 {
		t.Fatalf("spray-0 outcome %+v", o)
	}
}

func TestEpidemic(t *testing.T) {
	e := newEvaluator(relayTrace())
	o := e.Epidemic(Message{Src: 0, Dst: 2, T0: 0, TTL: 150}, 0)
	if !o.Delivered || o.Delay != 30 || o.Hops != 2 {
		t.Fatalf("epidemic outcome %+v", o)
	}
	if o.Copies != 3 { // all three devices hold it by delivery
		t.Fatalf("copies = %d, want 3", o.Copies)
	}
	// Hop limit 1 degrades epidemic to direct.
	o = e.Epidemic(Message{Src: 0, Dst: 2, T0: 0, TTL: 150}, 1)
	if !o.Delivered || o.Delay != 100 || o.Hops != 1 {
		t.Fatalf("hop-limited epidemic outcome %+v", o)
	}
	// Undelivered: copies spread within TTL still counted.
	o = e.Epidemic(Message{Src: 0, Dst: 2, T0: 0, TTL: 25}, 0)
	if o.Delivered {
		t.Fatal("should miss with TTL 25")
	}
	if o.Copies != 2 { // 0 and 1 (infected at 10)
		t.Fatalf("failed-epidemic copies = %d, want 2", o.Copies)
	}
}

func TestEpidemicDominatesEverything(t *testing.T) {
	// Property: on a generated trace, epidemic success rate >= any other
	// algorithm's at the same TTL, and hop-limited epidemic at a high
	// limit nearly matches it.
	cfg := tracegen.Infocom05Config()
	cfg.Devices = 20
	cfg.TargetContacts = 3000
	cfg.ExternalDevices, cfg.ExternalContacts = 0, 0
	tr, err := tracegen.Generate(cfg, 77)
	if err != nil {
		t.Fatal(err)
	}
	e := newEvaluator(tr)
	stats, err := Evaluate(e, e.StandardAlgorithms(6), 300, 6*3600, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]Stats{}
	for _, s := range stats {
		byName[s.Name] = s
	}
	epi := byName["epidemic"]
	for _, s := range stats {
		if s.SuccessRate > epi.SuccessRate+1e-9 {
			t.Errorf("%s beats epidemic: %v > %v", s.Name, s.SuccessRate, epi.SuccessRate)
		}
	}
	lim := byName["epidemic<=6hops"]
	if epi.SuccessRate-lim.SuccessRate > 0.02 {
		t.Errorf("6-hop epidemic loses too much: %v vs %v", lim.SuccessRate, epi.SuccessRate)
	}
	if byName["direct"].MeanCopies != 1 {
		t.Errorf("direct copies = %v", byName["direct"].MeanCopies)
	}
	if byName["two-hop"].SuccessRate < byName["direct"].SuccessRate-1e-9 {
		t.Error("two-hop should not lose to direct")
	}
}

func TestEvaluateErrors(t *testing.T) {
	e := newEvaluator(relayTrace())
	if _, err := Evaluate(e, nil, 10, 1000, rng.New(1)); err == nil {
		t.Error("TTL larger than window should fail")
	}
	tiny := &trace.Trace{Start: 0, End: 10, Kinds: []trace.Kind{trace.Internal}}
	if _, err := Evaluate(newEvaluator(tiny), nil, 10, 1, rng.New(1)); err == nil {
		t.Error("single-device trace should fail")
	}
}

func TestFirstContactDelivers(t *testing.T) {
	e := newEvaluator(relayTrace())
	// From 0 at t=0: first contact is 1 at t=10; 1's next (excluding 0)
	// is 2 at 30 -> delivered at 30 with 2 transfers.
	o := e.FirstContact(Message{Src: 0, Dst: 2, T0: 0, TTL: 150})
	if !o.Delivered || o.Delay != 30 || o.Hops != 2 || o.Copies != 1 {
		t.Fatalf("first-contact outcome %+v", o)
	}
}

func TestFirstContactTTL(t *testing.T) {
	e := newEvaluator(relayTrace())
	o := e.FirstContact(Message{Src: 0, Dst: 2, T0: 0, TTL: 25})
	if o.Delivered {
		t.Fatalf("should miss with TTL 25: %+v", o)
	}
}

func TestFirstContactPrefersDestinationOnTie(t *testing.T) {
	// Holder meets the destination and another device at the same time:
	// it must deliver.
	tr := &trace.Trace{
		Start: 0, End: 100, Kinds: make([]trace.Kind, 3),
		Contacts: []trace.Contact{
			{A: 0, B: 1, Beg: 10, End: 20},
			{A: 0, B: 2, Beg: 10, End: 20},
		},
	}
	e := newEvaluator(tr)
	o := e.FirstContact(Message{Src: 0, Dst: 2, T0: 0, TTL: 50})
	if !o.Delivered || o.Delay != 10 || o.Hops != 1 {
		t.Fatalf("outcome %+v", o)
	}
}

func TestFirstContactNoReturnAvoidsInstantLoop(t *testing.T) {
	// Only one long mutual contact: without the no-return rule the
	// message would bounce 0<->1 forever at the same instant. With it,
	// the walk stalls and fails (destination 2 is never met).
	tr := &trace.Trace{
		Start: 0, End: 100, Kinds: make([]trace.Kind, 3),
		Contacts: []trace.Contact{
			{A: 0, B: 1, Beg: 0, End: 100},
		},
	}
	e := newEvaluator(tr)
	o := e.FirstContact(Message{Src: 0, Dst: 2, T0: 0, TTL: 90})
	if o.Delivered {
		t.Fatalf("unreachable destination delivered: %+v", o)
	}
}

func TestFirstContactNeverBeatsEpidemic(t *testing.T) {
	cfg := tracegen.Infocom05Config()
	cfg.Devices = 15
	cfg.TargetContacts = 1500
	cfg.ExternalDevices, cfg.ExternalContacts = 0, 0
	tr, err := tracegen.Generate(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	e := newEvaluator(tr)
	r := rng.New(12)
	internal := tr.InternalNodes()
	for i := 0; i < 150; i++ {
		src := internal[r.Intn(len(internal))]
		dst := src
		for dst == src {
			dst = internal[r.Intn(len(internal))]
		}
		m := Message{Src: src, Dst: dst, T0: r.Uniform(0, tr.Duration()-7200), TTL: 7200}
		fc := e.FirstContact(m)
		ep := e.Epidemic(m, 0)
		if fc.Delivered && !ep.Delivered {
			t.Fatalf("first-contact delivered where flooding failed: %+v vs %+v", fc, ep)
		}
		if fc.Delivered && ep.Delivered && fc.Delay < ep.Delay-1e-9 {
			t.Fatalf("first-contact beat flooding's optimal delay: %+v vs %+v", fc, ep)
		}
	}
}
