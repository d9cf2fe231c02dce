// Package forward implements opportunistic forwarding algorithms on top
// of contact traces and evaluates them against the flooding optimum. It
// supports the paper's design implication (§7): because the network
// diameter is small, "messages can be discarded after a few number of
// hops without occurring more than a marginal performance cost" — here,
// hop-limited epidemic forwarding with the hop limit set near the
// diameter performs almost exactly like unbounded flooding, while
// classical restricted schemes (direct transmission, two-hop relay,
// source spray) trade delay for copies.
package forward

import (
	"fmt"
	"math"
	"sort"

	"opportunet/internal/flood"
	"opportunet/internal/rng"
	"opportunet/internal/timeline"
	"opportunet/internal/trace"
)

// Message is one unicast message to forward.
type Message struct {
	Src, Dst trace.NodeID
	// T0 is the creation time; TTL the delay budget in seconds.
	T0, TTL float64
}

// Outcome reports how an algorithm handled a message.
type Outcome struct {
	Delivered bool
	// Delay is the delivery delay in seconds (undefined when not
	// delivered).
	Delay float64
	// Hops is the hop count of the delivering path when the algorithm
	// tracks it (epidemic), 0 otherwise.
	Hops int
	// Copies is the number of devices that held the message by delivery
	// time (or by the TTL for failed deliveries).
	Copies int
}

// Evaluator answers "earliest transfer between u and v at or after t" in
// logarithmic time through the timeline's per-pair meeting index, and
// runs the restricted forwarding algorithms on top of it. It is safe for
// concurrent use.
type Evaluator struct {
	v  *timeline.View
	fl *flood.Flooder
}

// NewEvaluatorView builds an Evaluator over a timeline view, reusing the
// view's pair and partner indexes.
func NewEvaluatorView(v *timeline.View) *Evaluator {
	return &Evaluator{v: v, fl: flood.NewView(v, flood.Options{})}
}

// Meet returns the earliest time at or after t at which devices u and v
// share a contact (i.e. a transfer between them can happen), or +Inf.
func (e *Evaluator) Meet(u, v trace.NodeID, t float64) float64 {
	return e.v.Meet(u, v, t)
}

// Direct evaluates direct transmission: the source waits for a contact
// with the destination.
func (e *Evaluator) Direct(m Message) Outcome {
	d := e.Meet(m.Src, m.Dst, m.T0)
	if d-m.T0 <= m.TTL {
		return Outcome{Delivered: true, Delay: d - m.T0, Hops: 1, Copies: 1}
	}
	return Outcome{Copies: 1}
}

// TwoHop evaluates the two-hop relay scheme of Grossglauser and Tse: the
// source hands copies to every device it meets; relays deliver only to
// the destination.
func (e *Evaluator) TwoHop(m Message) Outcome {
	deadline := m.T0 + m.TTL
	best := e.Meet(m.Src, m.Dst, m.T0)
	type relay struct{ got float64 }
	var relays []relay
	for _, r := range e.v.Partners(m.Src) {
		if r == m.Dst {
			continue
		}
		got := e.Meet(m.Src, r, m.T0)
		if got > deadline {
			continue
		}
		relays = append(relays, relay{got})
		if d := e.Meet(r, m.Dst, got); d < best {
			best = d
		}
	}
	copies := 1
	cutoff := math.Min(best, deadline)
	for _, r := range relays {
		if r.got <= cutoff {
			copies++
		}
	}
	if best-m.T0 <= m.TTL {
		return Outcome{Delivered: true, Delay: best - m.T0, Hops: 2, Copies: copies}
	}
	return Outcome{Copies: copies}
}

// SourceSpray evaluates an idealized source spray with the given copy
// budget: the source hands a copy to each of the first copies−1 distinct
// devices it meets, and every holder delivers only directly.
func (e *Evaluator) SourceSpray(m Message, copies int) Outcome {
	if copies < 1 {
		copies = 1
	}
	deadline := m.T0 + m.TTL
	best := e.Meet(m.Src, m.Dst, m.T0)
	type relay struct {
		id  trace.NodeID
		got float64
	}
	var cands []relay
	for _, r := range e.v.Partners(m.Src) {
		if r == m.Dst {
			continue
		}
		got := e.Meet(m.Src, r, m.T0)
		if !math.IsInf(got, 1) {
			cands = append(cands, relay{r, got})
		}
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].got < cands[j].got })
	if len(cands) > copies-1 {
		cands = cands[:copies-1]
	}
	used := 1
	for _, r := range cands {
		if r.got > deadline {
			break
		}
		used++
		if d := e.Meet(r.id, m.Dst, r.got); d < best {
			best = d
		}
	}
	if best-m.T0 <= m.TTL {
		return Outcome{Delivered: true, Delay: best - m.T0, Hops: 2, Copies: used}
	}
	return Outcome{Copies: used}
}

// FirstContact evaluates single-copy first-contact routing (the baseline
// of the paper's DTN-routing reference): the current holder hands the
// message to the first device it meets, except the one it just received
// it from, until the destination is met or the TTL expires. Only one
// copy ever exists; the walk may wander, which is exactly the behaviour
// the small-diameter result argues against relying on.
func (e *Evaluator) FirstContact(m Message) Outcome {
	deadline := m.T0 + m.TTL
	holder := m.Src
	prev := trace.NodeID(-1)
	t := m.T0
	// A generous cap on transfers prevents pathological same-instant
	// cycles from hanging the evaluation.
	maxSteps := 4 * e.v.NumNodes()
	for step := 0; step < maxSteps; step++ {
		// Deliver directly whenever possible.
		if d := e.Meet(holder, m.Dst, t); d <= deadline {
			// Only take it if no earlier hand-off happens first — first
			// contact hands to whoever comes first, but meeting the
			// destination always delivers.
			bestOther, bestTo := math.Inf(1), trace.NodeID(-1)
			for _, v := range e.v.Partners(holder) {
				if v == m.Dst || v == prev {
					continue
				}
				if mt := e.Meet(holder, v, t); mt < bestOther {
					bestOther, bestTo = mt, v
				}
			}
			if d <= bestOther {
				return Outcome{Delivered: true, Delay: d - m.T0, Hops: step + 1, Copies: 1}
			}
			// Hand off first, keep walking.
			prev, holder, t = holder, bestTo, bestOther
			continue
		}
		// Destination unreachable in time from here: hand to the first
		// contact anyway and keep trying.
		bestOther, bestTo := math.Inf(1), trace.NodeID(-1)
		for _, v := range e.v.Partners(holder) {
			if v == prev {
				continue
			}
			if mt := e.Meet(holder, v, t); mt < bestOther {
				bestOther, bestTo = mt, v
			}
		}
		if bestTo < 0 || bestOther > deadline {
			return Outcome{Copies: 1}
		}
		if bestTo == m.Dst {
			return Outcome{Delivered: true, Delay: bestOther - m.T0, Hops: step + 1, Copies: 1}
		}
		prev, holder, t = holder, bestTo, bestOther
	}
	return Outcome{Copies: 1}
}

// Epidemic evaluates flooding with an optional hop limit (0 = unbounded):
// the performance optimum any forwarding algorithm is compared against.
// Hops is the minimal hop count achieving the delivery time.
func (e *Evaluator) Epidemic(m Message, maxHops int) Outcome {
	cap := maxHops
	if cap <= 0 {
		// No optimal path repeats a device, and hop counts beyond the
		// engine's practical range contribute nothing measurable; the
		// node count is a safe bound.
		cap = e.v.NumNodes()
		if cap > 64 {
			cap = 64
		}
	}
	byHops := e.fl.EarliestDeliveryByHops(m.Src, m.T0, cap)
	arr := byHops[cap][m.Dst]
	if arr-m.T0 > m.TTL {
		// Count copies spread by the deadline.
		copies := 0
		for _, t := range byHops[cap] {
			if t-m.T0 <= m.TTL {
				copies++
			}
		}
		return Outcome{Copies: copies}
	}
	hops := cap
	for k := 1; k <= cap; k++ {
		if byHops[k][m.Dst] == arr {
			hops = k
			break
		}
	}
	copies := 0
	for _, t := range byHops[cap] {
		if t <= arr {
			copies++
		}
	}
	return Outcome{Delivered: true, Delay: arr - m.T0, Hops: hops, Copies: copies}
}

// Algorithm pairs a name with an evaluation function, for tabulated
// comparisons.
type Algorithm struct {
	Name string
	Run  func(Message) Outcome
}

// StandardAlgorithms returns the comparison set used by the forwarding
// experiment: flooding (unbounded), flooding limited to hopLimit hops,
// two-hop relay, source spray with 4 copies, and direct transmission.
func (e *Evaluator) StandardAlgorithms(hopLimit int) []Algorithm {
	return []Algorithm{
		{Name: "epidemic", Run: func(m Message) Outcome { return e.Epidemic(m, 0) }},
		{Name: fmt.Sprintf("epidemic<=%dhops", hopLimit), Run: func(m Message) Outcome { return e.Epidemic(m, hopLimit) }},
		{Name: "two-hop", Run: e.TwoHop},
		{Name: "spray-4", Run: func(m Message) Outcome { return e.SourceSpray(m, 4) }},
		{Name: "first-contact", Run: e.FirstContact},
		{Name: "direct", Run: e.Direct},
	}
}

// Stats aggregates outcomes of one algorithm over a message workload.
type Stats struct {
	Name        string
	Messages    int
	SuccessRate float64
	// MeanDelay averages delivery delay over delivered messages
	// (NaN if none).
	MeanDelay float64
	// MeanCopies averages the number of devices holding the message.
	MeanCopies float64
}

// Evaluate runs each algorithm over n uniform random messages (internal
// source ≠ destination, creation time uniform over the window minus the
// TTL so every message has a full budget).
func Evaluate(e *Evaluator, algos []Algorithm, n int, ttl float64, r *rng.Source) ([]Stats, error) {
	internal := e.v.InternalNodes()
	if len(internal) < 2 {
		return nil, fmt.Errorf("forward: need at least two internal devices")
	}
	window := e.v.Duration() - ttl
	if window <= 0 {
		return nil, fmt.Errorf("forward: TTL %v exceeds the trace window", ttl)
	}
	msgs := make([]Message, n)
	for i := range msgs {
		src := internal[r.Intn(len(internal))]
		dst := src
		for dst == src {
			dst = internal[r.Intn(len(internal))]
		}
		msgs[i] = Message{Src: src, Dst: dst, T0: e.v.Start() + r.Uniform(0, window), TTL: ttl}
	}
	out := make([]Stats, len(algos))
	for ai, algo := range algos {
		s := Stats{Name: algo.Name, Messages: n}
		var delaySum, copySum float64
		delivered := 0
		for _, m := range msgs {
			o := algo.Run(m)
			copySum += float64(o.Copies)
			if o.Delivered {
				delivered++
				delaySum += o.Delay
			}
		}
		s.SuccessRate = float64(delivered) / float64(n)
		if delivered > 0 {
			s.MeanDelay = delaySum / float64(delivered)
		} else {
			s.MeanDelay = math.NaN()
		}
		s.MeanCopies = copySum / float64(n)
		out[ai] = s
	}
	return out, nil
}
