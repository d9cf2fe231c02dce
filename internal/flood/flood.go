// Package flood implements earliest-delivery computation by simulated
// flooding, the independent approach the paper cites (ref. [18]: "a
// discrete event simulator is used to simulate flooding"). Given a start
// time it answers the same question as the core profile engine evaluated
// at that time — which makes it both a correctness oracle for the engine
// (they must agree everywhere) and the baseline of the ablation bench
// contrasting per-start-time flooding with the paper's all-start-times
// profile representation.
//
// Flooding is also the Π(t, k) primitive of §4.1: the diameter compares
// hop-limited flooding with unlimited flooding, and package forward uses
// the same computation to evaluate epidemic routing.
package flood

import (
	"container/heap"
	"math"

	"opportunet/internal/timeline"
	"opportunet/internal/trace"
)

// Options configures a Flooder.
type Options struct {
	// MaxHops bounds the number of contacts per path; 0 means unbounded.
	MaxHops int
	// Directed treats each contact as usable from A to B only.
	Directed bool
	// TransmitDelay is the duration of one hop; consecutive hops must
	// start TransmitDelay apart and delivery happens TransmitDelay after
	// the last transmission starts. 0 reproduces the paper's model.
	TransmitDelay float64
}

// Flooder computes earliest-delivery times over one timeline view. It is
// read-only after construction and safe for concurrent use.
type Flooder struct {
	n   int
	opt Options
	v   *timeline.View
}

// New builds a Flooder for the trace, indexing it from scratch. Callers
// that already hold a timeline view use NewView to share the index.
func New(tr *trace.Trace, opt Options) *Flooder {
	return NewView(timeline.New(tr).All(), opt)
}

// NewView builds a Flooder over a timeline view, reusing the view's
// end-sorted adjacency index.
func NewView(v *timeline.View, opt Options) *Flooder {
	return &Flooder{n: v.NumNodes(), opt: opt, v: v}
}

// NumNodes returns the device count of the underlying trace.
func (f *Flooder) NumNodes() int { return f.n }

// item is a heap element of the temporal Dijkstra: device v is delivered
// the message at time t.
type item struct {
	t float64
	v trace.NodeID
}

type minHeap []item

func (h minHeap) Len() int            { return len(h) }
func (h minHeap) Less(i, j int) bool  { return h[i].t < h[j].t }
func (h minHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *minHeap) Push(x interface{}) { *h = append(*h, x.(item)) }
func (h *minHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// EarliestDelivery floods a message created on src at time t0 and returns
// the earliest delivery time at every device (+Inf if unreachable),
// honoring Options.MaxHops.
func (f *Flooder) EarliestDelivery(src trace.NodeID, t0 float64) []float64 {
	if f.opt.MaxHops > 0 {
		byHops := f.EarliestDeliveryByHops(src, t0, f.opt.MaxHops)
		return byHops[f.opt.MaxHops]
	}
	arr := make([]float64, f.n)
	for i := range arr {
		arr[i] = math.Inf(1)
	}
	arr[src] = t0
	h := &minHeap{{t: t0, v: src}}
	for h.Len() > 0 {
		it := heap.Pop(h).(item)
		if it.t > arr[it.v] {
			continue // stale entry
		}
		f.relax(it.v, it.t, func(to trace.NodeID, at float64) {
			if at < arr[to] {
				arr[to] = at
				heap.Push(h, item{t: at, v: to})
			}
		})
	}
	return arr
}

// relax visits every contact leaving v that is still usable at delivery
// time t and reports the delivery time it achieves at the neighbor. The
// view's adjacency is end-sorted ascending, so the walk runs backwards
// and stops as soon as contacts end before the current arrival time.
func (f *Flooder) relax(v trace.NodeID, t float64, visit func(trace.NodeID, float64)) {
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
		visit(e.To, max(t, e.Beg)+delta)
	}
}

// EarliestDeliveryByHops returns, for every hop bound k = 0 … maxK, the
// earliest delivery time at every device using at most k contacts
// (Bellman-Ford over hop count; index [k][v]). Row 0 is t0 at src and
// +Inf elsewhere. This is the Π(t, k) oracle of §4.1 for one source and
// starting time.
//
// Round k relaxes only the devices whose arrival improved in round k−1:
// any other device offers the same candidates it offered before, and
// those are already folded into the previous row, so every row equals
// the one relaxing every reached device, bit for bit. Once a round
// improves nothing, every later row equals the last one; those rows are
// one shared slice, so callers must treat the rows as read-only.
func (f *Flooder) EarliestDeliveryByHops(src trace.NodeID, t0 float64, maxK int) [][]float64 {
	out := make([][]float64, maxK+1)
	prev := make([]float64, f.n)
	for i := range prev {
		prev[i] = math.Inf(1)
	}
	prev[src] = t0
	out[0] = prev
	var changed, improved []trace.NodeID
	if !math.IsInf(t0, 1) {
		changed = append(changed, src)
	}
	for k := 1; k <= maxK; k++ {
		if len(changed) > 0 {
			next := append([]float64(nil), prev...)
			improved = improved[:0]
			for _, v := range changed {
				f.relax(v, prev[v], func(to trace.NodeID, at float64) {
					if at < next[to] {
						if next[to] == prev[to] {
							improved = append(improved, to)
						}
						next[to] = at
					}
				})
			}
			changed, improved = improved, changed
			if len(changed) > 0 {
				prev = next
			}
		}
		out[k] = prev
	}
	return out
}

// Reachability reports which devices ever receive a message created on
// src at t0 (within the hop limit, if any).
func (f *Flooder) Reachability(src trace.NodeID, t0 float64) []bool {
	arr := f.EarliestDelivery(src, t0)
	out := make([]bool, len(arr))
	for i, t := range arr {
		out[i] = !math.IsInf(t, 1)
	}
	return out
}
