// Package trace defines the contact-trace representation shared by the
// whole repository: a temporal network given as a static set of devices
// and a multiset of contacts (u, v, [t_beg, t_end]), exactly the model of
// §4.2 of the paper ("an edge from device u to device v, with label
// [t_beg; t_end], represents a contact").
//
// The package also provides the simple trace-level statistics the paper
// reports — contact durations (Figure 7) and rate of contact (Table 1) —
// plus the contact-removal operations of §6. Statistics that need the
// per-pair meeting index (inter-contact times, the next-contact step
// function of Figure 6, pair normalization) live in package timeline,
// which indexes a trace once and shares the index across all consumers.
package trace

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"opportunet/internal/rng"
)

// NodeID identifies a device. Devices are numbered densely from 0.
type NodeID int32

// Kind distinguishes experimental devices from external Bluetooth devices
// observed opportunistically (§5.1). External devices take part in paths
// but their mutual contacts are not observed by the experiment.
type Kind uint8

// Device kinds.
const (
	Internal Kind = iota
	External
)

// Contact is a single observed contact: devices A and B are in range
// during [Beg, End] (seconds). Contacts are undirected: either device can
// transfer data to the other while the contact lasts. End == Beg encodes
// an instantaneous contact.
type Contact struct {
	A, B     NodeID
	Beg, End float64
}

// Duration returns the contact length in seconds.
func (c Contact) Duration() float64 { return c.End - c.Beg }

// Trace is a temporal network observed over the window [Start, End].
type Trace struct {
	// Name labels the data set (e.g. "infocom05").
	Name string
	// Granularity is the scan period in seconds; 0 if contacts were
	// observed continuously.
	Granularity float64
	// Start and End delimit the observation window in seconds.
	Start, End float64
	// Kinds gives the kind of every device; its length is the number of
	// devices.
	Kinds []Kind
	// Contacts holds every recorded contact, in no particular order
	// unless SortByBeg was called.
	Contacts []Contact
}

// NumNodes returns the number of devices in the trace.
func (t *Trace) NumNodes() int { return len(t.Kinds) }

// NumInternal returns the number of experimental (internal) devices.
func (t *Trace) NumInternal() int {
	n := 0
	for _, k := range t.Kinds {
		if k == Internal {
			n++
		}
	}
	return n
}

// InternalNodes returns the IDs of all internal devices in increasing
// order.
func (t *Trace) InternalNodes() []NodeID {
	var out []NodeID
	for id, k := range t.Kinds {
		if k == Internal {
			out = append(out, NodeID(id))
		}
	}
	return out
}

// Duration returns the length of the observation window in seconds.
func (t *Trace) Duration() float64 { return t.End - t.Start }

// Validate checks structural invariants: window sanity, device IDs in
// range, no self-contacts, and non-negative contact durations. It returns
// the first violation found.
func (t *Trace) Validate() error {
	if t.End < t.Start {
		return fmt.Errorf("trace %q: window end %v before start %v", t.Name, t.End, t.Start)
	}
	n := NodeID(len(t.Kinds))
	for i, c := range t.Contacts {
		if c.A < 0 || c.A >= n || c.B < 0 || c.B >= n {
			return fmt.Errorf("trace %q: contact %d references device out of range (%d, %d, n=%d)", t.Name, i, c.A, c.B, n)
		}
		if c.A == c.B {
			return fmt.Errorf("trace %q: contact %d is a self-contact on device %d", t.Name, i, c.A)
		}
		if c.End < c.Beg {
			return fmt.Errorf("trace %q: contact %d has negative duration [%v, %v]", t.Name, i, c.Beg, c.End)
		}
		if math.IsNaN(c.Beg) || math.IsNaN(c.End) || math.IsInf(c.Beg, 0) || math.IsInf(c.End, 0) {
			return fmt.Errorf("trace %q: contact %d has non-finite times", t.Name, i)
		}
	}
	return nil
}

// Clone returns a deep copy of the trace.
func (t *Trace) Clone() *Trace {
	cp := *t
	cp.Kinds = append([]Kind(nil), t.Kinds...)
	cp.Contacts = append([]Contact(nil), t.Contacts...)
	return &cp
}

// SortByBeg orders contacts by begin time (ties by end time, then IDs),
// the canonical order used by the path engine and the statistics below.
func (t *Trace) SortByBeg() {
	slices.SortFunc(t.Contacts, compareByBeg)
}

// compareByBeg is negative exactly when a plain < holds on the first of
// Beg, End, A, B that differs (NaN differs from everything and is never
// less). That is the order sort.Slice gives with the same less function:
// both run the same pdqsort, which only asks whether the result is
// negative. cmp.Compare would instead sort NaN first.
func compareByBeg(a, b Contact) int {
	switch {
	case a.Beg != b.Beg:
		return before(a.Beg < b.Beg)
	case a.End != b.End:
		return before(a.End < b.End)
	case a.A != b.A:
		return before(a.A < b.A)
	case a.B != b.B:
		return before(a.B < b.B)
	}
	return 0
}

// before maps a strict comparison to a comparator result.
func before(lt bool) int {
	if lt {
		return -1
	}
	return 1
}

// filter returns a copy of t whose contacts satisfy keep. Metadata and
// device set are preserved.
func (t *Trace) filter(keep func(Contact) bool) *Trace {
	cp := *t
	cp.Kinds = append([]Kind(nil), t.Kinds...)
	cp.Contacts = nil
	for _, c := range t.Contacts {
		if keep(c) {
			cp.Contacts = append(cp.Contacts, c)
		}
	}
	return &cp
}

// InternalOnly returns a copy containing only contacts between internal
// devices (the default view used in §5 for the conference data sets).
func (t *Trace) InternalOnly() *Trace {
	return t.filter(func(c Contact) bool {
		return t.Kinds[c.A] == Internal && t.Kinds[c.B] == Internal
	})
}

// TimeWindow returns a copy restricted to [a, b]; contacts are clipped to
// the window and the trace window is set to [a, b]. Used e.g. to extract
// the second day of Infocom06 for §6.
//
// Boundary semantics: a positive-length contact is kept iff it overlaps
// the window for a positive duration — a contact merely touching a
// boundary (End == a or Beg == b) is dropped, because clipping would
// leave a zero-length artifact that the rest of the system would
// misread as an instantaneous contact. Genuinely instantaneous contacts
// (Beg == End) are kept whenever they lie inside the closed window.
func (t *Trace) TimeWindow(a, b float64) *Trace {
	cp := *t
	cp.Kinds = append([]Kind(nil), t.Kinds...)
	cp.Start, cp.End = a, b
	cp.Contacts = nil
	for _, c := range t.Contacts {
		if c.Beg == c.End {
			if c.Beg < a || c.Beg > b {
				continue
			}
		} else if math.Min(c.End, b) <= math.Max(c.Beg, a) {
			continue
		}
		if c.Beg < a {
			c.Beg = a
		}
		if c.End > b {
			c.End = b
		}
		cp.Contacts = append(cp.Contacts, c)
	}
	return &cp
}

// MinDuration returns a copy keeping only contacts lasting at least d
// seconds: the duration-threshold removal of §6.2.
func (t *Trace) MinDuration(d float64) *Trace {
	return t.filter(func(c Contact) bool { return c.Duration() >= d })
}

// RemoveRandom returns a copy in which each contact was removed
// independently with probability p: the random contact removal of §6.1.
func (t *Trace) RemoveRandom(p float64, r *rng.Source) *Trace {
	return t.filter(func(Contact) bool { return !r.Bool(p) })
}

// Durations returns the duration of every contact, in seconds.
func (t *Trace) Durations() []float64 {
	out := make([]float64, len(t.Contacts))
	for i, c := range t.Contacts {
		out[i] = c.Duration()
	}
	return out
}

// ContactsPerNode returns the number of contacts each device takes part
// in.
func (t *Trace) ContactsPerNode() []int {
	out := make([]int, t.NumNodes())
	for _, c := range t.Contacts {
		out[c.A]++
		out[c.B]++
	}
	return out
}

// RateOfContact returns the average number of contacts made by an
// internal device per day, the "rate of contact" of Table 1. Each contact
// counts once for each internal endpoint. It returns 0 for an empty
// window or a trace without internal devices.
func (t *Trace) RateOfContact() float64 {
	days := t.Duration() / 86400
	ni := t.NumInternal()
	if days <= 0 || ni == 0 {
		return 0
	}
	events := 0
	for _, c := range t.Contacts {
		if t.Kinds[c.A] == Internal {
			events++
		}
		if t.Kinds[c.B] == Internal {
			events++
		}
	}
	return float64(events) / float64(ni) / days
}

// Compact renumbers devices densely, dropping devices that take part in
// no contact. It returns the compacted trace and the mapping from new to
// old IDs. Filtering operations (InternalOnly, contact removal) can
// leave many silent devices; compacting shrinks per-pair state in
// downstream analyses.
func (t *Trace) Compact() (*Trace, []NodeID) {
	used := make([]bool, t.NumNodes())
	for _, c := range t.Contacts {
		used[c.A] = true
		used[c.B] = true
	}
	newID := make([]NodeID, t.NumNodes())
	var oldID []NodeID
	for id, u := range used {
		if !u {
			newID[id] = -1
			continue
		}
		newID[id] = NodeID(len(oldID))
		oldID = append(oldID, NodeID(id))
	}
	cp := *t
	cp.Kinds = make([]Kind, len(oldID))
	for n, o := range oldID {
		cp.Kinds[n] = t.Kinds[o]
	}
	cp.Contacts = make([]Contact, len(t.Contacts))
	for i, c := range t.Contacts {
		c.A, c.B = newID[c.A], newID[c.B]
		cp.Contacts[i] = c
	}
	return &cp, oldID
}

// HourlyContactCounts buckets contact begin times by hour since the
// trace start, returning one count per hour of the window (the last
// bucket may be partial). It exposes the diurnal rhythm the activity
// profiles generate and Figure 6 visualizes.
func (t *Trace) HourlyContactCounts() []int {
	hours := int(math.Ceil(t.Duration() / 3600))
	if hours <= 0 {
		return nil
	}
	out := make([]int, hours)
	for _, c := range t.Contacts {
		h := int((c.Beg - t.Start) / 3600)
		if h >= 0 && h < hours {
			out[h]++
		}
	}
	return out
}

// PeakToTroughRatio summarizes the diurnal contrast: the ratio between
// the busiest and the median non-zero hourly contact count (+Inf when
// more than half the hours are silent but some activity exists, 0 for an
// empty trace).
func (t *Trace) PeakToTroughRatio() float64 {
	counts := t.HourlyContactCounts()
	if len(counts) == 0 {
		return 0
	}
	peak := 0
	vals := make([]float64, len(counts))
	for i, c := range counts {
		vals[i] = float64(c)
		if c > peak {
			peak = c
		}
	}
	if peak == 0 {
		return 0
	}
	med := medianOf(vals)
	if med == 0 {
		return math.Inf(1)
	}
	return float64(peak) / med
}

// medianOf returns the median of xs without modifying it.
func medianOf(xs []float64) float64 {
	cp := append([]float64(nil), xs...)
	sort.Float64s(cp)
	n := len(cp)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return cp[n/2]
	}
	return (cp[n/2-1] + cp[n/2]) / 2
}
