package timeline

import (
	"fmt"
	"math"
	"strconv"
	"sync"
	"sync/atomic"

	"opportunet/internal/trace"
)

// appenderSerial hands out process-unique stream identities, so the
// engine's resume fingerprint can tell two appenders apart even when
// they ingest the same trace.
var appenderSerial atomic.Uint64

// DefaultSealEvery is the memtable size at which Append seals a segment
// when the caller passes sealEvery <= 0.
const DefaultSealEvery = 4096

// Appender is the mutable ingestion side of a streaming timeline: it
// accepts batched contact appends in any time order, seals them into
// immutable CSR segments (LSM-style), compacts size-adjacent segments
// by rebuilding their combined arrival run as one segment, and evicts
// segments whose contacts have entirely expired. Snapshot freezes the
// current segment set into a read-only Timeline whose views answer
// every existing query — either straight off the segments (a handful of
// binary searches per query) or, once a consumer materializes the
// index, off the same canonical arrays timeline.New would have built.
//
// An Appender is safe for concurrent use; snapshots taken from it are
// immutable and never invalidated by later appends. Only eviction
// changes the identity of previously appended contacts, which is why it
// bumps the generation that invalidates engine resume (see
// Timeline.StreamInfo).
type Appender struct {
	mu sync.Mutex

	id    string
	name  string
	gran  float64
	start float64
	end   float64
	kinds []trace.Kind

	// arrival is the live contact log in append order. Sealed segments
	// index contiguous runs of it; snapshots alias prefixes of it.
	// Appends only ever extend it, so aliases stay valid; eviction
	// replaces it wholesale with a fresh backing array.
	arrival []trace.Contact
	sealed  int // contacts covered by segs

	segs []*segment
	runs [][2]int // arrival-offset run [start, end) of each segment

	sealEvery int
	evictGen  uint64
}

// NewAppender starts a streaming timeline with the given trace header:
// Name, Granularity, Start/End window and the device-kind table (which
// fixes the node count — streamed contacts must stay within it). Any
// contacts already in meta are appended as a first batch. sealEvery <= 0
// selects DefaultSealEvery.
func NewAppender(meta *trace.Trace, sealEvery int) (*Appender, error) {
	if len(meta.Kinds) == 0 {
		return nil, fmt.Errorf("timeline: appender needs a device-kind table (node count)")
	}
	if sealEvery <= 0 {
		sealEvery = DefaultSealEvery
	}
	a := &Appender{
		id:        "stream-" + strconv.FormatUint(appenderSerial.Add(1), 10),
		name:      meta.Name,
		gran:      meta.Granularity,
		start:     meta.Start,
		end:       meta.End,
		kinds:     meta.Kinds,
		sealEvery: sealEvery,
	}
	if len(meta.Contacts) > 0 {
		if err := a.Append(meta.Contacts); err != nil {
			return nil, err
		}
	}
	return a, nil
}

// ID returns the appender's process-unique stream identity.
func (a *Appender) ID() string { return a.id }

// NumNodes returns the fixed device count of the stream.
func (a *Appender) NumNodes() int { return len(a.kinds) }

// Len returns the number of live (appended and not evicted) contacts.
func (a *Appender) Len() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.arrival)
}

// Segments returns the current sealed-segment count (diagnostics).
func (a *Appender) Segments() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.segs)
}

// Generation returns the eviction generation; it changes exactly when
// previously appended contacts disappear, invalidating engine resume.
func (a *Appender) Generation() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.evictGen
}

// Reserve pre-grows the arrival log to hold n total contacts, so a
// paced ingestion loop's warm Append stays allocation-free.
func (a *Appender) Reserve(n int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if cap(a.arrival) < n {
		grown := make([]trace.Contact, len(a.arrival), n)
		copy(grown, a.arrival)
		a.arrival = grown
	}
}

// ExtendWindow grows the observation window's end (replay and live
// feeds learn the horizon as contacts arrive). It never shrinks.
func (a *Appender) ExtendWindow(end float64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if end > a.end {
		a.end = end
	}
}

// Append validates and appends one batch of contacts, in any time
// order; duplicates and overlaps are allowed (they are allowed in
// traces too). When the unsealed tail reaches the seal threshold it is
// sealed into a segment and size-adjacent segments are compacted, so
// the segment count stays logarithmic in the stream length.
func (a *Appender) Append(batch []trace.Contact) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	n := trace.NodeID(len(a.kinds))
	for i, c := range batch {
		if c.A < 0 || c.A >= n || c.B < 0 || c.B >= n {
			return fmt.Errorf("timeline: append: contact %d: device id out of range (nodes=%d)", i, n)
		}
		if c.A == c.B {
			return fmt.Errorf("timeline: append: contact %d: self-contact at device %d", i, c.A)
		}
		if math.IsNaN(c.Beg) || math.IsInf(c.Beg, 0) || math.IsNaN(c.End) || math.IsInf(c.End, 0) {
			return fmt.Errorf("timeline: append: contact %d: non-finite time", i)
		}
		if c.End < c.Beg {
			return fmt.Errorf("timeline: append: contact %d: ends before it begins (%g < %g)", i, c.End, c.Beg)
		}
	}
	a.arrival = append(a.arrival, batch...)
	tlMetrics.appended.Add(int64(len(batch)))
	if len(a.arrival)-a.sealed >= a.sealEvery {
		a.sealLocked()
	}
	return nil
}

// Seal forces the unsealed tail into a segment (snapshot boundaries and
// tests; Append seals automatically at the threshold).
func (a *Appender) Seal() {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.sealLocked()
}

func (a *Appender) sealLocked() {
	if a.sealed == len(a.arrival) {
		return
	}
	tlMetrics.segSeals.Inc()
	a.runs = append(a.runs, [2]int{a.sealed, len(a.arrival)})
	a.sealed = len(a.arrival)
	// Size-tiered compaction: the new run absorbs its left neighbor
	// while it holds at least half the neighbor's contacts, and the
	// combined run is then indexed once. Compaction runs in the
	// foreground — determinism and bounded memory beat a background
	// goroutine here — and its cost is amortized: each contact is
	// rebuilt O(log n) times over the stream's life.
	j := len(a.runs) - 1
	for j > 0 && 2*(a.sealed-a.runs[j][0]) >= a.runs[j-1][1]-a.runs[j-1][0] {
		j--
	}
	run := [2]int{a.runs[j][0], a.sealed}
	if j < len(a.runs)-1 {
		tlMetrics.segMerges.Inc()
		tlMetrics.mergeRewritten.Add(int64(run[1] - run[0]))
	}
	a.runs = append(a.runs[:j], run)
	a.segs = append(a.segs[:j], buildSegment(a.arrival[run[0]:run[1]], len(a.kinds)))
	tlMetrics.liveSegments.Set(int64(len(a.segs)))
}

// EvictBefore drops every segment whose contacts all ended before
// cutoff, returning the number of contacts evicted. Eviction is
// segment-granular: a segment straddling the cutoff survives whole.
// When anything is dropped the arrival log is rebuilt (old snapshots
// keep the previous backing array) and the eviction generation bumps,
// which invalidates engine resume against earlier snapshots. A call
// that drops nothing leaves the generation untouched.
func (a *Appender) EvictBefore(cutoff float64) int {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.sealLocked()
	dropped := 0
	keepSegs := a.segs[:0]
	keepRuns := a.runs[:0]
	var arrival []trace.Contact
	for i, s := range a.segs {
		if s.maxEnd < cutoff {
			dropped += a.runs[i][1] - a.runs[i][0]
			continue
		}
		keepSegs = append(keepSegs, s)
		keepRuns = append(keepRuns, a.runs[i])
	}
	if dropped == 0 {
		return 0
	}
	// Rebuild the arrival log as the concatenation of the surviving
	// runs, in order: each segment's local indices stay valid relative
	// to its own run, and the runs stay arrival-adjacent.
	arrival = make([]trace.Contact, 0, len(a.arrival)-dropped)
	for i := range keepRuns {
		r := keepRuns[i]
		start := len(arrival)
		arrival = append(arrival, a.arrival[r[0]:r[1]]...)
		keepRuns[i] = [2]int{start, len(arrival)}
	}
	segsEvicted := len(a.segs) - len(keepSegs)
	a.segs = keepSegs
	a.runs = keepRuns
	a.arrival = arrival
	a.sealed = len(arrival)
	a.evictGen++
	tlMetrics.segsEvicted.Add(int64(segsEvicted))
	tlMetrics.contactsEvicted.Add(int64(dropped))
	tlMetrics.liveSegments.Set(int64(len(a.segs)))
	return dropped
}

// Snapshot seals the unsealed tail and freezes the current segment set
// into an immutable Timeline. The snapshot aliases the arrival log (no
// contact copy); later appends extend the log without disturbing it,
// and eviction swaps in a fresh log, so a snapshot is never mutated.
func (a *Appender) Snapshot() *Timeline {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.sealLocked()
	total := len(a.arrival)
	tr := &trace.Trace{
		Name:        a.name,
		Granularity: a.gran,
		Start:       a.start,
		End:         a.end,
		Kinds:       a.kinds,
		Contacts:    a.arrival[:total:total],
	}
	tl := New(tr)
	tl.segs = append([]*segment(nil), a.segs...)
	tl.streamID, tl.evictGen = a.id, a.evictGen
	return tl
}
