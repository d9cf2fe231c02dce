package timeline

import "opportunet/internal/trace"

// segment is one immutable sorted run of a streaming timeline: both
// index halves built over a contiguous arrival-order slice of the
// appender's contact log, with CIdx local to that slice. Compaction
// rebuilds the combined slice of adjacent segments the same way, so a
// segment covering the whole log holds exactly the arrays timeline.New
// would build over the same contacts.
//
// Segments are never mutated after construction, so any number of
// snapshots and queries may share them without synchronization.
type segment struct {
	maxEnd float64 // latest contact end: eviction and query early-out
	adj    adjIndex
	pairs  pairIndex
}

// buildSegment indexes one arrival-order contact run. n is the node
// count of the stream (fixed by the appender's header).
func buildSegment(contacts []trace.Contact, n int) *segment {
	s := &segment{maxEnd: -inf, adj: buildAdj(contacts, n), pairs: buildPairs(contacts)}
	for _, c := range contacts {
		s.maxEnd = max(s.maxEnd, c.End)
	}
	return s
}
