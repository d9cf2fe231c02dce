package timeline

import (
	"opportunet/internal/obs"
)

// tlMetrics are the timeline layer's observability handles, nil (free
// no-ops) until a command wires a registry. Meet/NextContact are the
// layer's hottest queries; their counters are plain nil-safe atomic
// adds, so the disabled path stays pinned at zero allocations.
var tlMetrics struct {
	indexBuilds  *obs.Counter // timeline_index_builds_total
	viewMats     *obs.Counter // timeline_view_materializations_total
	meets        *obs.Counter // timeline_meet_calls_total
	nextContact  *obs.Counter // timeline_nextcontact_calls_total
	sliceQueries *obs.Counter // timeline_slice_queries_total

	// Streaming-side families (Appender/segment lifecycle). The
	// compaction counters expose write amplification: mergeRewritten /
	// appended is the classic LSM amplification factor.
	appended        *obs.Counter // timeline_appended_contacts_total
	segSeals        *obs.Counter // timeline_segment_seals_total
	segMerges       *obs.Counter // timeline_segment_merges_total
	mergeRewritten  *obs.Counter // timeline_merge_contacts_rewritten_total
	segsEvicted     *obs.Counter // timeline_segments_evicted_total
	contactsEvicted *obs.Counter // timeline_contacts_evicted_total
	liveSegments    *obs.Gauge   // timeline_live_segments
}

func init() {
	obs.OnInstrument(func(r *obs.Registry) {
		tlMetrics.indexBuilds = r.Counter("timeline_index_builds_total",
			"base index arrays built (adjacency and pair CSR sorts)")
		tlMetrics.viewMats = r.Counter("timeline_view_materializations_total",
			"derived-view index arrays materialized lazily")
		tlMetrics.meets = r.Counter("timeline_meet_calls_total",
			"Meet queries answered")
		tlMetrics.nextContact = r.Counter("timeline_nextcontact_calls_total",
			"NextContact queries answered")
		tlMetrics.sliceQueries = r.Counter("timeline_slice_queries_total",
			"OutgoingAfter δ-slice queries answered")
		tlMetrics.appended = r.Counter("timeline_appended_contacts_total",
			"contacts accepted by streaming appenders")
		tlMetrics.segSeals = r.Counter("timeline_segment_seals_total",
			"immutable CSR segments sealed from appender memtables")
		tlMetrics.segMerges = r.Counter("timeline_segment_merges_total",
			"compactions: adjacent segments rebuilt as one sorted run")
		tlMetrics.mergeRewritten = r.Counter("timeline_merge_contacts_rewritten_total",
			"contacts re-sorted by compactions (write amplification)")
		tlMetrics.segsEvicted = r.Counter("timeline_segments_evicted_total",
			"expired segments dropped by time-window eviction")
		tlMetrics.contactsEvicted = r.Counter("timeline_contacts_evicted_total",
			"contacts dropped by time-window eviction")
		tlMetrics.liveSegments = r.Gauge("timeline_live_segments",
			"sealed segments currently live in the appender")
	})
}
