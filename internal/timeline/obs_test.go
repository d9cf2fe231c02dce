package timeline_test

import (
	"testing"

	"opportunet/internal/obs"
	"opportunet/internal/rng"
	"opportunet/internal/timeline"
)

// TestObsCounters wires a registry and checks the index layer's
// metrics: base builds, derived-view materializations, and the query
// counters.
func TestObsCounters(t *testing.T) {
	reg := obs.NewRegistry()
	obs.Wire(reg)
	defer obs.Wire(nil)

	tr := randomTrace(10, 200, rng.New(7))
	tl := timeline.New(tr)
	v := tl.All()
	builds := reg.Counter("timeline_index_builds_total", "")
	before := builds.Value()
	v.Meet(0, 1, 0)
	if got := builds.Value() - before; got != 1 {
		t.Fatalf("Meet on a fresh view raised timeline_index_builds_total by %d, want 1 (the pair half only)", got)
	}
	v.NextContact(0, 0)
	if got := builds.Value() - before; got != 2 {
		t.Fatalf("Meet then NextContact raised timeline_index_builds_total by %d, want 2 (both halves)", got)
	}
	if got := reg.Counter("timeline_meet_calls_total", "").Value(); got != 1 {
		t.Fatalf("timeline_meet_calls_total = %d, want 1", got)
	}
	if got := reg.Counter("timeline_nextcontact_calls_total", "").Value(); got != 1 {
		t.Fatalf("timeline_nextcontact_calls_total = %d, want 1", got)
	}

	// A derived view materializes its own indexes.
	dv := v.InternalOnly().MinDuration(5)
	dv.Meet(0, 1, 0)
	if got := reg.Counter("timeline_view_materializations_total", "").Value(); got <= 0 {
		t.Fatalf("timeline_view_materializations_total = %d, want > 0 after derived query", got)
	}
}
