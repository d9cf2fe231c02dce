package reach

import (
	"opportunet/internal/obs"
)

// reMetrics are the reach layer's observability handles, nil (free
// no-ops) until a command wires a registry.
var reMetrics struct {
	builds     *obs.Counter // reach_builds_total
	refines    *obs.Counter // reach_refines_total
	events     *obs.Counter // reach_envelope_events_total
	certPasses *obs.Counter // reach_cert_passes_total
	certFails  *obs.Counter // reach_cert_fails_total
}

func init() {
	obs.OnInstrument(func(r *obs.Registry) {
		reMetrics.builds = r.Counter("reach_builds_total",
			"envelope builds (slot sweeps) completed")
		reMetrics.refines = r.Counter("reach_refines_total",
			"slot-resolution doublings performed")
		reMetrics.events = r.Counter("reach_envelope_events_total",
			"clamped-ramp events accumulated into envelopes")
		reMetrics.certPasses = r.Counter("reach_cert_passes_total",
			"hop bounds certified as passing the (1-eps) criterion")
		reMetrics.certFails = r.Counter("reach_cert_fails_total",
			"hop bounds certified as failing the (1-eps) criterion")
	})
}
