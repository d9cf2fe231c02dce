package server

import (
	"opportunet/internal/obs"
)

// srvMetrics are the serving layer's observability handles, nil (free
// no-ops) until a command wires a registry. They watch the three things
// that decide whether the daemon is healthy under load: the admission
// gate (inflight, queue depth, sheds), expired deadlines, and
// per-request latency. The drain invariant — every started request finishes — is
// checkable from requests_started/finished alone.
var srvMetrics struct {
	started  *obs.Counter // server_requests_started_total
	finished *obs.Counter // server_requests_finished_total
	admitted *obs.Counter // server_admitted_total

	shedQueue *obs.Counter // server_shed_queue_full_total
	shedWait  *obs.Counter // server_shed_wait_total

	inflight   *obs.Gauge     // server_inflight
	queueDepth *obs.Gauge     // server_queue_depth
	queueWait  *obs.Histogram // server_queue_wait_seconds
	latency    *obs.Histogram // server_request_seconds

	deadlines *obs.Counter // server_deadline_exceeded_total
	panics    *obs.Counter // server_panics_total

	flights   *obs.Counter // server_flights_total
	coalesced *obs.Counter // server_coalesced_total
}

func init() {
	obs.OnInstrument(func(r *obs.Registry) {
		srvMetrics.started = r.Counter("server_requests_started_total",
			"query requests entering the serving pipeline")
		srvMetrics.finished = r.Counter("server_requests_finished_total",
			"query requests that completed (any status); equals started when nothing is in flight")
		srvMetrics.admitted = r.Counter("server_admitted_total",
			"requests that acquired an execution slot")
		srvMetrics.shedQueue = r.Counter("server_shed_queue_full_total",
			"requests shed immediately because the wait queue was full")
		srvMetrics.shedWait = r.Counter("server_shed_wait_total",
			"requests shed after exhausting the queue-wait deadline")
		srvMetrics.inflight = r.Gauge("server_inflight",
			"requests currently holding an execution slot")
		srvMetrics.queueDepth = r.Gauge("server_queue_depth",
			"requests currently waiting for an execution slot")
		srvMetrics.queueWait = r.Histogram("server_queue_wait_seconds",
			"time requests spent waiting for admission",
			[]float64{1e-4, 1e-3, 1e-2, 0.1, 0.5, 1, 5, 30})
		srvMetrics.latency = r.Histogram("server_request_seconds",
			"end-to-end request latency, admission wait included",
			[]float64{1e-4, 1e-3, 1e-2, 0.1, 0.5, 1, 5, 30})
		srvMetrics.deadlines = r.Counter("server_deadline_exceeded_total",
			"requests that hit their deadline (answered 504)")
		srvMetrics.panics = r.Counter("server_panics_recovered_total",
			"handler panics recovered (request failed with 500, daemon survived)")
		srvMetrics.flights = r.Counter("server_flights_total",
			"coalesced computations actually executed (flight leaders)")
		srvMetrics.coalesced = r.Counter("server_coalesced_total",
			"requests that joined an identical in-flight computation instead of recomputing")
	})
}
