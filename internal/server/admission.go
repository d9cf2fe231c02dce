package server

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"opportunet/internal/obs"
)

// shedError reports an admission rejection: the request never acquired
// an execution slot and should be retried after the hint. The serving
// layer maps it to 429 + Retry-After.
type shedError struct {
	reason     string // "queue-full" | "queue-wait"
	retryAfter time.Duration
}

func (e *shedError) Error() string {
	return fmt.Sprintf("server: overloaded (%s), retry after %v", e.reason, e.retryAfter)
}

// admission is the bounded-concurrency gate in front of every query:
// at most maxInflight requests compute concurrently, at most maxQueue
// more wait behind them (for at most queueWait each), and everything
// beyond that is shed immediately. Memory under overload is therefore
// bounded by maxInflight + maxQueue parked goroutines — the server can
// not queue unboundedly no matter the offered load.
type admission struct {
	slots     chan struct{} // buffered; a held token = one inflight request
	waiting   atomic.Int64
	maxQueue  int64
	queueWait time.Duration
}

func newAdmission(maxInflight, maxQueue int, queueWait time.Duration) *admission {
	if maxInflight < 1 {
		maxInflight = 1
	}
	if maxQueue < 0 {
		maxQueue = 0
	}
	return &admission{
		slots:     make(chan struct{}, maxInflight),
		maxQueue:  int64(maxQueue),
		queueWait: queueWait,
	}
}

// acquire admits the request or rejects it: a *shedError when the queue
// is full or the queue-wait deadline passes, ctx.Err() when the
// request's own deadline expires while queued. Every successful acquire
// must be paired with exactly one release. The fast path — a free
// slot — performs no allocation (pinned by TestAdmissionAllocs), and tc
// (the request's trace, nil when tracing is off) records the admission
// events: an immediate grant is just TraceAcquire; a queued request
// gets TraceEnqueue, its queue wait attributed to QueueNS, and
// TraceAcquire only if a slot frees up in time.
func (a *admission) acquire(ctx context.Context, tc *obs.Trace) error {
	select {
	case a.slots <- struct{}{}:
		srvMetrics.admitted.Inc()
		srvMetrics.inflight.Add(1)
		tc.Event(obs.TraceAcquire)
		return nil
	default:
	}
	if a.waiting.Add(1) > a.maxQueue {
		a.waiting.Add(-1)
		srvMetrics.shedQueue.Inc()
		return &shedError{reason: "queue-full", retryAfter: a.queueWait}
	}
	tc.Event(obs.TraceEnqueue)
	srvMetrics.queueDepth.Add(1)
	start := time.Now()
	defer func() {
		a.waiting.Add(-1)
		srvMetrics.queueDepth.Add(-1)
		wait := time.Since(start)
		srvMetrics.queueWait.Observe(wait.Seconds())
		if tc != nil {
			tc.QueueNS = int64(wait)
		}
	}()
	timer := time.NewTimer(a.queueWait)
	defer timer.Stop()
	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	select {
	case a.slots <- struct{}{}:
		srvMetrics.admitted.Inc()
		srvMetrics.inflight.Add(1)
		tc.Event(obs.TraceAcquire)
		return nil
	case <-timer.C:
		srvMetrics.shedWait.Inc()
		return &shedError{reason: "queue-wait", retryAfter: a.queueWait}
	case <-done:
		return ctx.Err()
	}
}

func (a *admission) release() {
	<-a.slots
	srvMetrics.inflight.Add(-1)
}
