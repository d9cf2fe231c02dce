package server

import (
	"context"
	"errors"
	"sync"

	"opportunet/internal/obs"
)

// errLeaderPanicked is what followers of a coalesced flight observe
// when the leader's computation panicked: they fail with a contained
// error (500) while the panic itself propagates — and is recovered —
// only on the leader's own request.
var errLeaderPanicked = errors.New("server: coalesced computation panicked")

// flight is one in-progress computation shared by every request that
// asked the identical question while it ran.
type flight struct {
	done chan struct{} // closed when val/err are final
	val  any
	err  error
}

// flightGroup coalesces identical in-flight queries: concurrent do()
// calls with the same key run fn once and share the result. Keys are
// checkpoint.Fingerprint-style content addresses of the full query
// (see queryKey in handlers.go). Only *in-flight* work is shared —
// nothing is cached past the flight, so coalescing can never serve a
// stale answer; repeated queries stay fast through the Study's own
// warm caches instead.
type flightGroup struct {
	mu sync.Mutex
	m  map[string]*flight
}

// do runs fn once per key among concurrent callers and hands every
// caller the same (val, err). Deadline containment rules:
//
//   - A follower whose own ctx expires while waiting stops waiting and
//     returns its ctx.Err() — one slow flight never holds an already
//     expired request open.
//   - A leader that failed with a context error failed because of *its*
//     deadline, which says nothing about a follower whose deadline is
//     still live: such followers loop and recompute, possibly becoming
//     the new leader.
//   - A leader that panics completes the flight with errLeaderPanicked
//     (followers fail contained) and then re-panics on its own request,
//     where the server's recovery middleware turns it into a 500.
//
// The request's trace tc (nil when tracing is off) records its
// coalescing role — TraceFollower when it attached to an in-flight
// computation, TraceLeader plus the compute bracket when it ran fn
// itself.
func (g *flightGroup) do(ctx context.Context, tc *obs.Trace, key string, fn func() (any, error)) (any, error) {
	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	for {
		g.mu.Lock()
		if g.m == nil {
			g.m = make(map[string]*flight)
		}
		if f, ok := g.m[key]; ok {
			g.mu.Unlock()
			srvMetrics.coalesced.Inc()
			tc.Event(obs.TraceFollower)
			select {
			case <-done:
				return nil, ctx.Err()
			case <-f.done:
				if f.err != nil && (errors.Is(f.err, context.Canceled) || errors.Is(f.err, context.DeadlineExceeded)) {
					continue
				}
				return f.val, f.err
			}
		}
		f := &flight{done: make(chan struct{})}
		g.m[key] = f
		g.mu.Unlock()
		srvMetrics.flights.Inc()
		tc.Event(obs.TraceLeader)
		var c0 int64
		if tc != nil {
			tc.Event(obs.TraceComputeStart)
			c0 = tc.Since()
		}
		completed := false
		func() {
			defer func() {
				g.mu.Lock()
				delete(g.m, key)
				g.mu.Unlock()
				if !completed {
					f.val, f.err = nil, errLeaderPanicked
				}
				close(f.done)
			}()
			f.val, f.err = fn()
			completed = true
		}()
		if tc != nil {
			tc.ComputeNS += tc.Since() - c0
			tc.Event(obs.TraceComputeEnd)
		}
		return f.val, f.err
	}
}
