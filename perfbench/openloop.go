package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"sort"
	"time"
)

// The open-loop load generator. Every request has an intended send time
// fixed by the schedule; it is sent then, or as soon as its connection
// frees up when the previous request overran. Latency is timed from the
// intended time, so a stall is charged to every request it delayed, not
// just to the one that stalled (no coordinated omission). Samples are
// kept whole, so quantiles are exact.

// request is one scheduled request.
type request struct {
	at   time.Duration // intended send time, from the phase start
	url  string        // path and query
	kind int           // reqPath, reqRecon, reqDiameter or reqCDF
	id   string        // X-Trace-Id, joining the sample to the daemon's access log
	pair int           // reqPath/reqRecon: index into the oracle's probe pool
	dst  int           // reqPath/reqRecon: destination node
	// points is an aggregation's grid resolution; 0 is the default grid.
	points int
}

const (
	reqPath = iota
	reqRecon
	reqDiameter
	reqCDF
)

// sample is one request's measurement.
type sample struct {
	req     *request
	latency time.Duration // completion − intended send time
	service time.Duration // completion − actual send time
	lag     time.Duration // actual send − max(intended, previous completion): the generator's own lateness
	status  int           // 0 when the request failed before a response
	body    []byte
}

// runOpenLoop sends reqs in order over client (one connection), starting
// the schedule at start, and returns one sample per request sent. It
// stops early, without sampling the rest, when ctx ends.
func runOpenLoop(ctx context.Context, client *http.Client, base string, start time.Time, reqs []request) []sample {
	out := make([]sample, 0, len(reqs))
	prevDone := start
	for i := range reqs {
		rq := &reqs[i]
		intended := start.Add(rq.at)
		if d := time.Until(intended); d > 0 {
			t := time.NewTimer(d)
			select {
			case <-ctx.Done():
				t.Stop()
				return out
			case <-t.C:
			}
		} else if ctx.Err() != nil {
			return out
		}
		sent := time.Now()
		status, body := get(ctx, client, base+rq.url, rq.id)
		done := time.Now()
		ready := intended
		if prevDone.After(ready) {
			ready = prevDone
		}
		out = append(out, sample{
			req:     rq,
			latency: done.Sub(intended),
			service: done.Sub(sent),
			lag:     max(0, sent.Sub(ready)),
			status:  status,
			body:    body,
		})
		prevDone = done
	}
	return out
}

// get performs one GET, returning the status (0 on a transport error)
// and the body.
func get(ctx context.Context, client *http.Client, url, traceID string) (int, []byte) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return 0, nil
	}
	if traceID != "" {
		req.Header.Set("X-Trace-Id", traceID)
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil
	}
	return resp.StatusCode, body
}

// oneConnClient is an HTTP client holding at most one connection.
func oneConnClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}
}

// phaseStats summarizes one open-loop phase.
type phaseStats struct {
	offered, achieved float64 // scheduled and completed requests per second
	p50, p90, p99     float64 // intended-time latency, ms
	lagP99            float64 // generator lateness, ms
	refused           int     // non-200 responses and transport errors
	n                 int
}

// summarize reduces a phase scheduled at rate requests per second.
func summarize(rate float64, reqs []request, samples []sample) phaseStats {
	st := phaseStats{n: len(samples), offered: rate}
	var lat, lag []float64
	var last time.Duration
	for _, s := range samples {
		lat = append(lat, ms(s.latency))
		lag = append(lag, ms(s.lag))
		if s.status != http.StatusOK {
			st.refused++
		}
		if end := s.req.at + s.latency; end > last {
			last = end
		}
	}
	st.refused += len(reqs) - len(samples)
	sort.Float64s(lat)
	st.p50, st.p90, st.p99 = sortedQuantile(lat, 0.5), sortedQuantile(lat, 0.9), sortedQuantile(lat, 0.99)
	st.lagP99 = quantile(lag, 0.99)
	if last > 0 {
		st.achieved = float64(len(samples)) / last.Seconds()
	}
	return st
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func (p phaseStats) String() string {
	return fmt.Sprintf("offered=%.0f/s achieved=%.0f/s p50=%.3fms p99=%.3fms lag_p99=%.3fms refused=%d n=%d",
		p.offered, p.achieved, p.p50, p.p99, p.lagP99, p.refused, p.n)
}
