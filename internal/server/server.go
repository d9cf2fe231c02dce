// Package server is the hardened query daemon behind cmd/opportunetd:
// a zero-dependency HTTP layer serving the paper's quantities —
// path(src,dst,t), the (1−ε)-diameter, per-hop delay CDFs — from a
// warm registry of loaded datasets.
//
// Every answer is exact. Robustness is the architecture, in three
// layers applied to every query in order:
//
//  1. Admission: a bounded concurrency semaphore with a bounded wait
//     queue and a queue-wait deadline. Offered load beyond the queue is
//     shed immediately with 429 + Retry-After — memory under overload
//     is bounded by design.
//  2. Deadlines: every request carries a timeout (X-Deadline-Ms header
//     or deadline_ms query parameter, capped by the server's
//     MaxDeadline) that propagates as a context through the admission
//     wait, the analysis aggregation loops (Study.WithContext), and
//     path reconstruction — an expired request stops consuming CPU at
//     the next poll and fails with 504. LoadDataset answers the default
//     diameter and delay-CDF queries at load, so those read warm
//     curves from boot.
//  3. Containment and lifecycle: per-request panic recovery (500, stack
//     logged, daemon survives), coalescing of identical in-flight
//     queries keyed by checkpoint-style fingerprints, /healthz +
//     /readyz, and SIGTERM drain — stop accepting, finish or cancel
//     in-flight work within a drain budget, exit clean.
package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"opportunet/internal/obs"
)

// Config parameterizes a Server. Zero values select the defaults.
type Config struct {
	// MaxInflight is the number of queries that may compute
	// concurrently (default 4).
	MaxInflight int
	// MaxQueue is how many queries may wait for a slot before further
	// arrivals are shed immediately (default 16).
	MaxQueue int
	// QueueWait bounds how long one query may wait for admission before
	// being shed (default 2s).
	QueueWait time.Duration
	// MaxDeadline caps (and defaults) the per-request deadline
	// (default 30s).
	MaxDeadline time.Duration
	// Logf, when non-nil, receives one line per notable event (panics,
	// drain). It must be safe for concurrent use.
	Logf func(format string, args ...any)
	// AccessLog, when non-nil, receives one structured JSON line per
	// completed request (see accesslog.go for the schema), plus a full
	// event-trace line for requests slower than SlowThreshold. Writes
	// are serialized; the writer need not be.
	AccessLog io.Writer
	// SlowThreshold, when positive, dumps the complete event trace of
	// any request whose end-to-end latency exceeds it into AccessLog.
	SlowThreshold time.Duration
	// Recorder is the flight-recorder capacity in traces: the last N
	// completed requests stay inspectable at /debug/requests, with
	// tail-biased retention (errors, sheds and the slowest request per
	// endpoint survive a firehose of healthy traffic). 0 disables the
	// recorder.
	Recorder int
}

// Server is the warm dataset registry plus the robustness pipeline.
// Create with New, register datasets, then Serve; all methods are safe
// for concurrent use.
type Server struct {
	cfg     Config
	adm     *admission
	flights flightGroup

	// tracer hands out per-request traces; nil when Config enables
	// neither the recorder, the access log, nor slow dumps — the
	// disabled state, where every trace call is a free nil no-op.
	tracer    *obs.Tracer
	accessLog *accessLogger

	mu       sync.Mutex
	datasets map[string]*Dataset
	order    []string // registration order, for /v1/datasets

	// reqCtx parents every request context; cancelReqs is the drain
	// budget's hammer — it cancels all in-flight work at once.
	reqCtx     context.Context
	cancelReqs context.CancelFunc

	httpSrv  *http.Server
	ready    atomic.Bool
	draining atomic.Bool

	// started/finished mirror the obs counters but live on the server
	// so the drain report works with observability disabled.
	started  atomic.Int64
	finished atomic.Int64
}

// New builds a Server. Request contexts end only at their own deadline
// or at Drain's forced cancel: a shutdown signal starts a drain, it does
// not cancel in-flight work.
func New(cfg Config) *Server {
	if cfg.MaxInflight <= 0 {
		cfg.MaxInflight = 4
	}
	if cfg.MaxQueue < 0 {
		cfg.MaxQueue = 0
	} else if cfg.MaxQueue == 0 {
		cfg.MaxQueue = 16
	}
	if cfg.QueueWait <= 0 {
		cfg.QueueWait = 2 * time.Second
	}
	if cfg.MaxDeadline <= 0 {
		cfg.MaxDeadline = 30 * time.Second
	}
	reqCtx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:        cfg,
		adm:        newAdmission(cfg.MaxInflight, cfg.MaxQueue, cfg.QueueWait),
		datasets:   make(map[string]*Dataset),
		reqCtx:     reqCtx,
		cancelReqs: cancel,
		accessLog:  newAccessLogger(cfg.AccessLog, cfg.SlowThreshold),
	}
	var rec *obs.Recorder
	if cfg.Recorder > 0 {
		rec = obs.NewRecorder(cfg.Recorder)
	}
	if rec != nil || cfg.AccessLog != nil || cfg.SlowThreshold > 0 {
		s.tracer = obs.NewTracer(rec)
	}
	return s
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// Register adds a loaded dataset to the registry (replacing any
// previous dataset of the same name).
func (s *Server) Register(ds *Dataset) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.datasets[ds.Name]; !ok {
		s.order = append(s.order, ds.Name)
	}
	s.datasets[ds.Name] = ds
}

func (s *Server) dataset(name string) (*Dataset, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ds, ok := s.datasets[name]
	return ds, ok
}

func (s *Server) datasetList() []*Dataset {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Dataset, 0, len(s.order))
	for _, name := range s.order {
		out = append(out, s.datasets[name])
	}
	return out
}

// SetReady flips /readyz. The daemon turns it on once every dataset is
// loaded; Drain turns it off first thing.
func (s *Server) SetReady(on bool) { s.ready.Store(on) }

// Handler returns the daemon's full route table.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if s.draining.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintln(w, "draining")
			return
		}
		if !s.ready.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintln(w, "loading")
			return
		}
		fmt.Fprintln(w, "ready")
	})
	mux.Handle("/v1/datasets", s.endpoint("datasets", false, s.handleDatasets))
	mux.Handle("/v1/path", s.endpoint("path", true, s.handlePath))
	mux.Handle("/v1/diameter", s.endpoint("diameter", true, s.handleDiameter))
	mux.Handle("/v1/delaycdf", s.endpoint("delaycdf", true, s.handleDelayCDF))
	// The flight recorder: the last N completed request traces with the
	// tail-biased retention merged in. An operator endpoint — it skips
	// the admission pipeline so it stays inspectable while the server is
	// drowning; without a recorder it answers 404.
	mux.Handle("/debug/requests", s.tracer.Recorder())
	return mux
}

// httpError carries a status code (and optional Retry-After) from a
// handler to the serving pipeline.
type httpError struct {
	code       int
	msg        string
	retryAfter time.Duration
}

func (e *httpError) Error() string { return e.msg }

func badRequest(format string, args ...any) error {
	return &httpError{code: http.StatusBadRequest, msg: fmt.Sprintf(format, args...)}
}

// endpoint wraps a query handler in the full robustness pipeline:
// panic recovery, readiness gating, request accounting, deadline
// derivation, and (for admitted endpoints) admission control. The
// handler returns its response value (serialized as JSON) or an error
// the pipeline maps to a status code.
func (s *Server) endpoint(name string, admitted bool, h func(ctx context.Context, ds *Dataset, q *query) (any, error)) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Layer 4 first: nothing below this line can kill the daemon.
		// The recovery mirrors par's panic containment — value plus
		// goroutine stack, logged, request failed with 500. The same
		// (outermost) defer retires the request's trace, so the access
		// log sees the panicked 500 like any other outcome.
		var (
			tc      *obs.Trace
			start   time.Time
			entered bool
		)
		defer func() {
			if v := recover(); v != nil {
				srvMetrics.panics.Inc()
				s.logf("[server: %s: panic: %v\n%s]", name, v, debug.Stack())
				writeJSONError(w, tc, &httpError{code: http.StatusInternalServerError,
					msg: fmt.Sprintf("internal error in %s", name)})
			}
			if !entered {
				return
			}
			if tc != nil {
				tc.TotalNS = tc.Since()
				if tc.DeadlineNS > 0 {
					tc.DeadlineUsedNS = tc.TotalNS
					if tc.DeadlineUsedNS > tc.DeadlineNS {
						tc.DeadlineUsedNS = tc.DeadlineNS
					}
				}
				// The exemplar links the latency histogram bucket this
				// request landed in to its trace ID, so a /metrics tail
				// resolves to a concrete /debug/requests entry.
				srvMetrics.latency.ObserveExemplar(time.Since(start).Seconds(), tc.ID())
				s.accessLog.log(tc)
				s.tracer.Finish(tc)
			} else {
				srvMetrics.latency.Observe(time.Since(start).Seconds())
			}
			srvMetrics.finished.Inc()
			s.finished.Add(1)
		}()

		if s.draining.Load() {
			writeJSONError(w, nil, &httpError{code: http.StatusServiceUnavailable,
				msg: "draining", retryAfter: time.Second})
			return
		}
		if !s.ready.Load() {
			writeJSONError(w, nil, &httpError{code: http.StatusServiceUnavailable,
				msg: "loading datasets", retryAfter: time.Second})
			return
		}

		s.started.Add(1)
		srvMetrics.started.Inc()
		entered = true
		start = time.Now()
		tc = s.tracer.Start(name)
		if tc != nil {
			// Adopt a caller-provided trace ID (truncated, not trusted
			// further) and echo the effective ID back so the client can
			// correlate its own records with the daemon's.
			if id := r.Header.Get("X-Trace-Id"); id != "" {
				tc.SetID(id)
			}
			w.Header()["X-Trace-Id"] = []string{string(tc.ID())}
		}

		// Layer 2: derive (and validate) the request deadline before
		// admission so time spent queued counts against it.
		params := r.URL.Query()
		d, err := requestDeadline(r.Header, params, s.cfg.MaxDeadline)
		if err != nil {
			writeJSONError(w, tc, err)
			return
		}
		if tc != nil {
			tc.DeadlineNS = int64(d)
		}

		q, ds, err := s.parseQuery(params, name)
		if err != nil {
			writeJSONError(w, tc, err)
			return
		}
		q.tr = tc
		if tc != nil && ds != nil {
			tc.Dataset = ds.Name
		}

		// Warm archive reads finish in microseconds — a deadline timer
		// would cost more than the query itself. Only endpoints that
		// actually compute (diameter, delaycdf, path reconstruction) arm
		// one; pure reads run under the request context (which the drain
		// hammer still cancels), with the admission wait independently
		// bounded by QueueWait.
		ctx := r.Context()
		if q.needsDeadline() {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, d)
			defer cancel()
		}

		if admitted {
			// Layer 1: acquire an execution slot or shed.
			if err := s.adm.acquire(ctx, tc); err != nil {
				writeJSONError(w, tc, err)
				return
			}
			defer s.adm.release()
		}

		val, err := h(ctx, ds, q)
		if err != nil {
			writeJSONError(w, tc, err)
			return
		}
		writeJSON(w, tc, http.StatusOK, val)
	})
}

// requestDeadline extracts the per-request timeout: the X-Deadline-Ms
// header or deadline_ms query parameter, capped by the server maximum;
// absent both, the maximum applies.
func requestDeadline(h http.Header, params url.Values, max time.Duration) (time.Duration, error) {
	raw := h.Get("X-Deadline-Ms")
	if v := params.Get("deadline_ms"); v != "" {
		raw = v
	}
	if raw == "" {
		return max, nil
	}
	ms, err := strconv.ParseInt(raw, 10, 64)
	if err != nil || ms <= 0 {
		return 0, badRequest("bad deadline_ms %q: want a positive integer of milliseconds", raw)
	}
	// Cap before converting: a large enough ms overflows Duration.
	if ms > int64(max/time.Millisecond) {
		return max, nil
	}
	return time.Duration(ms) * time.Millisecond, nil
}

// mapError turns pipeline errors into status codes; anything
// unrecognized is a 500.
func mapError(err error) (code int, retryAfter time.Duration) {
	var he *httpError
	var she *shedError
	switch {
	case errors.As(err, &he):
		return he.code, he.retryAfter
	case errors.As(err, &she):
		// Shed counters were incremented at the admission site itself.
		return http.StatusTooManyRequests, she.retryAfter
	case errors.Is(err, context.DeadlineExceeded):
		srvMetrics.deadlines.Inc()
		return http.StatusGatewayTimeout, 0
	case errors.Is(err, context.Canceled):
		// The client went away or the drain budget fired; the exact
		// code barely matters (nobody is listening), but 503 is honest.
		return http.StatusServiceUnavailable, 0
	default:
		return http.StatusInternalServerError, 0
	}
}

// Serve accepts connections until the listener closes (use Drain for a
// clean stop). It wires the drain hammer through BaseContext: every
// request context descends from reqCtx.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.httpSrv == nil {
		s.httpSrv = &http.Server{
			Handler:           s.Handler(),
			ReadHeaderTimeout: 5 * time.Second,
			BaseContext:       func(net.Listener) context.Context { return s.reqCtx },
		}
	}
	srv := s.httpSrv
	s.mu.Unlock()
	return srv.Serve(ln)
}

// DrainStats reports how a drain went. Clean means every in-flight
// request finished inside the budget; Forced means the budget expired
// and the remaining requests were cancelled (and then finished).
// Started == Finished with Inflight == 0 is the no-leak invariant the
// smoke test asserts.
type DrainStats struct {
	Started  int64
	Finished int64
	Inflight int64
	Forced   bool
}

// Drain performs the SIGTERM lifecycle: flip /readyz to draining, stop
// accepting connections, wait up to budget for in-flight requests,
// then cancel whatever remains and wait for it to unwind. It returns
// once no request is running.
func (s *Server) Drain(budget time.Duration) DrainStats {
	s.draining.Store(true)
	s.ready.Store(false)
	st := DrainStats{}
	s.mu.Lock()
	srv := s.httpSrv
	s.mu.Unlock()
	if srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), budget)
		err := srv.Shutdown(ctx)
		cancel()
		if err != nil {
			// Budget exceeded: cancel every in-flight request and give
			// the handlers a moment to observe it and unwind.
			st.Forced = true
			s.cancelReqs()
			ctx2, cancel2 := context.WithTimeout(context.Background(), budget)
			_ = srv.Shutdown(ctx2)
			cancel2()
			_ = srv.Close()
		}
	}
	s.cancelReqs()
	st.Started = s.started.Load()
	st.Finished = s.finished.Load()
	st.Inflight = st.Started - st.Finished
	return st
}
