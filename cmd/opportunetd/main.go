// Command opportunetd is the long-lived query daemon: it loads one or
// more contact traces into a warm registry (timeline index + exhaustive
// path archive + curve cache, warmed by answering the default diameter
// and delay-CDF queries at load) and serves the paper's quantities
// over HTTP as JSON:
//
//	/v1/datasets                          registry metadata
//	/v1/path?src=&dst=&t=&reconstruct=1   one pair's delivery (and path)
//	/v1/diameter?eps=&points=             the (1−ε)-diameter
//	/v1/delaycdf?hops=1,2,0&points=       per-hop-bound success curves
//	/healthz, /readyz                     liveness / readiness
//
// Every answer is exact. Robustness is the point: bounded admission
// with load shedding (429 + Retry-After), per-request deadlines
// (X-Deadline-Ms header or deadline_ms parameter, capped by
// -max-deadline) propagated through every computation, with 504 for a
// query whose deadline expires first, per-request panic containment,
// coalescing of identical in-flight queries, and SIGTERM drain within
// -drain budget. Exit codes follow the repo convention: 2 usage, 1
// runtime error, 0 after a clean signal-triggered drain.
//
// Every request is traced: the daemon adopts a client X-Trace-Id (or
// generates one), echoes it on the response, and attributes the
// request's latency to queue/compute/encode stages. -access-log
// appends one JSON line per request, -slow-ms dumps full event traces
// of outliers into the same stream, and the last -recorder requests
// (tail-biased: slowest per endpoint, every shed/error) are served
// live at /debug/requests.
//
// Usage:
//
//	opportunetd -trace infocom05.trace
//	opportunetd -addr :8080 -trace a=ia.trace -trace b=ib.trace -obsaddr :9188
package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"time"

	"opportunet/internal/cli"
	"opportunet/internal/core"
	"opportunet/internal/obs"
	"opportunet/internal/server"
	"opportunet/internal/trace"
)

type traceArg struct{ name, path string }

func main() {
	var traces []traceArg
	flag.Func("trace", "trace file to load, `[name=]file` (repeatable)", func(v string) error {
		ta := traceArg{path: v}
		if i := strings.IndexByte(v, '='); i > 0 {
			ta.name, ta.path = v[:i], v[i+1:]
		}
		traces = append(traces, ta)
		return nil
	})
	addr := flag.String("addr", ":8080", "HTTP listen address (:0 picks a free port)")
	workers := flag.Int("workers", 0, "worker goroutines for loading and per-query aggregation (0 = all cores)")
	directed := flag.Bool("directed", false, "use contacts only in their recorded orientation")
	delta := flag.Float64("delta", 0, "per-hop transmission delay in seconds; diameters and delay CDFs stay exact")
	maxHops := flag.Int("maxhops", 0, "hop bound for the path computation (0 = run to the fixpoint)")
	points := flag.Int("points", 60, "default delay-grid resolution (its default diameter and delay CDFs are computed at load)")
	eps := flag.Float64("eps", 0.01, "default diameter confidence parameter (its diameter is computed at load)")
	maxInflight := flag.Int("max-inflight", 4, "queries computing concurrently; more wait, then shed")
	maxQueue := flag.Int("max-queue", 16, "queries allowed to wait for a slot before arrivals are shed with 429")
	queueWait := flag.Duration("queue-wait", 2*time.Second, "longest one query may wait for admission before 429")
	maxDeadline := flag.Duration("max-deadline", 30*time.Second, "cap (and default) for per-request deadlines")
	drain := flag.Duration("drain", 10*time.Second, "SIGTERM: wait this long for in-flight queries before cancelling them")
	obsAddr := flag.String("obsaddr", "", "serve /metrics, /debug/vars and /debug/pprof on this address (:0 picks a free port)")
	report := flag.String("report", "", "write a RUN_REPORT.json summary to this file at exit")
	accessLog := flag.String("access-log", "", "append one JSON line per request (trace id, disposition, stage attribution) to this file")
	slowMS := flag.Int("slow-ms", 0, "dump the full event trace of requests slower than this many milliseconds into -access-log (0 = off)")
	recorder := flag.Int("recorder", 256, "flight-recorder capacity served at /debug/requests (0 = off)")
	prof := cli.AddProfileFlags()
	vb := cli.AddVerbosityFlags()
	flag.Parse()

	if len(traces) == 0 {
		cli.Usage("opportunetd", "need at least one -trace file to serve")
	}
	if flag.NArg() > 0 {
		cli.Usage("opportunetd", fmt.Sprintf("unexpected argument %q", flag.Arg(0)))
	}

	var reg *obs.Registry
	if *obsAddr != "" || *report != "" {
		reg = obs.NewRegistry()
		obs.Wire(reg)
	}
	if *obsAddr != "" {
		osrv, err := obs.Serve(*obsAddr, reg)
		if err != nil {
			cli.Fail("opportunetd", err)
		}
		defer osrv.Close()
		vb.Logf("[obs: serving /metrics, /debug/vars, /debug/pprof on http://%s]", osrv.Addr())
	}
	stages := obs.NewStages()
	stages.Enter("load")

	// The daemon context: SIGINT/SIGTERM flip it. During the load that
	// cancels the path computation; once serving it is the drain trigger,
	// not an abort — request contexts do not descend from it, so
	// in-flight queries get the -drain budget.
	ctx, stop := cli.Context(0)
	defer stop()
	if err := prof.Start(); err != nil {
		cli.Fail("opportunetd", err)
	}
	defer func() {
		if err := prof.Stop(); err != nil {
			cli.Fail("opportunetd", err)
		}
	}()

	var accessW io.Writer
	if *accessLog != "" {
		f, err := os.Create(*accessLog)
		if err != nil {
			cli.Fail("opportunetd", err)
		}
		defer f.Close()
		accessW = f
	}
	srv := server.New(server.Config{
		MaxInflight:   *maxInflight,
		MaxQueue:      *maxQueue,
		QueueWait:     *queueWait,
		MaxDeadline:   *maxDeadline,
		Logf:          vb.Logf,
		AccessLog:     accessW,
		SlowThreshold: time.Duration(*slowMS) * time.Millisecond,
		Recorder:      *recorder,
	})

	opt := core.Options{
		Workers:       *workers,
		Directed:      *directed,
		TransmitDelay: *delta,
		MaxHops:       *maxHops,
		Ctx:           ctx,
	}
	for _, ta := range traces {
		f, err := os.Open(ta.path)
		if err != nil {
			cli.Fail("opportunetd", err)
		}
		tr, err := trace.Read(f)
		f.Close()
		if err != nil {
			cli.Fail("opportunetd", fmt.Errorf("%s: %w", ta.path, err))
		}
		if ta.name != "" {
			tr.Name = ta.name
		}
		ds, err := server.LoadDataset(tr, server.LoadOptions{Core: opt, Points: *points, Eps: *eps})
		if err != nil {
			cli.Fail("opportunetd", fmt.Errorf("%s: %w", ta.path, err))
		}
		srv.Register(ds)
		vb.Logf("[opportunetd: loaded %q: %d nodes, %d contacts, fixpoint %d hops, diameter %d (eps %g, %d points), in %v]",
			ds.Name, ds.View.NumNodes(), ds.View.NumContacts(), ds.Study.Result.Hops,
			ds.Diameter, ds.DefaultEps, ds.DefaultPoints, ds.LoadTime.Round(time.Millisecond))
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		cli.Fail("opportunetd", err)
	}
	srv.SetReady(true)
	stages.Enter("serve")
	vb.Logf("[opportunetd: serving queries on http://%s]", ln.Addr())

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	select {
	case err := <-errc:
		if err != nil && err != http.ErrServerClosed {
			cli.Fail("opportunetd", err)
		}
	case <-ctx.Done():
		stages.Enter("drain")
		st := srv.Drain(*drain)
		mode := "clean"
		if st.Forced {
			mode = "forced"
		}
		// The smoke test parses this line: after a drain, no request may
		// be left in flight.
		vb.Logf("[opportunetd: drained (%s): started=%d finished=%d inflight=%d]",
			mode, st.Started, st.Finished, st.Inflight)
	}

	if *report != "" {
		f, err := os.Create(*report)
		if err != nil {
			cli.Fail("opportunetd", err)
		}
		rep := obs.BuildReport("opportunetd", false, *workers, stages, nil, reg)
		if err := rep.WriteJSON(f); err != nil {
			cli.Fail("opportunetd", err)
		}
		f.Close()
	}
}
