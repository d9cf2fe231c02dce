// Command ingest drives live ingestion of a contact stream into a
// segmented timeline, keeping path results continuously up to date with
// the incremental engine: per epoch it appends the new contacts, takes
// an immutable snapshot, and Extends the archived frontiers with only
// the appended delta — cost O(new contacts), not O(history).
//
// Usage:
//
//	ingest -i trace.txt                          replay a trace file, full speed
//	ingest -i trace.txt -rate 60                 replay at 60× trace time
//	tracegen -dataset infocom05 | ingest         feed on stdin
//	ingest -listen :7070                         accept one TCP line feed
//	ingest -i t.txt -evict 86400 -epoch 20000    sliding one-day window
//
// The feed protocol is the trace text format itself, streamed: optional
// '#' header lines (trace, granularity, window, nodes, external) first,
// then one "A B Beg End" contact per line. Malformed lines abort with
// the parser's line-attributed error. Headerless feeds must pass -nodes
// so the device table is known up front.
//
// Every -epoch appended contacts (and at end of stream) the engine runs
// one incremental Extend pass; the wall time from the oldest unextended
// append to queryability is recorded in the
// ingest_append_to_queryable_seconds histogram. With -evict D, segments
// whose contacts all ended more than D trace-seconds before the newest
// observed end time are dropped after the epoch — eviction bumps the
// stream generation, so the next Extend detects the lost prefix and
// falls back to one full recompute over the surviving window.
//
// At end of stream (replay and feeds that close), a summary of the
// final study — contact counts, segment statistics, and the
// (1−ε)-diameter with its worst pair delay — is printed to stdout.
// Interrupts follow the shared CLI convention: SIGINT/SIGTERM (or an
// exceeded -timeout) aborts the run with exit code 130/1 without a
// summary; scrape /metrics for live state instead. Exit codes: 2 usage,
// 1 runtime error, 130 interrupted.
//
// Observability matches cmd/experiments: -obsaddr serves /metrics,
// /debug/vars and /debug/pprof while running; -obslog appends stage
// spans as JSON lines; -report writes RUN_REPORT.json at exit. Each
// epoch is additionally traced end to end — append batches, the
// snapshot seal, the incremental extend (its compute stage), window
// compaction — and a small flight recorder keeps the slowest epochs
// inspectable at /debug/requests on the same -obsaddr. The
// ingest-specific families are ingest_epochs_total,
// ingest_batches_total, ingest_append_to_queryable_seconds and
// ingest_extend_seconds, alongside the timeline layer's segment seal /
// merge / eviction counters.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"strings"
	"time"

	"opportunet/internal/analysis"
	"opportunet/internal/cli"
	"opportunet/internal/core"
	"opportunet/internal/obs"
	"opportunet/internal/par"
	"opportunet/internal/stats"
	"opportunet/internal/timeline"
	"opportunet/internal/trace"
)

func main() {
	in := flag.String("i", "", "replay this trace file (default: read the feed from stdin)")
	listen := flag.String("listen", "", "accept one TCP connection carrying the line feed on this address")
	rate := flag.Float64("rate", 0, "replay pacing: trace-seconds per wall-second (0 = as fast as possible)")
	batch := flag.Int("batch", 0, "contacts per append batch (default 4096)")
	seal := flag.Int("seal", 0, "memtable size at which a segment is sealed (default 4096)")
	epoch := flag.Int("epoch", 20000, "appended contacts per incremental Extend pass")
	evict := flag.Float64("evict", 0, "evict segments ending more than this many trace-seconds before the newest end (0 = keep everything)")
	nodes := flag.Int("nodes", 0, "device count for feeds without a '# nodes' header")
	maxRetries := flag.Int("max-retries", 0, "with -listen: re-accept a dropped feed up to this many times per drop, with exponential backoff and jitter (0 = end the stream on first drop)")
	delta := flag.Float64("delta", 0, "per-hop transmission delay in seconds (engine TransmitDelay); the study stays exact")
	directed := flag.Bool("directed", false, "treat contacts as usable only from A to B")
	maxhops := flag.Int("maxhops", 0, "bound the number of contacts per path (0 = fixpoint)")
	workers := flag.Int("workers", 0, "worker goroutines for the engine (0 = all cores)")
	eps := flag.Float64("eps", 0.01, "diameter confidence parameter for the final summary")
	summary := flag.Bool("summary", true, "print the final study summary to stdout at end of stream")
	timeout := flag.Duration("timeout", 0, "cancel the run after this long (0 = no limit)")
	obsAddr := flag.String("obsaddr", "", "serve /metrics, /debug/vars and /debug/pprof on this address while running (:0 picks a free port)")
	obsLog := flag.String("obslog", "", "append one JSON line per finished stage span to this file")
	report := flag.String("report", "", "write a RUN_REPORT.json run summary to this file at exit")
	prof := cli.AddProfileFlags()
	vb := cli.AddVerbosityFlags()
	flag.Parse()

	if *in != "" && *listen != "" {
		cli.Usage("ingest", "-i and -listen are mutually exclusive")
	}
	if *epoch <= 0 {
		cli.Usage("ingest", "-epoch must be positive")
	}

	obsOn := *obsAddr != "" || *obsLog != "" || *report != ""
	var reg *obs.Registry
	if obsOn {
		reg = obs.NewRegistry()
		obs.Wire(reg)
	}
	stages := obs.NewStages()
	stages.Enter("setup")

	var spans *obs.SpanLog
	if *obsLog != "" {
		f, err := os.Create(*obsLog)
		if err != nil {
			cli.Fail("ingest", err)
		}
		defer f.Close()
		spans = obs.NewSpanLog(f)
	} else if *report != "" {
		spans = obs.NewSpanLog(nil) // aggregate only
	}

	// Every epoch is traced — append batches, the snapshot seal, the
	// incremental extend, window compaction — and the recorder keeps
	// the slowest ones inspectable at /debug/requests while running.
	recorder := obs.NewRecorder(64)
	if *obsAddr != "" {
		srv, err := obs.Serve(*obsAddr, reg,
			obs.Mount{Pattern: "/debug/requests", Handler: recorder})
		if err != nil {
			cli.Fail("ingest", err)
		}
		defer srv.Close()
		vb.Logf("[obs: serving /metrics, /debug/vars, /debug/pprof, /debug/requests on http://%s]", srv.Addr())
	}

	ctx, stop := cli.Context(*timeout)
	defer stop()
	if err := prof.Start(); err != nil {
		cli.Fail("ingest", err)
	}
	defer func() {
		if err := prof.Stop(); err != nil {
			cli.Fail("ingest", err)
		}
	}()

	latBuckets := []float64{0.001, 0.005, 0.02, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60}
	ing := ingester{
		ctx:   ctx,
		vb:    vb,
		rate:  *rate,
		seal:  *seal,
		epoch: *epoch,
		evict: *evict,
		nodes: *nodes,
		opt: core.Options{
			TransmitDelay: *delta,
			Directed:      *directed,
			MaxHops:       *maxhops,
			Workers:       *workers,
			Ctx:           ctx,
		},
		tracer:    obs.NewTracer(recorder),
		epochs:    reg.Counter("ingest_epochs_total", "incremental extend epochs run"),
		batches:   reg.Counter("ingest_batches_total", "contact batches appended"),
		appendLat: reg.Histogram("ingest_append_to_queryable_seconds", "wall time from oldest unextended append to queryability", latBuckets),
		extendDur: reg.Histogram("ingest_extend_seconds", "wall time of one snapshot+extend pass", latBuckets),
	}

	reconnects := reg.Counter("ingest_reconnects_total", "feed reconnections accepted after a drop")
	src, srcName, closeSrc, err := openSource(ctx, *in, *listen, *maxRetries, reconnects, vb)
	if err != nil {
		cli.Fail("ingest", err)
	}
	defer closeSrc()

	stages.Enter("ingest")
	ingSpan := spans.Start("ingest")
	start := time.Now()
	if err := trace.Stream(src, *batch, ing.header, ing.emit); err != nil {
		cli.Fail("ingest", err)
	}
	if err := ing.finish(); err != nil {
		cli.Fail("ingest", err)
	}
	ingSpan.End()
	vb.Logf("[ingested %d contacts from %s in %v: %d epochs, %d evicted, %d live segments]",
		ing.total, srcName, time.Since(start).Round(time.Millisecond),
		ing.epochCount, ing.evicted, ing.segments())

	if *summary {
		stages.Enter("summary")
		if err := ing.printSummary(os.Stdout, *eps); err != nil {
			cli.Fail("ingest", err)
		}
	}

	stages.Enter("report")
	if *report != "" {
		rep := obs.BuildReport("ingest "+srcName, false, par.Resolve(*workers), stages, spans, reg)
		f, err := os.Create(*report)
		if err != nil {
			cli.Fail("ingest", err)
		}
		werr := rep.WriteJSON(f)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			cli.Fail("ingest", werr)
		}
		vb.Debugf("[report: wrote %s]", *report)
	}
}

// openSource resolves the feed source: a replay file, a TCP feed
// (single connection, or reconnecting when maxRetries > 0), or stdin.
// The returned closer is safe to call twice.
func openSource(ctx context.Context, in, listen string, maxRetries int, reconnects *obs.Counter, vb *cli.Verbosity) (io.Reader, string, func(), error) {
	switch {
	case in != "":
		f, err := os.Open(in)
		if err != nil {
			return nil, "", nil, err
		}
		return f, in, func() { f.Close() }, nil
	case listen != "":
		ln, err := net.Listen("tcp", listen)
		if err != nil {
			return nil, "", nil, err
		}
		vb.Logf("[ingest: listening on %s]", ln.Addr())
		fd := newFeed(ctx, ln, maxRetries, reconnects, vb).arm()
		return fd, "tcp:" + ln.Addr().String(), fd.Close, nil
	default:
		return os.Stdin, "stdin", func() {}, nil
	}
}

// ingester accumulates the streaming state: the appender, the
// incremental engine, epoch bookkeeping and pacing.
type ingester struct {
	ctx   context.Context
	vb    *cli.Verbosity
	rate  float64
	seal  int
	epoch int
	evict float64
	nodes int
	opt   core.Options

	epochs    *obs.Counter
	batches   *obs.Counter
	appendLat *obs.Histogram
	extendDur *obs.Histogram

	tracer *obs.Tracer
	cur    *obs.Trace // the in-progress epoch's trace (nil between epochs)
	stream string

	ap  *timeline.Appender
	eng *core.Engine
	res *core.Result
	v   *timeline.View

	total        int
	sinceExtend  int
	epochCount   int
	evicted      int
	maxEnd       float64
	traceT0      float64   // first contact Beg, pacing origin
	wallT0       time.Time // wall clock at first batch, pacing origin
	pendingSince time.Time // append time of the oldest unextended contact
	started      bool
}

// header fires once, before the first contact: it fixes the device
// table and constructs the appender and engine.
func (g *ingester) header(h trace.Header) error {
	if h.Nodes < 0 {
		if g.nodes <= 0 {
			return fmt.Errorf("feed has no '# nodes' header; pass -nodes")
		}
		h.Nodes = g.nodes
	}
	if err := func() error {
		for _, id := range h.External {
			if id < 0 || id >= h.Nodes {
				return fmt.Errorf("external id %d out of range (nodes=%d)", id, h.Nodes)
			}
		}
		return nil
	}(); err != nil {
		return err
	}
	meta := &trace.Trace{
		Name:        h.Name,
		Granularity: h.Granularity,
		Start:       h.Start,
		End:         h.End,
		Kinds:       h.Kinds(),
	}
	ap, err := timeline.NewAppender(meta, g.seal)
	if err != nil {
		return err
	}
	g.ap = ap
	g.opt.Sources = meta.InternalNodes()
	if len(g.opt.Sources) < 2 {
		return fmt.Errorf("feed has %d internal devices, need at least 2", len(g.opt.Sources))
	}
	g.eng = core.NewEngine(g.opt)
	// maxEnd tracks the newest OBSERVED contact end: the eviction
	// cutoff trails the data actually seen, not the declared horizon
	// (a replayed header already names the final window end).
	g.maxEnd = h.Start
	g.stream = h.Name
	g.vb.Debugf("[ingest: stream %q, %d devices (%d internal), window [%g, %g]]",
		h.Name, h.Nodes, len(g.opt.Sources), h.Start, h.End)
	return nil
}

// emit appends one parsed batch, paces the replay, and runs an epoch
// when enough contacts have piled up.
func (g *ingester) emit(cs []trace.Contact) error {
	if err := g.ctx.Err(); err != nil {
		return err
	}
	if !g.started {
		g.started = true
		g.traceT0 = cs[0].Beg
		g.wallT0 = time.Now()
	}
	if g.rate > 0 {
		// Pace so that trace time advances at -rate trace-seconds per
		// wall-second, measured at batch granularity.
		target := g.wallT0.Add(time.Duration((cs[len(cs)-1].Beg - g.traceT0) / g.rate * float64(time.Second)))
		if d := time.Until(target); d > 0 {
			t := time.NewTimer(d)
			select {
			case <-g.ctx.Done():
				t.Stop()
				return g.ctx.Err()
			case <-t.C:
			}
		}
	}
	if g.pendingSince.IsZero() {
		g.pendingSince = time.Now()
	}
	// The epoch's trace opens with its first append and closes in
	// runEpoch; every batch is one append event (Arg = contacts).
	if g.cur == nil {
		g.cur = g.tracer.Start("epoch")
		g.cur.Dataset = g.stream
	}
	if err := g.ap.Append(cs); err != nil {
		g.cur.Disposition = obs.DispError
		g.tracer.Finish(g.cur)
		g.cur = nil
		return err
	}
	g.cur.EventArg(obs.TraceAppend, int64(len(cs)))
	g.batches.Inc()
	for _, c := range cs {
		if c.End > g.maxEnd {
			g.maxEnd = c.End
		}
	}
	g.ap.ExtendWindow(g.maxEnd)
	g.total += len(cs)
	g.sinceExtend += len(cs)
	if g.sinceExtend >= g.epoch {
		return g.runEpoch()
	}
	return nil
}

// runEpoch snapshots the appender, extends the engine with the delta
// appended since the last epoch, and applies eviction. The epoch's
// trace (opened by the first append) records the seal, the extend as
// its compute stage, and the compaction, then retires to the recorder.
func (g *ingester) runEpoch() error {
	tc := g.cur
	g.cur = nil
	epochStart := time.Now()
	g.v = g.ap.Snapshot().All()
	tc.Event(obs.TraceSealed)
	var c0 int64
	if tc != nil {
		tc.Event(obs.TraceComputeStart)
		c0 = tc.Since()
	}
	res, err := g.eng.Extend(g.v)
	if tc != nil {
		tc.ComputeNS += tc.Since() - c0
		tc.Event(obs.TraceComputeEnd)
	}
	if err != nil {
		if tc != nil {
			tc.Disposition = obs.DispError
		}
		g.tracer.Finish(tc)
		return err
	}
	g.res = res
	now := time.Now()
	g.appendLat.Observe(now.Sub(g.pendingSince).Seconds())
	g.extendDur.Observe(now.Sub(epochStart).Seconds())
	g.pendingSince = time.Time{}
	g.epochCount++
	g.epochs.Inc()
	delta := g.sinceExtend
	g.sinceExtend = 0
	dropped := 0
	if g.evict > 0 {
		dropped = g.ap.EvictBefore(g.maxEnd - g.evict)
		g.evicted += dropped
		tc.EventArg(obs.TraceCompact, int64(dropped))
	}
	g.tracer.Finish(tc)
	g.vb.Debugf("[epoch %d: +%d contacts (total %d live %d), extend %v, queryable after %v, evicted %d, segs %d]",
		g.epochCount, delta, g.total, g.ap.Len(), now.Sub(epochStart).Round(time.Microsecond),
		now.Sub(g.wallT0).Round(time.Millisecond), dropped, g.ap.Segments())
	return nil
}

// finish runs the final epoch so every appended contact is reflected in
// the last result.
func (g *ingester) finish() error {
	if g.ap == nil {
		return fmt.Errorf("feed carried no contacts")
	}
	if g.sinceExtend > 0 || g.res == nil {
		return g.runEpoch()
	}
	return nil
}

func (g *ingester) segments() int {
	if g.ap == nil {
		return 0
	}
	return g.ap.Segments()
}

// printSummary wraps the final incremental result in a study and prints
// the headline aggregates of the surviving window.
func (g *ingester) printSummary(w io.Writer, eps float64) error {
	st, err := analysis.NewStudyResult(g.v, g.res, g.opt)
	if err != nil {
		return err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "stream   %s\n", g.v.Name())
	fmt.Fprintf(&b, "contacts %d live (%d ingested, %d evicted)\n", g.ap.Len(), g.total, g.evicted)
	fmt.Fprintf(&b, "devices  %d (%d internal)\n", g.v.NumNodes(), len(g.opt.Sources))
	fmt.Fprintf(&b, "window   [%g, %g]\n", g.v.Start(), g.v.End())
	span := g.v.Duration()
	if span <= 0 {
		span = 1
	}
	grid := stats.LogSpace(1, span, 60)
	d, worst := st.Diameter(eps, grid)
	fmt.Fprintf(&b, "diameter %d (eps=%g, worst budget ratio %.6g)\n", d, eps, worst)
	for _, frac := range []float64{0.001, 0.01, 0.1} {
		budget := span * frac
		fmt.Fprintf(&b, "p[delay<=%.6g] %.6f\n", budget, st.SuccessProbability(budget, analysis.Unbounded))
	}
	if err := st.Err(); err != nil {
		return err
	}
	_, err = io.WriteString(w, b.String())
	return err
}
