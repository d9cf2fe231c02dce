package main

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"opportunet/internal/experiments"
	"opportunet/internal/flood"
	"opportunet/internal/rng"
	"opportunet/internal/trace"
)

// The serve workload: opportunetd with default flags on the quick
// Infocom05 trace, driven over two connections from this process.
// Connection A is an open loop of warm reads at rate `low`, then `high`,
// then a step sweep (refined by bisection) for the knee. Connection B
// then runs a closed loop of aggregations on grid resolutions not
// requested before in the run, so each one integrates new curves.
//
// A and B take turns rather than overlap. Overlapped, B's integration
// keeps both cores busy and A's reads wait for the Go scheduler (p99
// between 24 and 390 ms at 200 req/s, seed to seed), and a default-grid
// /v1/diameter waits for a fresh grid's whole reach build behind the
// study's bounds engine: the knee then measured scheduling luck, not the
// daemon.
const (
	serveLowRPS   = 500
	serveHighRPS  = 2000
	serveSweep    = 1.5 // rate multiplier per sweep step
	serveSteps    = 5
	serveBisect   = 3
	serveSLOms    = 50 // read p99 limit for max_rps
	serveBoots    = 2
	serveFresh    = 4 // B's fixed batch: delaycdf, diameter, delaycdf, diameter
	servePairPool = 32
	serveCDFHops  = "1,2,3,0"
)

// serveInput is the served trace and the flood oracle's answers.
type serveInput struct {
	path    string
	tr      *trace.Trace
	pairs   []probe // (src, t) probes; delivery[i][dst] is the flood answer
	srcs    []trace.NodeID
	hops    int
	defPts  int
	freshes []int // the seeded permutation of fresh grid resolutions
}

type probe struct {
	src      trace.NodeID
	t        float64
	delivery []float64
}

func serveSetupInput(r *run) (*serveInput, error) {
	cfg := &experiments.Config{Quick: true, Seed: r.seed}
	tr, err := cfg.Trace(experiments.Infocom05)
	if err != nil {
		return nil, err
	}
	in := &serveInput{path: filepath.Join(r.dir, "infocom05.trace"), tr: tr, srcs: tr.InternalNodes()}
	f, err := os.Create(in.path)
	if err != nil {
		return nil, err
	}
	werr := tr.Write(f)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return nil, werr
	}
	fl := flood.New(tr, flood.Options{})
	g := rng.New(r.seed ^ 0x5e7e)
	for i := 0; i < servePairPool; i++ {
		src := in.srcs[g.Intn(len(in.srcs))]
		t := tr.Start + g.Float64()*tr.Duration()
		in.pairs = append(in.pairs, probe{src: src, t: t, delivery: fl.EarliestDelivery(src, t)})
	}
	return in, nil
}

// schedule builds one open-loop phase: requests evenly spaced at rate
// per second for dur, their mix and parameters drawn from a stream
// seeded by (seed, name). About 90% are /v1/path (3% of those with
// reconstruct=1); the rest are default-grid /v1/diameter and
// /v1/delaycdf, which the curve cache answers.
func schedule(seed uint64, name string, rate float64, dur time.Duration, in *serveInput) []request {
	h := fnv.New64a()
	h.Write([]byte(name))
	g := rng.New(seed ^ h.Sum64())
	n := int(rate * dur.Seconds())
	reqs := make([]request, n)
	for i := range reqs {
		rq := &reqs[i]
		rq.at = time.Duration(float64(i) / rate * float64(time.Second))
		rq.id = fmt.Sprintf("%s-%d", name, i)
		switch u := g.Float64(); {
		case u < 0.90:
			rq.kind = reqPath
			rq.pair = g.Intn(len(in.pairs))
			p := in.pairs[rq.pair]
			for rq.dst = int(p.src); rq.dst == int(p.src); {
				rq.dst = int(in.srcs[g.Intn(len(in.srcs))])
			}
			rq.url = fmt.Sprintf("/v1/path?src=%d&dst=%d&t=%s", p.src, rq.dst, strconv.FormatFloat(p.t, 'g', -1, 64))
			if g.Float64() < 0.03 {
				rq.kind = reqRecon
				rq.url += "&reconstruct=1"
			}
		case u < 0.95:
			rq.kind = reqDiameter
			rq.url = "/v1/diameter"
		default:
			rq.kind = reqCDF
			rq.url = "/v1/delaycdf?hops=" + serveCDFHops
		}
	}
	return reqs
}

// freshPoints is the seeded permutation of grid resolutions connection B
// walks: every value in [96, 160] except the daemon's default. The band
// is narrow so that fresh requests cost about the same on every seed.
func freshPoints(seed uint64, def int) []int {
	var pts []int
	for p := 96; p <= 160; p++ {
		if p != def {
			pts = append(pts, p)
		}
	}
	rng.New(seed^0xb).Shuffle(len(pts), func(i, j int) { pts[i], pts[j] = pts[j], pts[i] })
	return pts
}

// session is one serve run's raw measurements.
type session struct {
	steps  []phaseResult // A: low, high, then the sweep and bisection
	fresh  []sample      // B: the fixed batch of fresh aggregations
	freshS float64       // B: wall time of the batch
	cpu    float64       // this process's CPU seconds while driving A
	maxRPS float64
}

type phaseResult struct {
	name    string
	rate    float64
	reqs    []request
	samples []sample
	stats   phaseStats
}

// passes reports whether a phase met the SLO with nothing refused and
// no growing backlog (it completed at ≥ 95% of its offered rate).
func (p phaseResult) passes() bool {
	s := p.stats
	return s.refused == 0 && s.p99 <= serveSLOms && s.achieved >= 0.95*s.offered
}

// phase returns the first phase run under name.
func (ss *session) phase(name string) phaseResult {
	for _, p := range ss.steps {
		if p.name == name {
			return p
		}
	}
	return phaseResult{}
}

// runSession drives connection A through low, high, the sweep and its
// bisection, then connection B through its batch. Phase lengths scale
// with the run's measured seconds.
func runSession(d *daemon, r *run, in *serveInput) *session {
	ss := &session{}
	phase := time.Duration(r.seconds / 6 * float64(time.Second))
	step := phase / 2
	a := oneConnClient()
	defer a.CloseIdleConnections()
	run := func(name string, rate float64, dur time.Duration) phaseResult {
		reqs := schedule(r.seed, name, rate, dur, in)
		samples := runOpenLoop(context.Background(), a, d.base, time.Now(), reqs)
		pr := phaseResult{name: name, rate: rate, reqs: reqs, samples: samples}
		pr.stats = summarize(rate, reqs, samples)
		ss.steps = append(ss.steps, pr)
		return pr
	}
	// A step fails only if its retry fails too: one stall of a few tens
	// of milliseconds from a neighbour must not end the sweep.
	try := func(name string, rate float64, dur time.Duration) bool {
		return run(name, rate, dur).passes() || run(name+"-retry", rate, dur).passes()
	}
	cpu0 := cpuSeconds()
	lo, hi := 0.0, 0.0 // highest passing and lowest failing rate so far
	for i, rate := range []float64{serveLowRPS, serveHighRPS} {
		if try([]string{"low", "high"}[i], rate, phase) {
			lo = rate
		} else if hi == 0 {
			hi = rate
		}
	}
	for k, rate := 1, float64(serveHighRPS); k <= serveSteps && hi == 0; k++ {
		rate *= serveSweep
		if try(fmt.Sprintf("sweep%d", k), rate, step) {
			lo = rate
		} else {
			hi = rate
		}
	}
	for k := 1; k <= serveBisect && hi > 0; k++ {
		mid := (lo + hi) / 2
		if try(fmt.Sprintf("bisect%d", k), mid, step) {
			lo = mid
		} else {
			hi = mid
		}
	}
	ss.cpu = cpuSeconds() - cpu0
	ss.maxRPS = knee(ss.steps, lo, hi)

	b := oneConnClient()
	defer b.CloseIdleConnections()
	ss.freshS = timed(func() { ss.fresh = closedLoopFresh(b, d.base, in.freshes[:serveFresh]) })
	return ss
}

// knee interpolates the highest rate whose read p99 meets the SLO
// between lo, the highest passing rate, and hi, the lowest failing one,
// linearly in p99. Of repeated steps at one rate the best counts; a
// step failing on refusals or backlog alone counts as failing at the
// SLO. With no failing step it is lo.
func knee(steps []phaseResult, lo, hi float64) float64 {
	if hi == 0 {
		return lo
	}
	p99 := func(rate float64, pass bool) float64 {
		best := math.Inf(1)
		for _, p := range steps {
			if p.rate != rate || p.passes() != pass {
				continue
			}
			v := p.stats.p99
			if !pass && v <= serveSLOms {
				v = serveSLOms
			}
			best = min(best, v)
		}
		if math.IsInf(best, 1) {
			return 0 // rate 0: the origin
		}
		return best
	}
	plo, phi := p99(lo, true), p99(hi, false)
	if phi <= plo {
		return lo
	}
	return lo + (hi-lo)*(serveSLOms-plo)/(phi-plo)
}

// closedLoopFresh alternates /v1/delaycdf and /v1/diameter back to back,
// one request per fresh grid resolution.
func closedLoopFresh(client *http.Client, base string, points []int) []sample {
	var out []sample
	for i, pts := range points {
		rq := &request{kind: reqCDF, id: fmt.Sprintf("fresh-%d", i), points: pts}
		rq.url = fmt.Sprintf("/v1/delaycdf?hops=%s&points=%d", serveCDFHops, pts)
		if i%2 == 1 {
			rq.kind, rq.url = reqDiameter, fmt.Sprintf("/v1/diameter?points=%d", pts)
		}
		t0 := time.Now()
		status, body := get(context.Background(), client, base+rq.url, rq.id)
		out = append(out, sample{req: rq, latency: time.Since(t0), service: time.Since(t0), status: status, body: body})
	}
	return out
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// datasetInfo is the part of /v1/datasets the oracles need.
type datasetInfo struct {
	Contacts      int `json:"contacts"`
	Nodes         int `json:"nodes"`
	Hops          int `json:"hops"`
	DefaultPoints int `json:"default_points"`
}

func fetchDataset(base string) (datasetInfo, error) {
	status, body := get(context.Background(), http.DefaultClient, base+"/v1/datasets", "")
	if status != http.StatusOK {
		return datasetInfo{}, fmt.Errorf("/v1/datasets: status %d", status)
	}
	var resp struct {
		Datasets []datasetInfo `json:"datasets"`
	}
	if err := json.Unmarshal(body, &resp); err != nil || len(resp.Datasets) != 1 {
		return datasetInfo{}, fmt.Errorf("/v1/datasets: %s", body)
	}
	return resp.Datasets[0], nil
}

// checkSample is the serve oracle for one response.
func checkSample(s sample, in *serveInput) bool {
	if s.status != http.StatusOK {
		return false
	}
	points := s.req.points
	if points == 0 {
		points = in.defPts
	}
	switch s.req.kind {
	case reqPath, reqRecon:
		var resp struct {
			Delivered    bool    `json:"delivered"`
			DeliveryTime float64 `json:"delivery_time"`
			Path         []struct {
				From, To     trace.NodeID
				At, Beg, End float64
			} `json:"path"`
		}
		if json.Unmarshal(s.body, &resp) != nil {
			return false
		}
		p := in.pairs[s.req.pair]
		want := p.delivery[s.req.dst]
		if math.IsInf(want, 1) {
			return !resp.Delivered
		}
		if !resp.Delivered || !sameTime(resp.DeliveryTime, want) {
			return false
		}
		if s.req.kind == reqRecon {
			return validPath(resp.Path, p.src, trace.NodeID(s.req.dst), p.t, want)
		}
		return true
	case reqDiameter:
		var resp struct {
			Points   int    `json:"points"`
			Diameter int    `json:"diameter"`
			Degraded string `json:"degraded"`
		}
		if json.Unmarshal(s.body, &resp) != nil {
			return false
		}
		return resp.Degraded == "" && resp.Points == points && resp.Diameter >= 1 && resp.Diameter <= in.hops
	default:
		var resp struct {
			Points   int       `json:"points"`
			Grid     []float64 `json:"grid"`
			Degraded string    `json:"degraded"`
			Curves   []struct {
				Success []float64 `json:"success"`
			} `json:"curves"`
		}
		if json.Unmarshal(s.body, &resp) != nil {
			return false
		}
		if resp.Degraded != "" || resp.Points != points || len(resp.Grid) != points || len(resp.Curves) != strings.Count(serveCDFHops, ",")+1 {
			return false
		}
		for _, c := range resp.Curves {
			if len(c.Success) != points {
				return false
			}
			for j, v := range c.Success {
				if v < 0 || v > 1 || (j > 0 && v < c.Success[j-1]-1e-12) {
					return false
				}
			}
		}
		return true
	}
}

// validPath checks a reconstructed relay sequence: it leaves src no
// earlier than t, chains hop to hop forward in time inside each contact,
// and reaches dst at the delivery time.
func validPath(hops []struct {
	From, To     trace.NodeID
	At, Beg, End float64
}, src, dst trace.NodeID, t, del float64) bool {
	if len(hops) == 0 {
		return src == dst
	}
	at, cur := t, src
	for _, h := range hops {
		if h.From != cur || h.At < at-1e-9 || h.At < h.Beg-1e-9 || h.At > h.End+1e-9 {
			return false
		}
		at, cur = h.At, h.To
	}
	return cur == dst && sameTime(at, del)
}

// serveRun is one daemon lifetime: boot(s), warm-up, one session.
type serveRun struct {
	ss    *session
	boots []float64
	rss   float64
	info  datasetInfo
	// traced runs only: the daemon's access log and /metrics deltas
	access  map[string]accessLine
	counter map[string]float64
}

var serveCounters = []string{
	"analysis_curve_cache_hits_total", "analysis_curve_cache_misses_total",
	"reach_builds_total", "reach_cert_passes_total",
}

// serveOnce boots the daemon boots times (keeping the last), warms the
// default grid, runs one session and stops the daemon. A traced run adds
// the access log and the obs endpoint.
func serveOnce(r *run, in *serveInput, boots int, traced bool) (*serveRun, error) {
	args := []string{"-addr", "127.0.0.1:0", "-trace", "infocom05=" + in.path}
	accessPath := filepath.Join(r.dir, "access.jsonl")
	if traced {
		args = append(args, "-access-log", accessPath, "-obsaddr", "127.0.0.1:0")
	}
	sr := &serveRun{}
	var d *daemon
	for i := 0; i < boots; i++ {
		if d != nil {
			d.stop()
		}
		var boot float64
		var err error
		if d, boot, err = startDaemon(r.daemon, args...); err != nil {
			return nil, err
		}
		sr.boots = append(sr.boots, boot)
	}
	defer d.stop()
	var err error
	if sr.info, err = fetchDataset(d.base); err != nil {
		return nil, err
	}
	in.hops, in.defPts = sr.info.Hops, sr.info.DefaultPoints
	in.freshes = freshPoints(r.seed, sr.info.DefaultPoints)
	// Warm-up: the default grid's curves are integrated on first use, not
	// at load; A's aggregation reads are meant to be cache hits.
	for _, u := range []string{"/v1/diameter", "/v1/delaycdf?hops=" + serveCDFHops} {
		if status, body := get(context.Background(), http.DefaultClient, d.base+u, ""); status != http.StatusOK {
			return nil, fmt.Errorf("warm-up %s: status %d: %s", u, status, body)
		}
	}
	var before map[string]float64
	if traced {
		if before, err = d.scrapeCounters(serveCounters...); err != nil {
			return nil, err
		}
	}
	sr.ss = runSession(d, r, in)
	if sr.rss, err = peakRSSMiB(strconv.Itoa(d.cmd.Process.Pid)); err != nil {
		return nil, err
	}
	if traced {
		after, err := d.scrapeCounters(serveCounters...)
		if err != nil {
			return nil, err
		}
		sr.counter = make(map[string]float64)
		for k, v := range after {
			sr.counter[k] = v - before[k]
		}
		d.stop() // flushes the access log
		if sr.access, err = readAccessLog(accessPath); err != nil {
			return nil, err
		}
	}
	return sr, nil
}

// check runs the oracle over every response of the session.
func (sr *serveRun) check(o *outcome, in *serveInput) {
	for _, p := range sr.ss.steps {
		for _, s := range p.samples {
			o.check(checkSample(s, in))
		}
		never := int64(len(p.reqs) - len(p.samples)) // never sent: refused
		o.attempted += never
		o.failed += never
	}
	for _, s := range sr.ss.fresh {
		o.check(checkSample(s, in))
	}
}

// freshMS returns B's latencies of one kind, in ms.
func (ss *session) freshMS(kind int) []float64 {
	var out []float64
	for _, s := range ss.fresh {
		if s.req.kind == kind {
			out = append(out, ms(s.latency))
		}
	}
	return out
}

func runServe(r *run) (*outcome, error) {
	if r.daemon == "" {
		return nil, fmt.Errorf("need -daemon")
	}
	o := newOutcome()
	in, err := serveSetupInput(r)
	if err != nil {
		return nil, err
	}
	plain, err := serveOnce(r, in, serveBoots, false)
	if err != nil {
		return nil, err
	}
	plain.check(o, in)
	ss := plain.ss
	high := ss.phase("high").stats
	if !r.traced {
		o.metrics["setup_s"] = median(plain.boots)
		o.metrics["wall_s"] = ss.freshS
		o.metrics["op_p50_ms"] = high.p50
		o.metrics["op_p90_ms"] = high.p90
		o.metrics["rate_per_s"] = ss.maxRPS
	} else {
		tr, err := serveOnce(r, in, 1, true)
		if err != nil {
			return nil, err
		}
		tr.check(o, in)
		serveLayers(o, plain, tr)
	}
	for _, p := range ss.steps {
		fmt.Printf("serve phase %-8s %s\n", p.name, p.stats)
	}
	fmt.Printf("serve fresh cdf_ms=%.1f diam_ms=%.1f max_rps=%.0f client_cpu_s=%.3f\n",
		ss.freshMS(reqCDF), ss.freshMS(reqDiameter), ss.maxRPS, ss.cpu)
	requests := 0
	for _, p := range ss.steps {
		requests += len(p.reqs)
	}
	o.sizef("dataset=infocom05 contacts=%d nodes=%d window_s=%g fixpoint_hops=%d default_points=%d read_requests=%d phases=%d fresh_requests=%d",
		plain.info.Contacts, plain.info.Nodes, in.tr.Duration(), plain.info.Hops, plain.info.DefaultPoints, requests, len(ss.steps), len(ss.fresh))
	return o, nil
}

// serveLayers reduces the plain and traced sessions to the per-layer
// metrics: client-side figures from the plain session, daemon stage
// attribution (joined by trace ID) and counters from the traced one.
func serveLayers(o *outcome, plain, tr *serveRun) {
	for _, name := range []string{"low", "high"} {
		ph := plain.ss.phase(name)
		o.metrics["client.read_p50_ms."+name] = ph.stats.p50
		o.metrics["client.read_p99_ms."+name] = ph.stats.p99
	}
	o.metrics["client.cdf_fresh_p50_ms"] = median(plain.ss.freshMS(reqCDF))
	o.metrics["client.diam_fresh_p50_ms"] = median(plain.ss.freshMS(reqDiameter))
	o.metrics["client.send_lag_p99_ms"] = plain.ss.phase("high").stats.lagP99
	o.metrics["client.cpu_s"] = plain.ss.cpu
	o.metrics["mem.peak_rss_mb"] = plain.rss

	var queue, compute, encode, transport []float64
	aggs, followers := 0, 0
	for _, s := range tr.ss.phase("high").samples {
		l, ok := tr.access[s.req.id]
		if !ok {
			continue
		}
		queue = append(queue, float64(l.QueueNS)/1e6)
		switch s.req.kind {
		case reqPath:
			compute = append(compute, float64(l.ComputeNS)/1e6)
			encode = append(encode, float64(l.EncodeNS)/1e6)
			transport = append(transport, ms(s.service)-float64(l.TotalNS)/1e6)
		case reqDiameter, reqCDF:
			aggs++
			if l.Coalesce == "follower" {
				followers++
			}
		}
	}
	var agg []float64
	for _, s := range tr.ss.fresh {
		if l, ok := tr.access[s.req.id]; ok {
			agg = append(agg, float64(l.ComputeNS)/1e6)
		}
	}
	o.metrics["server.queue_p99_ms"] = quantile(queue, 0.99)
	o.metrics["server.compute_p50_ms.path"] = quantile(compute, 0.5)
	o.metrics["server.encode_p50_ms.path"] = quantile(encode, 0.5)
	o.metrics["server.transport_p50_ms.path"] = quantile(transport, 0.5)
	o.metrics["server.compute_p50_ms.agg"] = quantile(agg, 0.5)
	o.metrics["server.coalesced_frac"] = ratio(float64(followers), float64(aggs))
	hits := tr.counter["analysis_curve_cache_hits_total"]
	o.metrics["analysis.curve_hit_ratio"] = ratio(hits, hits+tr.counter["analysis_curve_cache_misses_total"])
	o.metrics["reach.builds"] = tr.counter["reach_builds_total"]
	o.metrics["reach.cert_passes"] = tr.counter["reach_cert_passes_total"]
	o.metrics["tracing.overhead_s"] = tr.ss.freshS - plain.ss.freshS
	o.metrics["tracing.overhead_p50_ms"] = tr.ss.phase("high").stats.p50 - plain.ss.phase("high").stats.p50
}
