package server

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"opportunet/internal/checkpoint"
	"opportunet/internal/core"
	"opportunet/internal/obs"
	"opportunet/internal/trace"
)

// maxHopBounds caps how many CDF curves one request may ask for.
const maxHopBounds = 16

// defaultHops is /v1/delaycdf's hop list when the request gives none;
// LoadDataset answers it on the default grid at load.
const defaultHops = "1,2,3,0"

// query is one parsed request. Only the fields of the requested
// endpoint are populated.
type query struct {
	endpoint string
	src, dst trace.NodeID
	t        float64
	hasT     bool
	maxHops  int
	recon    bool
	eps      float64
	points   int
	hops     []int
	hopsRaw  string
	// tr is the request's trace (nil when tracing is disabled — every
	// use is a nil-safe no-op). It rides on the query so handlers and
	// the coalescing layer can annotate events without a signature per
	// event site.
	tr *obs.Trace
}

// needsDeadline reports whether the endpoint can actually compute for
// a while: those requests get a context timer; pure warm reads skip it
// (the timer costs more than the read).
func (q *query) needsDeadline() bool {
	switch q.endpoint {
	case "diameter", "delaycdf":
		return true
	case "path":
		return q.recon
	}
	return false
}

// parseQuery validates the request parameters for the endpoint and
// resolves the dataset. Validation happens before admission: malformed
// requests are rejected without consuming an execution slot.
func (s *Server) parseQuery(params url.Values, endpoint string) (*query, *Dataset, error) {
	q := &query{endpoint: endpoint}
	if endpoint == "datasets" {
		return q, nil, nil
	}
	name := params.Get("dataset")
	if name == "" {
		// Single-dataset deployments may omit the parameter.
		s.mu.Lock()
		if len(s.order) == 1 {
			name = s.order[0]
		}
		s.mu.Unlock()
		if name == "" {
			return q, nil, badRequest("missing dataset parameter")
		}
	}
	ds, ok := s.dataset(name)
	if !ok {
		return q, nil, &httpError{code: http.StatusNotFound, msg: fmt.Sprintf("unknown dataset %q", name)}
	}
	var err error
	switch endpoint {
	case "path":
		if q.src, err = parseNode(params.Get("src")); err != nil {
			return q, nil, badRequest("bad src: %v", err)
		}
		if q.dst, err = parseNode(params.Get("dst")); err != nil {
			return q, nil, badRequest("bad dst: %v", err)
		}
		if v := params.Get("t"); v != "" {
			if q.t, err = strconv.ParseFloat(v, 64); err != nil || math.IsNaN(q.t) || math.IsInf(q.t, 0) {
				return q, nil, badRequest("bad t %q: want a finite number", v)
			}
			q.hasT = true
		}
		if q.maxHops, err = parseCount(params.Get("maxhops"), 0, 1<<20); err != nil {
			return q, nil, badRequest("bad maxhops: %v", err)
		}
		recon := params.Get("reconstruct")
		q.recon = recon == "1" || recon == "true"
	case "diameter":
		if q.eps, err = parseEps(params.Get("eps"), ds.DefaultEps); err != nil {
			return q, nil, err
		}
		if q.points, err = parseCount(params.Get("points"), ds.DefaultPoints, maxGridPoints); err != nil {
			return q, nil, badRequest("bad points: %v", err)
		}
	case "delaycdf":
		if q.points, err = parseCount(params.Get("points"), ds.DefaultPoints, maxGridPoints); err != nil {
			return q, nil, badRequest("bad points: %v", err)
		}
		q.hopsRaw = params.Get("hops")
		if q.hopsRaw == "" {
			q.hopsRaw = defaultHops
		}
		if q.hops, err = parseHops(q.hopsRaw); err != nil {
			return q, nil, err
		}
	}
	return q, ds, nil
}

// parseHops parses a comma-separated list of nonnegative hop bounds,
// skipping empty entries.
func parseHops(raw string) ([]int, error) {
	var hops []int
	for rest := raw; rest != ""; {
		var part string
		if i := strings.IndexByte(rest, ','); i >= 0 {
			part, rest = rest[:i], rest[i+1:]
		} else {
			part, rest = rest, ""
		}
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		k, err := strconv.Atoi(part)
		if err != nil || k < 0 {
			return nil, badRequest("bad hop bound %q", part)
		}
		hops = append(hops, k)
	}
	if len(hops) == 0 || len(hops) > maxHopBounds {
		return nil, badRequest("need between 1 and %d hop bounds", maxHopBounds)
	}
	return hops, nil
}

func parseNode(v string) (trace.NodeID, error) {
	if v == "" {
		return 0, fmt.Errorf("missing")
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("%q is not a nonnegative integer", v)
	}
	return trace.NodeID(n), nil
}

func parseCount(v string, def, max int) (int, error) {
	if v == "" {
		return def, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("%q is not a nonnegative integer", v)
	}
	if n == 0 {
		return def, nil
	}
	if n > max {
		return max, nil
	}
	return n, nil
}

func parseEps(v string, def float64) (float64, error) {
	if v == "" {
		return def, nil
	}
	e, err := strconv.ParseFloat(v, 64)
	if err != nil || math.IsNaN(e) || e < 0 || e >= 1 {
		return 0, badRequest("bad eps %q: want a number in [0, 1)", v)
	}
	return e, nil
}

// queryKey content-addresses one query for coalescing, reusing the
// checkpoint fingerprint convention (length-prefixed sha256). The
// request deadline is deliberately NOT part of the key: the computed
// value is deadline-independent, deadlines only decide how long each
// caller waits for it.
func queryKey(parts ...string) string { return checkpoint.Fingerprint(parts...) }

func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// ---- responses ------------------------------------------------------

type datasetInfo struct {
	Name          string  `json:"name"`
	Nodes         int     `json:"nodes"`
	Internal      int     `json:"internal"`
	Contacts      int     `json:"contacts"`
	WindowSeconds float64 `json:"window_seconds"`
	Granularity   float64 `json:"granularity"`
	Hops          int     `json:"hops"`
	DefaultPoints int     `json:"default_points"`
	DefaultEps    float64 `json:"default_eps"`
	Diameter      int     `json:"diameter"`
	LoadMillis    int64   `json:"load_ms"`
}

type pathHop struct {
	From trace.NodeID `json:"from"`
	To   trace.NodeID `json:"to"`
	At   float64      `json:"at"`
	Beg  float64      `json:"beg"`
	End  float64      `json:"end"`
}

type pathResponse struct {
	Dataset      string       `json:"dataset"`
	Src          trace.NodeID `json:"src"`
	Dst          trace.NodeID `json:"dst"`
	T            float64      `json:"t"`
	MaxHops      int          `json:"max_hops"`
	Delivered    bool         `json:"delivered"`
	DeliveryTime float64      `json:"delivery_time,omitempty"`
	Delay        float64      `json:"delay,omitempty"`
	MinHops      int          `json:"min_hops"`
	Path         []pathHop    `json:"path,omitempty"`
}

type diameterResponse struct {
	Dataset    string  `json:"dataset"`
	Eps        float64 `json:"eps"`
	Points     int     `json:"points"`
	Diameter   int     `json:"diameter"`
	WorstRatio float64 `json:"worst_ratio,omitempty"`
}

type cdfCurve struct {
	HopBound int       `json:"hop_bound"`
	Success  []float64 `json:"success"`
}

type delayCDFResponse struct {
	Dataset string     `json:"dataset"`
	Points  int        `json:"points"`
	Grid    []float64  `json:"grid"`
	Curves  []cdfCurve `json:"curves"`
}

// ---- handlers -------------------------------------------------------

func (s *Server) handleDatasets(ctx context.Context, _ *Dataset, _ *query) (any, error) {
	list := s.datasetList()
	infos := make([]datasetInfo, 0, len(list))
	for _, ds := range list {
		info := datasetInfo{
			Name:          ds.Name,
			Nodes:         ds.View.NumNodes(),
			Internal:      ds.View.NumInternal(),
			Contacts:      ds.View.NumContacts(),
			WindowSeconds: ds.View.Duration(),
			Granularity:   ds.View.Granularity(),
			Hops:          ds.Study.Result.Hops,
			DefaultPoints: ds.DefaultPoints,
			DefaultEps:    ds.DefaultEps,
			Diameter:      ds.Diameter,
			LoadMillis:    ds.LoadTime.Milliseconds(),
		}
		infos = append(infos, info)
	}
	return map[string]any{"datasets": infos}, nil
}

// handlePath answers from the warm frontier archive — an O(log) read
// per request; only the optional reconstruction walks the timeline,
// under the request context.
func (s *Server) handlePath(ctx context.Context, ds *Dataset, q *query) (any, error) {
	if err := ds.CheckPair(q.src, q.dst); err != nil {
		return nil, badRequest("%v", err)
	}
	t := q.t
	if !q.hasT {
		t = ds.View.Start()
	}
	tc := q.tr
	var c0 int64
	if tc != nil {
		tc.Event(obs.TraceComputeStart)
		c0 = tc.Since()
	}
	res := ds.Study.Result
	del := res.Frontier(q.src, q.dst, q.maxHops).Del(t)
	resp := &pathResponse{
		Dataset: ds.Name,
		Src:     q.src,
		Dst:     q.dst,
		T:       t,
		MaxHops: q.maxHops,
		MinHops: res.MinHops(q.src, q.dst),
	}
	if !math.IsInf(del, 1) {
		resp.Delivered = true
		resp.DeliveryTime = del
		resp.Delay = del - t
	}
	if q.recon && resp.Delivered {
		opt := ds.opt
		opt.Ctx = ctx
		p, err := core.ReconstructPathView(ds.View, q.src, q.dst, t, q.maxHops, opt)
		if err != nil {
			if cerr := ctx.Err(); cerr != nil {
				return nil, cerr
			}
			return nil, &httpError{code: http.StatusInternalServerError, msg: err.Error()}
		}
		for _, h := range p.Hops {
			resp.Path = append(resp.Path, pathHop{From: h.From, To: h.To, At: h.At, Beg: h.Beg, End: h.End})
		}
	}
	if tc != nil {
		tc.ComputeNS += tc.Since() - c0
		tc.Event(obs.TraceComputeEnd)
	}
	return resp, nil
}

// handleDiameter runs the exact (1−ε)-diameter under the request
// deadline; a deadline that expires first fails the request with its
// context error (504). Identical concurrent queries coalesce into one
// computation.
func (s *Server) handleDiameter(ctx context.Context, ds *Dataset, q *query) (any, error) {
	grid := ds.Grid(q.points)
	key := queryKey("diameter", ds.Name, formatFloat(q.eps), strconv.Itoa(len(grid)))
	return s.flights.do(ctx, q.tr, key, func() (any, error) {
		st := ds.Study.WithContext(ctx)
		k, worst := st.Diameter(q.eps, grid)
		if err := st.Err(); err != nil {
			return nil, err
		}
		return &diameterResponse{
			Dataset: ds.Name, Eps: q.eps, Points: len(grid),
			Diameter: k, WorstRatio: worst,
		}, nil
	})
}

// handleDelayCDF integrates the exact per-hop-bound success curves
// under the request deadline, failing like handleDiameter when it
// expires first.
func (s *Server) handleDelayCDF(ctx context.Context, ds *Dataset, q *query) (any, error) {
	grid := ds.Grid(q.points)
	key := queryKey("delaycdf", ds.Name, q.hopsRaw, strconv.Itoa(len(grid)))
	return s.flights.do(ctx, q.tr, key, func() (any, error) {
		st := ds.Study.WithContext(ctx)
		cdfs := st.DelayCDFs(q.hops, grid)
		if err := st.Err(); err != nil {
			return nil, err
		}
		resp := &delayCDFResponse{Dataset: ds.Name, Points: len(grid), Grid: grid}
		for _, c := range cdfs {
			resp.Curves = append(resp.Curves, cdfCurve{HopBound: c.HopBound, Success: c.Success})
		}
		return resp, nil
	})
}

// ---- JSON plumbing --------------------------------------------------

// errorResponse is the body of every non-2xx query response.
type errorResponse struct {
	Error string `json:"error"`
}

// writeJSON is the only route a JSON response takes: json.Marshal,
// then the Content-Type, the status, the body and a trailing newline
// (the bytes json.Encoder writes). A value the encoder rejects is a
// handler bug and fails the request with a 500 rather than a broken
// 200. When the request carries a trace, the write stamps its encode
// attribution (status, disposition, bytes, encode time); tracing
// never changes the bytes.
func writeJSON(w http.ResponseWriter, tc *obs.Trace, code int, v any) {
	var enc0 int64
	if tc != nil {
		tc.Event(obs.TraceEncodeStart)
		enc0 = tc.Since()
	}
	body, err := json.Marshal(v)
	if err != nil {
		code = http.StatusInternalServerError
		// A one-string struct always marshals.
		body, _ = json.Marshal(errorResponse{Error: "internal error: " + err.Error()})
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	// A failed write means the client is gone; the byte count records
	// what reached the connection.
	n, _ := w.Write(append(body, '\n'))
	if tc != nil {
		tc.EncodeNS += tc.Since() - enc0
		tc.EventArg(obs.TraceWrite, int64(n))
		tc.Status = code
		tc.Bytes = int64(n)
		if err != nil {
			tc.Disposition = obs.DispError
		}
	}
}

func writeJSONError(w http.ResponseWriter, tc *obs.Trace, err error) {
	code, retry := mapError(err)
	if tc != nil {
		if code == http.StatusTooManyRequests {
			tc.Disposition = obs.DispShed
		} else {
			tc.Disposition = obs.DispError
		}
	}
	if retry > 0 {
		secs := int(retry / time.Second)
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
	}
	writeJSON(w, tc, code, errorResponse{Error: err.Error()})
}
