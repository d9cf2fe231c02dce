// Command checktrace validates an opportunetd access log (the
// -access-log JSONL stream): every line must be an `"ev":"req"`
// request record or an `"ev":"trace"` slow-request event dump.
//
// For req lines it checks the full attribution schema — a non-empty
// trace ID and endpoint, a legal disposition and coalesce role, a
// plausible HTTP status — and the accounting invariants: every stage
// component is non-negative, the queue + compute + encode partition
// fits inside the end-to-end total within -tolerance, and a request
// that carried a deadline never reports using more of it than it had.
//
// For trace lines it checks the dump is attributable (its trace ID
// matches a req line in the same log), opens with the "start" event,
// and that event timestamps are monotone non-decreasing.
//
// Usage:
//
//	go run ./scripts/checktrace access.log
//	go run ./scripts/checktrace -require-dispositions ok,shed,error access.log
//
// Exits 1 with a line-attributed diagnostic on the first violation;
// CI's server-smoke and loadgen-smoke jobs use it as the tracing gate.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"opportunet/internal/obs"
)

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "checktrace: "+format+"\n", args...)
	os.Exit(1)
}

// reqLine mirrors the access-log schema documented in
// internal/server/accesslog.go; DisallowUnknownFields keeps the two in
// lockstep.
type reqLine struct {
	Ev          string `json:"ev"`
	TUnixNS     int64  `json:"t_unix_ns"`
	TraceID     string `json:"trace_id"`
	Endpoint    string `json:"endpoint"`
	Dataset     string `json:"dataset"`
	Status      int    `json:"status"`
	Disposition string `json:"disposition"`
	QueueNS     int64  `json:"queue_ns"`
	ComputeNS   int64  `json:"compute_ns"`
	EncodeNS    int64  `json:"encode_ns"`
	TotalNS     int64  `json:"total_ns"`
	DeadlineNS  int64  `json:"deadline_ns"`
	UsedNS      int64  `json:"used_ns"`
	Coalesce    string `json:"coalesce"`
	Bytes       int64  `json:"bytes"`
}

type traceLine struct {
	Ev string `json:"ev"`
	obs.TraceSnapshot
}

var coalesceRoles = map[string]bool{"leader": true, "follower": true, "none": true}

func main() {
	tolerance := flag.Float64("tolerance", 0.05, "allowed relative overshoot of queue+compute+encode past total_ns")
	requireDisp := flag.String("require-dispositions", "", "comma-separated dispositions that must each appear on at least one req line")
	flag.Parse()
	if flag.NArg() != 1 {
		fail("usage: checktrace [-tolerance f] [-require-dispositions names] ACCESS_LOG")
	}
	path := flag.Arg(0)
	f, err := os.Open(path)
	if err != nil {
		fail("%v", err)
	}
	defer f.Close()

	var (
		reqs, dumps int
		ids         = map[string]bool{}
		dispSeen    = map[string]bool{}
		traces      []traceLine
		traceAt     []int
	)
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24) // event dumps can be long lines
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var probe struct {
			Ev string `json:"ev"`
		}
		if err := json.Unmarshal(line, &probe); err != nil {
			fail("%s:%d: not JSON: %v", path, lineNo, err)
		}
		switch probe.Ev {
		case "req":
			var r reqLine
			dec := json.NewDecoder(strings.NewReader(string(line)))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&r); err != nil {
				fail("%s:%d: req line off schema: %v", path, lineNo, err)
			}
			checkReq(path, lineNo, &r, *tolerance)
			reqs++
			ids[r.TraceID] = true
			dispSeen[r.Disposition] = true
		case "trace":
			var tl traceLine
			if err := json.Unmarshal(line, &tl); err != nil {
				fail("%s:%d: trace dump off schema: %v", path, lineNo, err)
			}
			checkDump(path, lineNo, &tl)
			dumps++
			// Attribution is checked after the full read: the dump's req
			// line is adjacent today, but the contract is only "same log".
			traces = append(traces, tl)
			traceAt = append(traceAt, lineNo)
		default:
			fail("%s:%d: unknown ev %q", path, lineNo, probe.Ev)
		}
	}
	if err := sc.Err(); err != nil {
		fail("%s: %v", path, err)
	}
	if reqs == 0 {
		fail("%s: no req lines", path)
	}
	for i, tl := range traces {
		if !ids[tl.ID] {
			fail("%s:%d: trace dump %q matches no req line", path, traceAt[i], tl.ID)
		}
	}
	for _, want := range strings.Split(*requireDisp, ",") {
		want = strings.TrimSpace(want)
		if want == "" {
			continue
		}
		if _, ok := obs.ParseDisposition(want); !ok {
			fail("-require-dispositions: unknown disposition %q", want)
		}
		if !dispSeen[want] {
			fail("%s: no request ended %s (have: %s)", path, want, strings.Join(keys(dispSeen), ","))
		}
	}
	fmt.Printf("checktrace: %s ok (%d requests, %d slow dumps, dispositions: %s)\n",
		path, reqs, dumps, strings.Join(keys(dispSeen), ","))
}

func checkReq(path string, n int, r *reqLine, tol float64) {
	if r.TraceID == "" || r.Endpoint == "" {
		fail("%s:%d: empty trace_id or endpoint: %+v", path, n, r)
	}
	if _, ok := obs.ParseDisposition(r.Disposition); !ok {
		fail("%s:%d: unknown disposition %q", path, n, r.Disposition)
	}
	if !coalesceRoles[r.Coalesce] {
		fail("%s:%d: unknown coalesce role %q", path, n, r.Coalesce)
	}
	if r.Status < 100 || r.Status > 599 {
		fail("%s:%d: implausible status %d", path, n, r.Status)
	}
	if r.TUnixNS <= 0 || r.TotalNS <= 0 {
		fail("%s:%d: non-positive timestamps: t_unix_ns=%d total_ns=%d", path, n, r.TUnixNS, r.TotalNS)
	}
	if r.QueueNS < 0 || r.ComputeNS < 0 || r.EncodeNS < 0 || r.Bytes < 0 {
		fail("%s:%d: negative component: %+v", path, n, r)
	}
	// The stages are disjoint slices of the request's life, so their sum
	// can only exceed the total by clock-read granularity.
	if sum := r.QueueNS + r.ComputeNS + r.EncodeNS; float64(sum) > float64(r.TotalNS)*(1+tol) {
		fail("%s:%d: queue+compute+encode = %dns exceeds total %dns beyond %.0f%%",
			path, n, sum, r.TotalNS, 100*tol)
	}
	if r.DeadlineNS > 0 && r.UsedNS > r.DeadlineNS {
		fail("%s:%d: used_ns %d exceeds deadline_ns %d", path, n, r.UsedNS, r.DeadlineNS)
	}
	if r.Disposition == "ok" && r.Bytes == 0 {
		fail("%s:%d: ok request wrote no bytes", path, n)
	}
}

func checkDump(path string, n int, tl *traceLine) {
	if len(tl.Events) == 0 {
		fail("%s:%d: trace dump has no events", path, n)
	}
	if tl.Events[0].Kind != "start" {
		fail("%s:%d: trace dump opens with %q, want start", path, n, tl.Events[0].Kind)
	}
	for i := 1; i < len(tl.Events); i++ {
		if tl.Events[i].AtNS < tl.Events[i-1].AtNS {
			fail("%s:%d: events not monotone: %s@%d after %s@%d", path, n,
				tl.Events[i].Kind, tl.Events[i].AtNS, tl.Events[i-1].Kind, tl.Events[i-1].AtNS)
		}
	}
}

func keys(m map[string]bool) []string {
	var out []string
	for _, d := range []string{"ok", "shed", "error"} {
		if m[d] {
			out = append(out, d)
		}
	}
	return out
}
