package server

// The structured access log: one JSON line per completed request,
// carrying the trace ID and the stage attribution (queue wait, compute,
// encode) that lets an operator explain any individual latency sample.
// The line is an accessLine marshalled by encoding/json, like every
// response. Requests slower than the configured threshold additionally
// dump their full event trace as an `"ev":"trace"` line.
//
// Line schema (validated end-to-end by scripts/checktrace):
//
//	{"ev":"req","t_unix_ns":N,"trace_id":"…","endpoint":"…",
//	 "dataset":"…","status":N,"disposition":"ok|shed|error",
//	 "queue_ns":N,"compute_ns":N,"encode_ns":N,"total_ns":N,
//	 "deadline_ns":N,"used_ns":N,"coalesce":"leader|follower|none",
//	 "bytes":N}

import (
	"encoding/json"
	"io"
	"sync"
	"time"

	"opportunet/internal/obs"
)

// accessLine is one "ev":"req" line; the field order is the schema's.
// TraceID is a string because encoding/json base64-encodes []byte.
type accessLine struct {
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

type accessLogger struct {
	mu   sync.Mutex
	w    io.Writer
	slow time.Duration
}

// newAccessLogger returns nil (the free disabled logger) when w is nil.
func newAccessLogger(w io.Writer, slow time.Duration) *accessLogger {
	if w == nil {
		return nil
	}
	return &accessLogger{w: w, slow: slow}
}

// coalesceRole derives the request's coalescing role from its recorded
// events. A follower that retried into leadership (its first leader
// failed on the leader's own deadline) counts as a leader — it did the
// work.
func coalesceRole(tc *obs.Trace) string {
	role := "none"
	for _, ev := range tc.Events() {
		switch ev.Kind {
		case obs.TraceLeader:
			return "leader"
		case obs.TraceFollower:
			role = "follower"
		}
	}
	return role
}

// log writes the request's access-log line, plus the full event dump
// when the request was slower than the threshold. Nil-safe on both
// sides; safe for concurrent use.
func (l *accessLogger) log(tc *obs.Trace) {
	if l == nil || tc == nil {
		return
	}
	// An accessLine holds only strings and integers: Marshal cannot fail.
	line, _ := json.Marshal(accessLine{
		Ev:          "req",
		TUnixNS:     tc.WallNS(),
		TraceID:     string(tc.ID()),
		Endpoint:    tc.Endpoint,
		Dataset:     tc.Dataset,
		Status:      tc.Status,
		Disposition: tc.Disposition.String(),
		QueueNS:     tc.QueueNS,
		ComputeNS:   tc.ComputeNS,
		EncodeNS:    tc.EncodeNS,
		TotalNS:     tc.TotalNS,
		DeadlineNS:  tc.DeadlineNS,
		UsedNS:      tc.DeadlineUsedNS,
		Coalesce:    coalesceRole(tc),
		Bytes:       tc.Bytes,
	})
	line = append(line, '\n')

	// The slow-trace dump rides in the same locked write so the two
	// lines of one request never interleave with another request's.
	var dump []byte
	if l.slow > 0 && tc.TotalNS >= int64(l.slow) {
		line := struct {
			Ev string `json:"ev"`
			obs.TraceSnapshot
		}{Ev: "trace", TraceSnapshot: tc.Snapshot()}
		if data, err := json.Marshal(line); err == nil {
			dump = append(data, '\n')
		}
	}

	l.mu.Lock()
	_, _ = l.w.Write(line)
	if dump != nil {
		_, _ = l.w.Write(dump)
	}
	l.mu.Unlock()
}
