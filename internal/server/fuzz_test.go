package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"opportunet/internal/obs"
)

// headerValue keeps the bytes net/http accepts in a header value:
// anything but control characters, horizontal tab excepted.
func headerValue(s string) string {
	b := make([]byte, 0, len(s))
	for i := 0; i < len(s); i++ {
		if c := s[i]; c >= 0x20 && c != 0x7f || c == '\t' {
			b = append(b, c)
		}
	}
	return string(b)
}

// FuzzServeQuery drives one warm, fully traced handler with a fuzzed
// endpoint, raw query string, X-Deadline-Ms and X-Trace-Id. Whatever
// the input, the daemon answers with a JSON body that is not a 500,
// echoes at most the first 64 bytes of a supplied trace ID, logs one
// access-log line with a sane deadline attribution, and leaks no
// request (started == finished).
func FuzzServeQuery(f *testing.F) {
	ds := testDataset(f)
	log := &logBuf{}
	s := New(Config{Recorder: 16, AccessLog: log})
	s.Register(ds)
	s.SetReady(true)
	h := s.Handler()
	endpoints := []string{"datasets", "path", "diameter", "delaycdf"}

	f.Add(uint8(1), "dataset=synth&src=0&dst=1&t=300", "", "client-1")
	f.Add(uint8(1), "src=0&dst=1&t=-1e300&reconstruct=1&maxhops=3", "250", "")
	f.Add(uint8(1), "src=%3Cx%3E&dst=1;x=2&t=1e400", "-5", "a\tb")
	f.Add(uint8(2), "eps=0.2&points=24", "1", strings.Repeat("x", 80))
	f.Add(uint8(2), "deadline_ms=99999999999999999&eps=0", "", "")
	f.Add(uint8(1), "src=0&dst=1", "10000000000000", "") // ms × 1e6 overflows int64
	f.Add(uint8(3), "hops=1,0,%20&points=12", "", "\xff\xfe")
	f.Add(uint8(3), "hops=,,&points=9999", "", "lg-0123456789abcdef-7")
	f.Add(uint8(0), "", "", "")

	f.Fuzz(func(t *testing.T, ep uint8, raw, deadline, id string) {
		id, deadline = headerValue(id), headerValue(deadline)
		req := httptest.NewRequest("GET", "/v1/"+endpoints[int(ep)%len(endpoints)], nil)
		req.URL.RawQuery = raw
		req.Header["X-Deadline-Ms"] = []string{deadline}
		req.Header["X-Trace-Id"] = []string{id}
		rec := httptest.NewRecorder()
		log.reset()
		h.ServeHTTP(rec, req)

		if rec.Code == http.StatusInternalServerError {
			t.Fatalf("500 for %s?%s: %s", req.URL.Path, raw, rec.Body)
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Fatalf("Content-Type %q, want application/json", ct)
		}
		if !json.Valid(rec.Body.Bytes()) {
			t.Fatalf("body is not JSON: %q", rec.Body)
		}
		echo := rec.Header().Get("X-Trace-Id")
		if want := id[:min(len(id), obs.TraceIDCap)]; id != "" && echo != want {
			t.Fatalf("echoed trace ID %q, want %q", echo, want)
		} else if id == "" && (len(echo) != 16 || strings.Trim(echo, "0123456789abcdef") != "") {
			t.Fatalf("generated trace ID %q, want 16 hex chars", echo)
		}
		if st, fin := s.started.Load(), s.finished.Load(); st != fin {
			t.Fatalf("request leaked: started=%d finished=%d", st, fin)
		}

		var line struct {
			Ev         string `json:"ev"`
			Status     int    `json:"status"`
			DeadlineNS int64  `json:"deadline_ns"`
			UsedNS     int64  `json:"used_ns"`
		}
		entry := log.String()
		if strings.Count(entry, "\n") != 1 {
			t.Fatalf("want one access-log line, got %q", entry)
		}
		if err := json.Unmarshal([]byte(entry), &line); err != nil {
			t.Fatalf("access-log line %q: %v", entry, err)
		}
		if line.Ev != "req" || line.Status != rec.Code {
			t.Fatalf("access-log line %q disagrees with status %d", entry, rec.Code)
		}
		if line.DeadlineNS < 0 || line.DeadlineNS > int64(s.cfg.MaxDeadline) || line.UsedNS > line.DeadlineNS {
			t.Fatalf("access-log deadline attribution out of range: %q", entry)
		}
	})
}
