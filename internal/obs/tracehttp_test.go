package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
)

// TestRecorderServeHTTP pins the one /debug/requests contract that the
// query daemon and ingest share: the endpoint and disposition filters,
// the limit cap (absent: no cap), a {"error": …} JSON 400 for an unknown
// disposition or a limit that is not a positive integer, and a 404 from
// a nil recorder.
func TestRecorderServeHTTP(t *testing.T) {
	rec := NewRecorder(16)
	tr := NewTracer(rec)
	for i, c := range []struct {
		endpoint string
		disp     Disposition
	}{
		{"path", DispOK}, {"path", DispOK}, {"path", DispError},
		{"diameter", DispShed}, {"diameter", DispOK},
	} {
		tc := tr.Start(c.endpoint)
		tc.SetID(fmt.Sprintf("t%d", i))
		tc.Disposition = c.disp
		tr.Finish(tc)
	}
	get := func(r *Recorder, query string) (int, string, []byte) {
		w := httptest.NewRecorder()
		r.ServeHTTP(w, httptest.NewRequest("GET", "/debug/requests"+query, nil))
		return w.Code, w.Header().Get("Content-Type"), w.Body.Bytes()
	}

	for _, c := range []struct {
		query          string
		endpoint, disp string
		count          int
	}{
		{"", "", "", 5},
		{"?endpoint=path", "path", "", 3},
		{"?disposition=ok", "", "ok", 3},
		{"?disposition=shed", "", "shed", 1},
		{"?endpoint=path&disposition=error", "path", "error", 1},
		{"?limit=2", "", "", 2},
		{"?endpoint=diameter&limit=10", "diameter", "", 2},
	} {
		code, ct, body := get(rec, c.query)
		var view struct {
			Count    int             `json:"count"`
			Requests []TraceSnapshot `json:"requests"`
		}
		if code != http.StatusOK || ct != "application/json" {
			t.Fatalf("%q: status %d, Content-Type %q", c.query, code, ct)
		}
		if err := json.Unmarshal(body, &view); err != nil {
			t.Fatalf("%q: bad JSON %q: %v", c.query, body, err)
		}
		if view.Count != c.count || len(view.Requests) != c.count {
			t.Fatalf("%q: count %d with %d requests, want %d", c.query, view.Count, len(view.Requests), c.count)
		}
		for _, s := range view.Requests {
			if c.endpoint != "" && s.Endpoint != c.endpoint || c.disp != "" && s.Disposition != c.disp {
				t.Fatalf("%q: trace %s (%s, %s) passed the filter", c.query, s.ID, s.Endpoint, s.Disposition)
			}
		}
	}

	for _, c := range []struct{ query, msg string }{
		{"?disposition=bogus", `bad disposition "bogus": want ok|shed|error`},
		{"?limit=0", `bad limit "0": want a positive integer`},
		{"?limit=-3", `bad limit "-3": want a positive integer`},
		{"?limit=x", `bad limit "x": want a positive integer`},
		{"?limit=1.5", `bad limit "1.5": want a positive integer`},
	} {
		code, ct, body := get(rec, c.query)
		var e struct {
			Error string `json:"error"`
		}
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&e); code != http.StatusBadRequest || ct != "application/json" || err != nil || e.Error != c.msg {
			t.Fatalf("%q: status %d, Content-Type %q, body %q (%v); want 400 with error %q", c.query, code, ct, body, err, c.msg)
		}
	}

	if code, _, _ := get(nil, ""); code != http.StatusNotFound {
		t.Fatalf("nil recorder: status %d, want 404", code)
	}
}
