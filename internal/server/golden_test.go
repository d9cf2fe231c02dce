package server

import (
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"opportunet/internal/core"
)

var update = flag.Bool("update", false, "rewrite testdata/responses.golden from the current handler output")

// goldenRequests is the fixed request set TestResponsesGolden pins:
// every query endpoint with default and explicit parameters, plus the
// 400/404 error shapes. /v1/datasets follows them, with its wall-time
// load_ms masked to 0.
var goldenRequests = []string{
	"/v1/path?dataset=synth&src=0&dst=1",
	"/v1/path?dataset=synth&src=0&dst=1&t=300",
	"/v1/path?dataset=synth&src=0&dst=1&t=300&maxhops=1",
	"/v1/path?dataset=synth&src=0&dst=1&t=300&reconstruct=1",
	"/v1/path?src=3&dst=8&t=4500.5&reconstruct=true",
	"/v1/diameter?dataset=synth",
	"/v1/diameter?dataset=synth&eps=0.2&points=24",
	"/v1/delaycdf?dataset=synth",
	"/v1/delaycdf?dataset=synth&hops=1,0&points=12",
	"/v1/path?dataset=synth&src=zebra&dst=1",
	"/v1/path?dataset=synth&src=%3Cx%3E&dst=1",
	"/v1/path?dataset=synth&src=0&dst=99",
	"/v1/path?dataset=synth&src=0&dst=1&t=NaN",
	"/v1/path?dataset=synth&src=0&dst=1&deadline_ms=-5",
	"/v1/path?dataset=nope&src=0&dst=1",
	"/v1/diameter?dataset=synth&eps=1.5",
	"/v1/delaycdf?dataset=synth&hops=1,x",
}

// goldenDelayRequests are pinned last, against a server of their own
// whose one dataset is testTrace loaded with a 30 s per-hop
// transmission delay: registering it beside testDataset would change
// the blocks above that omit dataset.
var goldenDelayRequests = []string{
	"/v1/diameter?dataset=synth-delay30",
	"/v1/delaycdf?dataset=synth-delay30&hops=1,0&points=12",
	"/v1/path?dataset=synth-delay30&src=0&dst=1&t=300",
}

var loadMillis = regexp.MustCompile(`"load_ms":[0-9]+`)

// TestResponsesGolden pins the daemon's wire format: status,
// Content-Type and body bytes of every request in goldenRequests,
// served against testDataset, then of /v1/datasets and of
// goldenDelayRequests, must match testdata/responses.golden. Run with
// -update to regenerate the file after an intended change.
func TestResponsesGolden(t *testing.T) {
	s := New(Config{})
	s.Register(testDataset(t))
	s.SetReady(true)
	h := s.Handler()

	tr := testTrace(t)
	tr.Name = "synth-delay30"
	ds, err := LoadDataset(tr, LoadOptions{Core: core.Options{TransmitDelay: 30}})
	if err != nil {
		t.Fatal(err)
	}
	sd := New(Config{})
	sd.Register(ds)
	sd.SetReady(true)

	serve := func(h http.Handler, url string) string {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", url, nil))
		return "GET " + url + "\n" +
			strconv.Itoa(rec.Code) + " " + rec.Header().Get("Content-Type") + "\n" +
			rec.Body.String()
	}
	var blocks []string
	for _, url := range goldenRequests {
		blocks = append(blocks, serve(h, url))
	}
	blocks = append(blocks, loadMillis.ReplaceAllString(serve(h, "/v1/datasets"), `"load_ms":0`))
	for _, url := range goldenDelayRequests {
		blocks = append(blocks, serve(sd.Handler(), url))
	}
	got := strings.Join(blocks, "\n")

	path := filepath.Join("testdata", "responses.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got == string(want) {
		return
	}
	for _, b := range blocks {
		if !strings.Contains(string(want), b) {
			t.Errorf("response drifted from %s:\n%s", path, b)
		}
	}
	t.Fatalf("served responses differ from %s", path)
}
