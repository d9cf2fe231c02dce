package server

import (
	"flag"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/responses.golden from the current handler output")

// goldenRequests is the fixed request set TestResponsesGolden pins:
// every query endpoint with default and explicit parameters, plus the
// 400/404 error shapes. /v1/datasets is left out — its load_ms is wall
// time.
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

// TestResponsesGolden pins the daemon's wire format: status,
// Content-Type and body bytes of every request in goldenRequests,
// served against testDataset, must match testdata/responses.golden.
// Run with -update to regenerate the file after an intended change.
func TestResponsesGolden(t *testing.T) {
	s := New(Config{})
	s.Register(testDataset(t))
	s.SetReady(true)
	h := s.Handler()

	blocks := make([]string, len(goldenRequests))
	for i, url := range goldenRequests {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", url, nil))
		blocks[i] = "GET " + url + "\n" +
			strconv.Itoa(rec.Code) + " " + rec.Header().Get("Content-Type") + "\n" +
			rec.Body.String()
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
