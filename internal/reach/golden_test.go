package reach_test

import (
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"hash"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"opportunet/internal/experiments"
	"opportunet/internal/reach"
	"opportunet/internal/stats"
	"opportunet/internal/timeline"
	"opportunet/internal/trace"
)

var update = flag.Bool("update", false, "rewrite testdata/envelopes.sha256 from the current envelope builds")

// goldenEps are the diameter confidences whose certified brackets the
// envelope golden pins.
var goldenEps = []float64{0.01, 0.05}

// studyGrid is the analysis study's delay grid: log-spaced from 2
// minutes (or 1% of a short window) to the full window.
func studyGrid(window float64, points int) []float64 {
	lo := 120.0
	if lo >= window/2 {
		lo = window / 100
	}
	return stats.LogSpace(lo, window, points)
}

// envelopeDigest hashes everything an engine answers on one grid: the
// bits of every DeliveryBound value for hop bounds 0..MaxHops+1 at the
// initial resolution, the DiameterBounds brackets at goldenEps, and the
// DeliveryBound bits again after refining to the MaxSlots cap.
func envelopeDigest(t *testing.T, eng *reach.Engine, grid []float64) string {
	t.Helper()
	h := sha256.New()
	hashBounds := func() {
		fmt.Fprintf(h, "slots %d\n", eng.Slots())
		for hop := 0; hop <= eng.MaxHops()+1; hop++ {
			lower, upper, err := eng.DeliveryBound(hop, grid)
			if err != nil {
				t.Fatalf("DeliveryBound(%d): %v", hop, err)
			}
			writeBits(h, lower)
			writeBits(h, upper)
		}
	}
	hashBounds()
	for _, eps := range goldenEps {
		lo, hi, err := eng.DiameterBounds(eps, grid)
		if err != nil {
			t.Fatalf("DiameterBounds(%v): %v", eps, err)
		}
		fmt.Fprintf(h, "eps %v: [%d, %d] slots %d\n", eps, lo, hi, eng.Slots())
	}
	for eng.Refine() {
	}
	hashBounds()
	return fmt.Sprintf("%x", h.Sum(nil))
}

func writeBits(h hash.Hash, vs []float64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
}

// TestEnvelopesGolden pins every envelope bit: quick Infocom05 (seed 1)
// on the study's 40-point grid with MaxSlots 512, and the randtemp
// traces of the sandwich tests on their 25-point grid, each undirected
// and directed, must hash to the digests in testdata/envelopes.sha256.
// Run with -update to rewrite the file after an intended change.
func TestEnvelopesGolden(t *testing.T) {
	type input struct {
		name string
		tr   *trace.Trace
		grid func(v *timeline.View) []float64
		opt  reach.Options
	}
	c := &experiments.Config{Quick: true, Seed: 1}
	info, err := c.Trace(experiments.Infocom05)
	if err != nil {
		t.Fatal(err)
	}
	inputs := []input{{
		name: "infocom05",
		tr:   info,
		grid: func(v *timeline.View) []float64 { return studyGrid(v.Duration(), 40) },
		opt:  reach.Options{MaxSlots: 512},
	}}
	for i, tr := range testTraces(t) {
		inputs = append(inputs, input{
			name: fmt.Sprintf("randtemp%d", i),
			tr:   tr,
			grid: func(v *timeline.View) []float64 { return stats.LogSpace(60, v.Duration(), 25) },
			opt:  reach.Options{MaxHops: 6, Slots: 32, MaxSlots: 128},
		})
	}

	var got strings.Builder
	for _, in := range inputs {
		v := timeline.New(in.tr).All()
		for _, directed := range []bool{false, true} {
			opt := in.opt
			opt.Directed = directed
			eng, err := reach.New(v, opt)
			if err != nil {
				t.Fatalf("%s: %v", in.name, err)
			}
			name := in.name + "/undirected"
			if directed {
				name = in.name + "/directed"
			}
			fmt.Fprintf(&got, "%s  %s\n", envelopeDigest(t, eng, in.grid(v)), name)
		}
	}

	path := filepath.Join("testdata", "envelopes.sha256")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got.String() != string(want) {
		t.Fatalf("envelopes drifted from %s:\ngot:\n%swant:\n%s", path, got.String(), want)
	}
}
