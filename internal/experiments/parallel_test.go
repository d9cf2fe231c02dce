package experiments

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"opportunet/internal/checkpoint"
)

var update = flag.Bool("update", false, "rewrite testdata/quick_seed1.sha256 from the current quick-suite output")

// runNamed runs the named experiments through the RunAll pipeline with
// the given worker count and returns the combined output.
func runNamed(t *testing.T, names []string, workers int) []byte {
	t.Helper()
	exps := make([]Experiment, len(names))
	for i, name := range names {
		e, err := Find(name)
		if err != nil {
			t.Fatal(err)
		}
		exps[i] = e
	}
	var buf bytes.Buffer
	c := &Config{Out: &buf, Seed: 1, Quick: true, Workers: workers}
	if err := runExperiments(c, exps); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestRunExperimentsParallelByteIdentical is the determinism contract of
// the experiment fan-out: the combined output must be byte-identical at
// every worker count, including experiments that share cached data sets
// and studies through the lab.
func TestRunExperimentsParallelByteIdentical(t *testing.T) {
	names := []string{"fig1", "fig2", "phasecheck", "table1", "fig7"}
	serial := runNamed(t, names, 1)
	if len(serial) == 0 {
		t.Fatal("no output")
	}
	for _, w := range []int{2, 8} {
		if got := runNamed(t, names, w); !bytes.Equal(got, serial) {
			t.Fatalf("workers=%d: output differs from serial (%d vs %d bytes)", w, len(got), len(serial))
		}
	}
}

// TestFullQuickSuiteByteIdentical is the end-to-end determinism gate in
// test form: the ENTIRE quick suite — every experiment cmd/experiments
// runs with `-quick all` — must produce byte-identical combined output
// at workers 1 and 8. Each run commits into its own checkpoint store, so
// the per-experiment fingerprinted artifacts double as the comparison
// vehicle: any pairwise divergence is reported by experiment name
// instead of as one opaque diff of the combined stream. The serial run's
// artifacts and stream are then checked against the committed digests
// in testdata/quick_seed1.sha256, which pins the output across commits.
//
// This is slow (two full quick suites); it is the test twin of
// `make quick-equivalence`.
func TestFullQuickSuiteByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("full quick suite; skipped with -short")
	}
	run := func(workers int) ([]byte, *checkpoint.Store, *Config) {
		store, err := checkpoint.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		c := &Config{Out: &buf, Seed: 1, Quick: true, Workers: workers, Checkpoint: store}
		if err := RunAll(c); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes(), store, c
	}
	serial, serialStore, c1 := run(1)
	parallel, parallelStore, _ := run(8)

	// Per-experiment comparison first: pinpoints a divergent experiment.
	for _, e := range All() {
		fp := c1.fingerprint(e.Name)
		a, okA := serialStore.Load(fp)
		b, okB := parallelStore.Load(fp)
		if !okA || !okB {
			t.Fatalf("experiment %s missing from checkpoint store (serial=%v parallel=%v)", e.Name, okA, okB)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("experiment %s: output differs between workers 1 and 8 (%d vs %d bytes)",
				e.Name, len(a), len(b))
		}
	}
	// And the combined stream, which also covers separators and ordering.
	if !bytes.Equal(serial, parallel) {
		t.Fatalf("combined quick-suite output differs between workers 1 and 8 (%d vs %d bytes)",
			len(serial), len(parallel))
	}
	if len(serial) == 0 {
		t.Fatal("quick suite produced no output")
	}
	checkQuickDigests(t, c1, serialStore, serial)
}

// checkQuickDigests compares the sha256 of every experiment's artifact,
// and of the combined stream ("all"), with the committed digests, so a
// drift names the exhibit that moved. Run with -update to rewrite the
// file after an intended change.
func checkQuickDigests(t *testing.T, c *Config, store *checkpoint.Store, combined []byte) {
	t.Helper()
	var got strings.Builder
	for _, e := range All() {
		out, _ := store.Load(c.fingerprint(e.Name))
		fmt.Fprintf(&got, "%x  %s\n", sha256.Sum256(out), e.Name)
	}
	fmt.Fprintf(&got, "%x  all\n", sha256.Sum256(combined))

	path := filepath.Join("testdata", "quick_seed1.sha256")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	want := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		if sum, name, ok := strings.Cut(line, "  "); ok {
			want[name] = sum
		}
	}
	for _, line := range strings.Split(strings.TrimSpace(got.String()), "\n") {
		sum, name, _ := strings.Cut(line, "  ")
		if want[name] != sum {
			t.Errorf("%s: quick-suite output drifted from %s (sha256 %s, want %q)", name, path, sum, want[name])
		}
		delete(want, name)
	}
	for name := range want {
		t.Errorf("%s: listed in %s but not produced by the quick suite", name, path)
	}
}

// TestSharedLabConcurrent runs two experiments that need the same data
// sets concurrently; under -race this proves the lab cache's
// synchronization, and the cache must still deduplicate generation.
func TestSharedLabConcurrent(t *testing.T) {
	var buf bytes.Buffer
	c := &Config{Out: &buf, Seed: 1, Quick: true, Workers: 4}
	e1, err := Find("table1")
	if err != nil {
		t.Fatal(err)
	}
	e2, err := Find("fig7")
	if err != nil {
		t.Fatal(err)
	}
	if err := runExperiments(c, []Experiment{e1, e2}); err != nil {
		t.Fatal(err)
	}
	a, err := c.Trace(Infocom05)
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Trace(Infocom05)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("lab cache returned different traces for the same dataset")
	}
}
