package analysis

import (
	"reflect"
	"sync"
	"testing"

	"opportunet/internal/core"
	"opportunet/internal/rng"
	"opportunet/internal/stats"
	"opportunet/internal/trace"
)

// parallelTestTrace builds a random interval trace with all-internal
// devices for the worker-equivalence tests.
func parallelTestTrace(seed uint64, nodes, contacts int) *trace.Trace {
	r := rng.New(seed)
	tr := &trace.Trace{Name: "par", Start: 0, End: 8000, Kinds: make([]trace.Kind, nodes)}
	for i := 0; i < contacts; i++ {
		a := trace.NodeID(r.Intn(nodes))
		b := trace.NodeID(r.Intn(nodes))
		if a == b {
			continue
		}
		beg := r.Uniform(0, 7800)
		tr.Contacts = append(tr.Contacts, trace.Contact{A: a, B: b, Beg: beg, End: beg + r.Uniform(1, 250)})
	}
	return tr
}

// TestStudyWorkerEquivalence checks that every aggregate a Study exposes
// is byte-identical across worker counts — the determinism contract of
// the parallel aggregation pipeline.
func TestStudyWorkerEquivalence(t *testing.T) {
	tr := parallelTestTrace(11, 24, 2500)
	grid := stats.LogSpace(10, tr.Duration(), 25)
	bounds := []int{1, 2, 3, Unbounded}

	ref, err := NewStudy(tr, core.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	refCDFs := ref.DelayCDFs(bounds, grid)
	refDiam, refWorst := ref.Diameter(0.01, grid)
	refAtDelay := ref.DiameterAtDelay(0.01, grid)
	refVsEps := ref.DiameterVsEpsilon([]float64{0.01, 0.05, 0.2}, grid)
	refProb := ref.SuccessProbability(600, Unbounded)

	for _, w := range []int{2, 8} {
		st, err := NewStudy(tr, core.Options{Workers: w})
		if err != nil {
			t.Fatal(err)
		}
		if got := st.DelayCDFs(bounds, grid); !reflect.DeepEqual(got, refCDFs) {
			t.Fatalf("workers=%d: DelayCDFs differ from serial", w)
		}
		d, worst := st.Diameter(0.01, grid)
		if d != refDiam || worst != refWorst {
			t.Fatalf("workers=%d: Diameter (%d, %v), want (%d, %v)", w, d, worst, refDiam, refWorst)
		}
		if got := st.DiameterAtDelay(0.01, grid); !reflect.DeepEqual(got, refAtDelay) {
			t.Fatalf("workers=%d: DiameterAtDelay differs", w)
		}
		if got := st.DiameterVsEpsilon([]float64{0.01, 0.05, 0.2}, grid); !reflect.DeepEqual(got, refVsEps) {
			t.Fatalf("workers=%d: DiameterVsEpsilon differs", w)
		}
		if got := st.SuccessProbability(600, Unbounded); got != refProb {
			t.Fatalf("workers=%d: SuccessProbability %v, want %v", w, got, refProb)
		}
	}
}

// TestFrontiersForConcurrent hammers the frontier memo and the curve
// cache from many goroutines; run under -race it proves the Study's
// internal synchronization. Every goroutine must observe identical
// values.
func TestFrontiersForConcurrent(t *testing.T) {
	tr := parallelTestTrace(5, 16, 1200)
	st, err := NewStudy(tr, core.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	grid := stats.LogSpace(10, tr.Duration(), 10)
	want := st.DelayCDFs([]int{1, 2, Unbounded}, grid)
	st.ClearCaches()

	const goroutines = 8
	var wg sync.WaitGroup
	results := make([][]DelayCDF, goroutines)
	lens := make([][]int, goroutines)
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			defer wg.Done()
			for _, k := range []int{Unbounded, 1, 2, 1, Unbounded} {
				fs := st.frontiersFor(k)
				lens[g] = append(lens[g], len(fs))
			}
			results[g] = st.DelayCDFs([]int{1, 2, Unbounded}, grid)
		}(g)
	}
	wg.Wait()
	for g := 0; g < goroutines; g++ {
		for _, n := range lens[g] {
			if n != len(st.Pairs) {
				t.Fatalf("goroutine %d: frontier set has %d entries, want %d", g, n, len(st.Pairs))
			}
		}
		if !reflect.DeepEqual(results[g], want) {
			t.Fatalf("goroutine %d observed different CDFs", g)
		}
	}
}

// TestRandomRemovalWorkerEquivalence checks the fan-out of the §6.1
// repetition loop: per-rep RNG streams are split from the seed before
// the fan-out, so averaged curves and per-rep diameters must be
// byte-identical at every worker count.
func TestRandomRemovalWorkerEquivalence(t *testing.T) {
	tr := parallelTestTrace(21, 20, 2000)
	grid := stats.LogSpace(10, tr.Duration(), 12)
	bounds := []int{1, 3, Unbounded}

	refCDFs, refDiams, err := RandomRemovalStudy(tr, 0.5, 4, 77, core.Options{Workers: 1}, bounds, grid, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 8} {
		cdfs, diams, err := RandomRemovalStudy(tr, 0.5, 4, 77, core.Options{Workers: w}, bounds, grid, 0.01)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(cdfs, refCDFs) {
			t.Fatalf("workers=%d: averaged CDFs differ from serial", w)
		}
		if !reflect.DeepEqual(diams, refDiams) {
			t.Fatalf("workers=%d: diameters %v, want %v", w, diams, refDiams)
		}
	}
}

// TestSelfCheckParallel runs the flooding cross-validation with parallel
// destination checks; any disagreement would be a real engine bug.
func TestSelfCheckParallel(t *testing.T) {
	tr := parallelTestTrace(31, 18, 1500)
	st, err := NewStudy(tr, core.Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.SelfCheck(6, 99); err != nil {
		t.Fatal(err)
	}
}

// TestClearCaches verifies dropping the caches does not change results.
func TestClearCaches(t *testing.T) {
	tr := parallelTestTrace(41, 14, 800)
	st, err := NewStudy(tr, core.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	grid := stats.LogSpace(10, tr.Duration(), 8)
	before := st.DelayCDFs([]int{1, Unbounded}, grid)
	st.ClearCaches()
	if st.state.sorted != nil {
		t.Fatal("ClearCaches kept the sorted archives")
	}
	after := st.DelayCDFs([]int{1, Unbounded}, grid)
	if !reflect.DeepEqual(before, after) {
		t.Fatal("results changed after ClearCaches")
	}
}
