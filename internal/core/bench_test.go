package core

import (
	"testing"

	"opportunet/internal/rng"
	"opportunet/internal/stats"
	"opportunet/internal/trace"
)

// benchTrace is a mid-size random temporal network reused by the
// package's micro-benchmarks.
func coreBenchTrace(b *testing.B) *trace.Trace {
	b.Helper()
	r := rng.New(1)
	tr := &trace.Trace{Name: "bench", Start: 0, End: 10000, Kinds: make([]trace.Kind, 60)}
	for i := 0; i < 20000; i++ {
		a := trace.NodeID(r.Intn(60))
		c := trace.NodeID(r.Intn(60))
		if a == c {
			continue
		}
		beg := r.Uniform(0, 9900)
		tr.Contacts = append(tr.Contacts, trace.Contact{A: a, B: c, Beg: beg, End: beg + r.Uniform(0, 300)})
	}
	return tr
}

func BenchmarkComputeRandomTrace(b *testing.B) {
	tr := coreBenchTrace(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Compute(tr, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFrontierQuery(b *testing.B) {
	tr := coreBenchTrace(b)
	res, err := Compute(tr, Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = res.Frontier(trace.NodeID(i%60), trace.NodeID((i+7)%60), 4)
	}
}

func BenchmarkDel(b *testing.B) {
	tr := coreBenchTrace(b)
	res, err := Compute(tr, Options{})
	if err != nil {
		b.Fatal(err)
	}
	f := res.Frontier(0, 1, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = f.Del(float64(i % 10000))
	}
}

// BenchmarkDelDelta exercises the Delta > 0 evaluation path, where the
// precomputed per-hop suffix-min index replaces a scan of every entry.
func BenchmarkDelDelta(b *testing.B) {
	tr := coreBenchTrace(b)
	res, err := Compute(tr, Options{TransmitDelay: 5})
	if err != nil {
		b.Fatal(err)
	}
	f := res.Frontier(0, 1, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = f.Del(float64(i % 10000))
	}
}

func BenchmarkSuccessWithin(b *testing.B) {
	tr := coreBenchTrace(b)
	res, err := Compute(tr, Options{})
	if err != nil {
		b.Fatal(err)
	}
	f := res.Frontier(0, 1, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = f.SuccessWithin(600, 0, 10000)
	}
}

// BenchmarkSuccessCurve integrates BenchmarkSuccessWithin's frontier
// over a 40-point log grid in one pass: the per-pair step of every
// delay CDF and diameter aggregation.
func BenchmarkSuccessCurve(b *testing.B) {
	tr := coreBenchTrace(b)
	res, err := Compute(tr, Options{})
	if err != nil {
		b.Fatal(err)
	}
	f := res.Frontier(0, 1, 0)
	grid := stats.LogSpace(10, 10000, 40)
	out := make([]float64, len(grid))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.SuccessCurve(grid, 0, 10000, out)
	}
}

func BenchmarkReconstructPath(b *testing.B) {
	tr := coreBenchTrace(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = ReconstructPath(tr, 0, 1, float64(i%5000), 0, Options{})
	}
}
