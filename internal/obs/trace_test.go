package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
)

// The disabled path must be free: a nil tracer hands out nil traces and
// every operation on them is a branch, not an allocation.
func TestTraceNilHandlesAllocFree(t *testing.T) {
	var tr *Tracer
	var rec *Recorder
	allocs := testing.AllocsPerRun(1000, func() {
		tc := tr.Start("path")
		tc.SetID("client-id")
		tc.Event(TraceAcquire)
		tc.EventArg(TraceWrite, 128)
		_ = tc.ID()
		_ = tc.Since()
		_ = tc.Events()
		rec.Record(tc)
		tr.Finish(tc)
	})
	if allocs != 0 {
		t.Fatalf("nil trace handles allocate %v per op, want 0", allocs)
	}
	if got := rec.Snapshot(TraceFilter{}); got != nil {
		t.Fatalf("nil recorder snapshot = %v, want nil", got)
	}
}

// The enabled steady state must be free too: pooled trace reuse means a
// full start → events → finish cycle (with recorder retention) performs
// no per-request allocation.
func TestTraceCycleAllocFree(t *testing.T) {
	tr := NewTracer(NewRecorder(16))
	// Warm the pool and the endpoint slot.
	tc := tr.Start("path")
	tr.Finish(tc)
	allocs := testing.AllocsPerRun(1000, func() {
		tc := tr.Start("path")
		tc.Dataset = "synth"
		tc.Event(TraceAcquire)
		tc.Event(TraceComputeStart)
		tc.Event(TraceComputeEnd)
		tc.EventArg(TraceWrite, 256)
		tc.Status = 200
		tc.Disposition = DispOK
		tr.Finish(tc)
	})
	if allocs != 0 {
		t.Fatalf("pooled trace cycle allocates %v per op, want 0", allocs)
	}
}

func TestTraceGeneratedIDsDistinct(t *testing.T) {
	tr := NewTracer(nil)
	seen := map[string]bool{}
	for i := 0; i < 1000; i++ {
		tc := tr.Start("path")
		id := string(tc.ID())
		if len(id) != 16 || strings.Trim(id, "0123456789abcdef") != "" {
			t.Fatalf("generated id %q is not 16 hex chars", id)
		}
		if seen[id] {
			t.Fatalf("duplicate generated id %q", id)
		}
		seen[id] = true
		tr.Finish(tc)
	}
}

func TestTraceSetIDTruncates(t *testing.T) {
	tr := NewTracer(nil)
	tc := tr.Start("path")
	long := strings.Repeat("x", 2*TraceIDCap)
	tc.SetID(long)
	if got := string(tc.ID()); got != long[:TraceIDCap] {
		t.Fatalf("SetID kept %d bytes, want %d", len(got), TraceIDCap)
	}
	tc.SetID("short")
	if got := string(tc.ID()); got != "short" {
		t.Fatalf("SetID = %q, want %q", got, "short")
	}
	tr.Finish(tc)
}

func TestTraceEventOverflowDropsCounted(t *testing.T) {
	tr := NewTracer(nil)
	tc := tr.Start("path")
	for i := 0; i < traceEventCap+5; i++ {
		tc.Event(TraceAppend)
	}
	if n := len(tc.Events()); n != traceEventCap {
		t.Fatalf("events = %d, want capacity %d", n, traceEventCap)
	}
	// Start already recorded one event, so 1 + cap+5 attempts = 6 drops.
	if d := tc.Dropped(); d != 6 {
		t.Fatalf("dropped = %d, want 6", d)
	}
	tr.Finish(tc)
}

func TestTraceEventTimestampsMonotone(t *testing.T) {
	tr := NewTracer(nil)
	tc := tr.Start("path")
	for i := 0; i < 8; i++ {
		tc.Event(TraceAppend)
		time.Sleep(100 * time.Microsecond)
	}
	evs := tc.Events()
	for i := 1; i < len(evs); i++ {
		if evs[i].At < evs[i-1].At {
			t.Fatalf("event %d at %d before event %d at %d", i, evs[i].At, i-1, evs[i-1].At)
		}
	}
	tr.Finish(tc)
}

// retire pushes one synthetic trace through a tracer.
func retire(tr *Tracer, endpoint, id string, disp Disposition, total time.Duration) {
	tc := tr.Start(endpoint)
	if id != "" {
		tc.SetID(id)
	}
	tc.Disposition = disp
	tc.TotalNS = int64(total)
	tr.Finish(tc)
}

// Tail-biased retention: a firehose of healthy requests must not evict
// the shed/error tail nor the slowest-per-endpoint record.
func TestRecorderTailBiasedRetention(t *testing.T) {
	rec := NewRecorder(4)
	tr := NewTracer(rec)

	retire(tr, "diameter", "shed-1", DispShed, 2*time.Millisecond)
	retire(tr, "path", "slow-1", DispOK, time.Hour) // slowest path ever
	for i := 0; i < 100; i++ {
		retire(tr, "path", "", DispOK, time.Millisecond)
	}

	byID := func(snaps []TraceSnapshot, id string) *TraceSnapshot {
		for i := range snaps {
			if snaps[i].ID == id {
				return &snaps[i]
			}
		}
		return nil
	}
	all := rec.Snapshot(TraceFilter{})
	if byID(all, "shed-1") == nil {
		t.Fatalf("shed trace evicted by ok firehose; snapshot has %d traces", len(all))
	}
	if byID(all, "slow-1") == nil {
		t.Fatalf("slowest path trace evicted by ok firehose")
	}

	// Filters.
	shed := rec.Snapshot(TraceFilter{Disposition: "shed"})
	if len(shed) != 1 || shed[0].ID != "shed-1" {
		t.Fatalf("disposition filter: got %+v, want only shed-1", shed)
	}
	dia := rec.Snapshot(TraceFilter{Endpoint: "diameter"})
	if len(dia) != 1 || dia[0].ID != "shed-1" {
		t.Fatalf("endpoint filter: got %+v, want only shed-1", dia)
	}
	if lim := rec.Snapshot(TraceFilter{Limit: 2}); len(lim) != 2 {
		t.Fatalf("limit filter returned %d traces, want 2", len(lim))
	}
}

func TestRecorderSlowestPerEndpointUpdates(t *testing.T) {
	rec := NewRecorder(2)
	tr := NewTracer(rec)
	retire(tr, "path", "a", DispOK, 5*time.Millisecond)
	retire(tr, "path", "b", DispOK, 50*time.Millisecond)
	retire(tr, "path", "c", DispOK, time.Millisecond)
	// Flush the main ring with other endpoints.
	retire(tr, "datasets", "d1", DispOK, time.Millisecond)
	retire(tr, "datasets", "d2", DispOK, time.Millisecond)

	snaps := rec.Snapshot(TraceFilter{Endpoint: "path"})
	if len(snaps) != 1 || snaps[0].ID != "b" {
		t.Fatalf("slowest path record = %+v, want only b (the 50ms trace)", snaps)
	}
}

// Same-ID duplicates (a trace held by both the ring and the retention
// tail) must appear once in a snapshot.
func TestRecorderSnapshotDedupes(t *testing.T) {
	rec := NewRecorder(8)
	tr := NewTracer(rec)
	retire(tr, "diameter", "dup", DispShed, time.Second)
	snaps := rec.Snapshot(TraceFilter{})
	if len(snaps) != 1 || snaps[0].ID != "dup" {
		t.Fatalf("snapshot = %+v, want exactly one dup trace", snaps)
	}
}

func TestRecorderSnapshotShape(t *testing.T) {
	rec := NewRecorder(4)
	tr := NewTracer(rec)
	tc := tr.Start("diameter")
	tc.SetID("shape-1")
	tc.Dataset = "synth"
	tc.Status = 504
	tc.Disposition = DispError
	tc.QueueNS, tc.ComputeNS, tc.EncodeNS = 10, 20, 30
	tc.DeadlineNS, tc.DeadlineUsedNS = 1000, 900
	tc.Bytes = 512
	tc.EventArg(TraceWrite, 512)
	tr.Finish(tc)

	snaps := rec.Snapshot(TraceFilter{Disposition: "error"})
	if len(snaps) != 1 {
		t.Fatalf("got %d snapshots, want 1", len(snaps))
	}
	s := snaps[0]
	if s.ID != "shape-1" || s.Endpoint != "diameter" || s.Dataset != "synth" ||
		s.Status != 504 || s.Disposition != "error" || s.Bytes != 512 ||
		s.QueueNS != 10 || s.ComputeNS != 20 || s.EncodeNS != 30 ||
		s.DeadlineNS != 1000 || s.DeadlineUsedNS != 900 {
		t.Fatalf("snapshot fields wrong: %+v", s)
	}
	if s.TotalNS <= 0 || s.StartUnixNS <= 0 {
		t.Fatalf("snapshot missing totals: %+v", s)
	}
	if len(s.Events) != 2 || s.Events[0].Kind != "start" ||
		s.Events[1].Kind != "write" || s.Events[1].Arg != 512 {
		t.Fatalf("snapshot events wrong: %+v", s.Events)
	}
}

// Concurrent tracing against one tracer/recorder must be race-clean and
// lose nothing from the retention tail.
func TestTracerConcurrentHammer(t *testing.T) {
	rec := NewRecorder(32)
	tr := NewTracer(rec)
	const goroutines, perG = 8, 200
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				tc := tr.Start("path")
				tc.Event(TraceAcquire)
				if i == 0 {
					tc.Disposition = DispError
				}
				tr.Finish(tc)
				if i%32 == 0 {
					rec.Snapshot(TraceFilter{Limit: 4})
				}
			}
		}(g)
	}
	wg.Wait()
	if errs := rec.Snapshot(TraceFilter{Disposition: "error"}); len(errs) < goroutines {
		t.Fatalf("retention kept %d error traces, want >= %d", len(errs), goroutines)
	}
	if rec.Len() != 32 {
		t.Fatalf("main ring holds %d, want full 32", rec.Len())
	}
}

func TestParseDisposition(t *testing.T) {
	for d := DispOK; d < numDispositions; d++ {
		got, ok := ParseDisposition(d.String())
		if !ok || got != d {
			t.Fatalf("ParseDisposition(%q) = %v, %v", d.String(), got, ok)
		}
	}
	if _, ok := ParseDisposition("bogus"); ok {
		t.Fatal("ParseDisposition accepted bogus")
	}
}
