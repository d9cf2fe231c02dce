package analysis

import (
	"context"
	"errors"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"opportunet/internal/core"
)

// toggleCtx is a context whose cancellation can be switched on and off,
// letting a test cancel a Study mid-aggregation and then verify the
// incomplete values were not cached. Only Err() is consulted.
type toggleCtx struct{ cancelled atomic.Bool }

func (c *toggleCtx) Err() error {
	if c.cancelled.Load() {
		return context.Canceled
	}
	return nil
}

func (c *toggleCtx) Deadline() (time.Time, bool) { return time.Time{}, false }
func (c *toggleCtx) Done() <-chan struct{}       { return nil }
func (c *toggleCtx) Value(any) any               { return nil }

// TestNewStudyCancelled: study construction under a cancelled context
// fails with context.Canceled at every worker count.
func TestNewStudyCancelled(t *testing.T) {
	tr := parallelTestTrace(1, 20, 800)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, w := range []int{1, 8} {
		if _, err := NewStudy(tr, core.Options{Workers: w, Ctx: ctx}); !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", w, err)
		}
	}
}

// TestStudyCancelledAggregationsNotCached is the sticky-context
// contract: aggregations cut short by cancellation report Err() and
// leave no trace in the caches, so the same study computes correct
// values once the pressure is gone.
func TestStudyCancelledAggregationsNotCached(t *testing.T) {
	tr := parallelTestTrace(2, 20, 800)
	grid := []float64{50, 200, 1000, 4000}

	ref, err := NewStudy(tr, core.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	wantCDFs := ref.DelayCDFs([]int{1, 3}, grid)
	wantD, _ := ref.Diameter(0.05, grid)

	ctx := &toggleCtx{}
	st, err := NewStudy(tr, core.Options{Workers: 2, Ctx: ctx})
	if err != nil {
		t.Fatal(err)
	}
	ctx.cancelled.Store(true)
	if st.Err() == nil {
		t.Fatal("Err() nil under a cancelled context")
	}
	st.DelayCDFs([]int{1, 3}, grid) // incomplete, must not be cached
	st.Diameter(0.05, grid)
	if st.state.sorted != nil {
		t.Fatal("a cancelled archive sort was kept")
	}

	ctx.cancelled.Store(false)
	if st.Err() != nil {
		t.Fatal("Err() stuck after the context recovered")
	}
	if got := st.DelayCDFs([]int{1, 3}, grid); !reflect.DeepEqual(got, wantCDFs) {
		t.Fatal("cancelled aggregation polluted the curve cache")
	}
	if got, _ := st.Diameter(0.05, grid); got != wantD {
		t.Fatalf("Diameter after recovery = %d, want %d", got, wantD)
	}
}

// TestRandomRemovalCancelled: the removal study propagates cancellation
// as an error, identically at workers 1 and 8.
func TestRandomRemovalCancelled(t *testing.T) {
	tr := parallelTestTrace(3, 20, 800)
	grid := []float64{100, 1000}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, w := range []int{1, 8} {
		_, _, err := RandomRemovalStudy(tr, 0.5, 3, 7, core.Options{Workers: w, Ctx: ctx}, []int{1, 3}, grid, 0.05)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", w, err)
		}
	}
}

// TestSelfCheckCancelled: a cancelled self-check reports the
// cancellation, never a fabricated disagreement.
func TestSelfCheckCancelled(t *testing.T) {
	tr := parallelTestTrace(4, 15, 500)
	ctx := &toggleCtx{}
	st, err := NewStudy(tr, core.Options{Workers: 4, Ctx: ctx})
	if err != nil {
		t.Fatal(err)
	}
	ctx.cancelled.Store(true)
	if err := st.SelfCheck(3, 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	ctx.cancelled.Store(false)
	if err := st.SelfCheck(3, 1); err != nil {
		t.Fatalf("self-check after recovery: %v", err)
	}
}
