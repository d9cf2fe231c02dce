package server

import (
	"context"
	"errors"
	"testing"
	"time"
)

func TestAdmissionFastPath(t *testing.T) {
	a := newAdmission(2, 2, time.Second)
	if err := a.acquire(nil, nil); err != nil {
		t.Fatalf("acquire: %v", err)
	}
	if err := a.acquire(nil, nil); err != nil {
		t.Fatalf("second acquire: %v", err)
	}
	a.release()
	a.release()
	if err := a.acquire(context.Background(), nil); err != nil {
		t.Fatalf("acquire after release: %v", err)
	}
	a.release()
}

// waitQueued polls until exactly n requests are parked in the wait
// queue — the deterministic handshake the overload tests build on.
func waitQueued(t *testing.T, a *admission, n int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for a.waiting.Load() != n {
		if time.Now().After(deadline) {
			t.Fatalf("queue never reached %d waiters (at %d)", n, a.waiting.Load())
		}
		time.Sleep(time.Millisecond)
	}
}

func TestAdmissionQueueFullShed(t *testing.T) {
	a := newAdmission(1, 1, time.Minute)
	if err := a.acquire(nil, nil); err != nil {
		t.Fatal(err)
	}
	queued := make(chan error, 1)
	go func() { queued <- a.acquire(context.Background(), nil) }()
	waitQueued(t, a, 1)
	err := a.acquire(context.Background(), nil)
	var she *shedError
	if !errors.As(err, &she) || she.reason != "queue-full" {
		t.Fatalf("overflow acquire: err = %v, want queue-full shed", err)
	}
	a.release() // admits the queued waiter
	if err := <-queued; err != nil {
		t.Fatalf("queued acquire: %v", err)
	}
	a.release()
}

func TestAdmissionQueueWaitShed(t *testing.T) {
	a := newAdmission(1, 4, 30*time.Millisecond)
	if err := a.acquire(nil, nil); err != nil {
		t.Fatal(err)
	}
	defer a.release()
	err := a.acquire(context.Background(), nil)
	var she *shedError
	if !errors.As(err, &she) || she.reason != "queue-wait" {
		t.Fatalf("err = %v, want queue-wait shed", err)
	}
}

func TestAdmissionDeadlineWhileQueued(t *testing.T) {
	a := newAdmission(1, 4, time.Minute)
	if err := a.acquire(nil, nil); err != nil {
		t.Fatal(err)
	}
	defer a.release()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := a.acquire(ctx, nil); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}
