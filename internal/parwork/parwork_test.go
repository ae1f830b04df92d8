package parwork

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
)

// runN runs fn over n items on a fresh executor of the given parallelism,
// the way one-shot callers use the package.
func runN(ctx context.Context, n, workers int, fn GroupFunc) error {
	ex, release := NewExec(workers)
	defer release()
	return ex.RunGroup(ctx, n, fn)
}

func TestRunVisitsEveryItemOnce(t *testing.T) {
	for _, workers := range []int{1, 3, 16} {
		n := 100
		visits := make([]int32, n)
		err := runN(context.Background(), n, workers, func(_ *Worker, item int) error {
			atomic.AddInt32(&visits[item], 1)
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, v := range visits {
			if v != 1 {
				t.Fatalf("workers=%d: item %d visited %d times", workers, i, v)
			}
		}
	}
}

func TestRunReturnsLowestIndexedError(t *testing.T) {
	boom := errors.New("boom")
	err := runN(context.Background(), 10, 1, func(_ *Worker, item int) error {
		if item >= 4 {
			return fmt.Errorf("item %d: %w", item, boom)
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("error not propagated: %v", err)
	}
	if got, want := err.Error(), "item 4: boom"; got != want {
		t.Fatalf("sequential run must fail at the first failing item: got %q, want %q", got, want)
	}
}

func TestRunStopsClaimingAfterFailure(t *testing.T) {
	var ran atomic.Int32
	err := runN(context.Background(), 1000, 2, func(_ *Worker, item int) error {
		ran.Add(1)
		return errors.New("fail fast")
	})
	if err == nil {
		t.Fatal("expected an error")
	}
	if n := ran.Load(); n > 2 {
		t.Fatalf("pool kept claiming items after failure: %d ran", n)
	}
}

func TestRunTimedReportsPerWorkerTimes(t *testing.T) {
	p := NewPool(3)
	defer p.Close()
	workerSeen := make([]int32, 3)
	times, err := p.RunGroupTimed(context.Background(), 30, func(w *Worker, item int) error {
		atomic.AddInt32(&workerSeen[w.ID()], 1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(times) != 3 {
		t.Fatalf("times = %v, want 3 entries", times)
	}
	var total int32
	for _, n := range workerSeen {
		total += n
	}
	if total != 30 {
		t.Fatalf("items processed = %d, want 30", total)
	}
}

// TestRunClampsWorkers: worker counts below one clamp to a single worker,
// and worker ids stay within [0, Workers()) whatever the item count.
func TestRunClampsWorkers(t *testing.T) {
	for _, workers := range []int{-3, 0, 1} {
		ex, release := NewExec(workers)
		times, err := ex.RunGroupTimed(context.Background(), 2, func(w *Worker, item int) error { return nil })
		release()
		if err != nil {
			t.Fatal(err)
		}
		if ex.Workers() != 1 || len(times) != 1 {
			t.Fatalf("NewExec(%d): %d workers, %d time slots, want 1", workers, ex.Workers(), len(times))
		}
	}
	p := NewPool(-1)
	if p.Workers() != 1 {
		t.Fatalf("NewPool(-1) has %d workers, want 1", p.Workers())
	}
	p.Close()

	ex, release := NewExec(16)
	defer release()
	times, err := ex.RunGroupTimed(context.Background(), 2, func(w *Worker, item int) error {
		if w.ID() < 0 || w.ID() >= 16 {
			return fmt.Errorf("worker id %d out of range", w.ID())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(times) != 16 {
		t.Fatalf("expected one time slot per pool worker, got %d", len(times))
	}
}

func TestRunZeroItems(t *testing.T) {
	for _, workers := range []int{1, 4} {
		if err := runN(context.Background(), 0, workers, func(*Worker, int) error { return errors.New("must not run") }); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
	}
}

func TestPanicRecoveredAsTypedError(t *testing.T) {
	for _, workers := range []int{1, 4} {
		var ran atomic.Int32
		err := runN(context.Background(), 100, workers, func(_ *Worker, item int) error {
			ran.Add(1)
			if item == 7 {
				panic("kaboom")
			}
			return nil
		})
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: want *PanicError, got %T: %v", workers, err, err)
		}
		if pe.Item != 7 || pe.Value != "kaboom" {
			t.Fatalf("workers=%d: bad panic identity: %+v", workers, pe)
		}
		if len(pe.Stack) == 0 {
			t.Fatalf("workers=%d: panic error must carry the stack", workers)
		}
		if workers > 1 && ran.Load() == 100 {
			t.Fatalf("workers=%d: siblings kept claiming after the panic", workers)
		}
	}
}

func TestPanicDoesNotMaskLowerIndexedError(t *testing.T) {
	boom := errors.New("boom")
	err := runN(context.Background(), 10, 1, func(_ *Worker, item int) error {
		if item == 3 {
			return boom
		}
		if item > 3 {
			panic("must not run past the failure")
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("got %v, want the plain error", err)
	}
}

func TestRunCtxObservesCancellation(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		var ran atomic.Int32
		err := runN(ctx, 10000, workers, func(_ *Worker, item int) error {
			if ran.Add(1) == 3 {
				cancel()
			}
			return nil
		})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: want context.Canceled, got %v", workers, err)
		}
		if n := ran.Load(); n > int32(3+workers) {
			t.Fatalf("workers=%d: pool claimed %d items after cancellation", workers, n)
		}
	}
}

// TestRunCtxNilSafeDefaults: a nil context means context.Background() on
// every executor shape.
func TestRunCtxNilSafeDefaults(t *testing.T) {
	for _, workers := range []int{1, 2} {
		ex, release := NewExec(workers)
		//lint:ignore SA1012 the nil context is the case under test
		if err := ex.RunGroup(nil, 5, func(*Worker, int) error { return nil }); err != nil {
			t.Fatal(err)
		}
		//lint:ignore SA1012 the nil context is the case under test
		if _, err := ex.RunGroupTimed(nil, 5, func(*Worker, int) error { return nil }); err != nil {
			t.Fatal(err)
		}
		release()
	}
}
