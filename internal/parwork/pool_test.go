package parwork

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestIdleWorkerReportsZeroBusyTime is the regression test for the busy-time
// accounting bug: the timed runner used to report goroutine lifetime (claim
// overhead plus spin-down included), so a worker that claimed nothing still
// showed the full wall time. With per-item accumulation an idle worker
// reports zero even while a sibling holds the only item for a while.
func TestIdleWorkerReportsZeroBusyTime(t *testing.T) {
	const hold = 50 * time.Millisecond
	p := NewPool(4)
	defer p.Close()
	times, err := p.RunGroupTimed(context.Background(), 1, func(_ *Worker, item int) error {
		time.Sleep(hold)
		return nil
	})
	if err != nil {
		t.Fatalf("RunGroupTimed: %v", err)
	}
	if len(times) != 4 {
		t.Fatalf("expected 4 worker slots, got %d", len(times))
	}
	busy, idle := 0, 0
	for _, d := range times {
		switch {
		case d >= hold/2:
			busy++
		case d == 0:
			idle++
		}
	}
	if busy != 1 || idle != 3 {
		t.Errorf("want one busy worker (>= %v) and three at zero, got times=%v", hold/2, times)
	}

	// More items than one, but one giant item and several trivial ones
	// across 4 workers. The workers that only ran trivial items must report
	// far less than the giant item's duration.
	times, err = p.RunGroupTimed(context.Background(), 4, func(_ *Worker, item int) error {
		if item == 0 {
			time.Sleep(hold)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("RunGroupTimed: %v", err)
	}
	small := 0
	for _, d := range times {
		if d < hold/4 {
			small++
		}
	}
	if small < 3 {
		t.Errorf("expected >=3 workers with busy time < %v (per-item accounting), got times=%v", hold/4, times)
	}
}

// TestPoolRunGroupVisitsEveryItemOnce exercises the pool API directly.
func TestPoolRunGroupVisitsEveryItemOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 8} {
		p := NewPool(workers)
		const n = 200
		var counts [n]atomic.Int32
		err := p.RunGroup(context.Background(), n, func(w *Worker, item int) error {
			if w.ID() < 0 || w.ID() >= workers {
				t.Errorf("worker id %d out of range [0,%d)", w.ID(), workers)
			}
			counts[item].Add(1)
			return nil
		})
		p.Close()
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range counts {
			if got := counts[i].Load(); got != 1 {
				t.Fatalf("workers=%d: item %d ran %d times", workers, i, got)
			}
		}
	}
}

// TestNestedGroupsSplitAndSteal drives the splittable-item path: top-level
// items spawn nested groups from inside the pool, and with more workers than
// top-level items the nested items must fan out to otherwise-idle workers
// (observable as steals). Also asserts help-on-wait does not deadlock at any
// worker count, including workers=1.
func TestNestedGroupsSplitAndSteal(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		p := NewPool(workers)
		const outer, inner = 2, 64
		var total atomic.Int64
		workerSeen := make([]atomic.Int32, workers)
		err := p.RunGroup(context.Background(), outer, func(w *Worker, oi int) error {
			return w.RunGroup(context.Background(), inner, func(sw *Worker, ii int) error {
				workerSeen[sw.ID()].Add(1)
				time.Sleep(100 * time.Microsecond)
				total.Add(int64(oi*inner + ii))
				return nil
			})
		})
		stats := p.PoolStats()
		p.Close()
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		want := int64(0)
		for oi := 0; oi < outer; oi++ {
			for ii := 0; ii < inner; ii++ {
				want += int64(oi*inner + ii)
			}
		}
		if got := total.Load(); got != want {
			t.Fatalf("workers=%d: sum %d, want %d", workers, got, want)
		}
		if stats.Splits != outer {
			t.Errorf("workers=%d: splits=%d, want %d", workers, stats.Splits, outer)
		}
		if workers > 2 {
			// 2 top-level items on >2 workers: nested items can only reach
			// the extra workers by stealing.
			if stats.Steals == 0 {
				t.Errorf("workers=%d: expected steals > 0 with %d top-level items", workers, outer)
			}
			busy := 0
			for i := range workerSeen {
				if workerSeen[i].Load() > 0 {
					busy++
				}
			}
			if busy <= outer {
				t.Errorf("workers=%d: only %d workers ran nested items; stealing should engage more than the %d spawners", workers, busy, outer)
			}
		}
	}
}

// TestPanicIdentitySurvivesSteal pins the panic contract on the steal path:
// a nested item that panics after being stolen by another worker must still
// surface as a *PanicError carrying the item's group-relative index.
func TestPanicIdentitySurvivesSteal(t *testing.T) {
	const badItem = 37
	for attempt := 0; attempt < 10; attempt++ {
		p := NewPool(4)
		var spawner atomic.Int32
		var runner atomic.Int32
		err := p.RunGroup(context.Background(), 1, func(w *Worker, _ int) error {
			spawner.Store(int32(w.ID()))
			return w.RunGroup(context.Background(), 64, func(sw *Worker, ii int) error {
				if ii == badItem {
					runner.Store(int32(sw.ID()))
					panic("stolen kaboom")
				}
				time.Sleep(50 * time.Microsecond)
				return nil
			})
		})
		stolen := runner.Load() != spawner.Load()
		p.Close()
		if err == nil {
			t.Fatal("expected error from panicking nested item")
		}
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("expected *PanicError, got %T: %v", err, err)
		}
		if pe.Item != badItem {
			t.Fatalf("PanicError.Item = %d, want %d (identity must survive steals)", pe.Item, badItem)
		}
		if pe.Value != "stolen kaboom" || len(pe.Stack) == 0 {
			t.Fatalf("PanicError payload wrong: value=%v stackLen=%d", pe.Value, len(pe.Stack))
		}
		if pe.Worker != int(runner.Load()) {
			t.Fatalf("PanicError.Worker = %d, want executing worker %d", pe.Worker, runner.Load())
		}
		if stolen {
			return // saw a genuine steal of the panicking item: contract proven
		}
	}
	t.Log("panicking item never stolen in 10 attempts (legal scheduling); identity contract still held on the home worker")
}

// TestStressRandomizedSplits hammers the pool under -race: concurrent
// top-level groups, random nested splits up to depth 2, random panics and
// errors, random cancellations. Asserts no deadlock, no lost items on
// clean groups, and typed errors on dirty ones.
func TestStressRandomizedSplits(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	var wg sync.WaitGroup
	for round := 0; round < 8; round++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			mode := seed % 3 // 0: clean, 1: panic, 2: cancel
			ctx := context.Background()
			var cancel context.CancelFunc
			if mode == 2 {
				ctx, cancel = context.WithCancel(ctx)
				defer cancel()
			}
			n := 20 + rng.Intn(30)
			bad := rng.Intn(n)
			var ran atomic.Int64
			err := p.RunGroup(ctx, n, func(w *Worker, item int) error {
				ran.Add(1)
				if mode == 1 && item == bad {
					panic(item)
				}
				if mode == 2 && item == bad {
					cancel()
					return nil
				}
				if item%5 == 0 {
					// nested split; occasionally splits again one level down
					return w.RunGroup(ctx, 8, func(sw *Worker, ii int) error {
						if ii == 3 && item%10 == 0 {
							return sw.RunGroup(ctx, 4, func(*Worker, int) error { return nil })
						}
						return nil
					})
				}
				return nil
			})
			switch mode {
			case 0:
				if err != nil {
					t.Errorf("clean group: %v", err)
				}
				if got := ran.Load(); got != int64(n) {
					t.Errorf("clean group: ran %d of %d", got, n)
				}
			case 1:
				var pe *PanicError
				if err == nil {
					t.Error("panic group: no error")
				} else if errors.As(err, &pe) {
					if pe.Item != bad {
						t.Errorf("panic group: item %d, want %d", pe.Item, bad)
					}
				}
				// err may also be a nested group's error if scheduling made a
				// clean nested item fail first — impossible here since only
				// item `bad` fails; so any non-PanicError is a bug.
				if err != nil && pe == nil {
					t.Errorf("panic group: got %T, want *PanicError", err)
				}
			case 2:
				// the canceling item returns nil, so the only possible error
				// is the context's
				if err != nil && !errors.Is(err, context.Canceled) {
					t.Errorf("cancel group: %v", err)
				}
			}
		}(int64(round*7 + 1))
	}
	wg.Wait()
}

// TestCancellationLatencyNestedGroups mirrors core's
// TestCancellationMidAnalysis at the pool layer: cancelling while deeply
// nested groups are in flight must return promptly (workers observe ctx
// between items) and leave no stuck worker — Close returning proves drain.
func TestCancellationLatencyNestedGroups(t *testing.T) {
	p := NewPool(4)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	var started atomic.Bool
	go func() {
		done <- p.RunGroup(ctx, 1000, func(w *Worker, item int) error {
			started.Store(true)
			return w.RunGroup(ctx, 100, func(*Worker, int) error {
				time.Sleep(200 * time.Microsecond)
				return nil
			})
		})
	}()
	for !started.Load() {
		time.Sleep(time.Millisecond)
	}
	t0 := time.Now()
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("expected context.Canceled, got %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cancellation not observed within 2s")
	}
	if d := time.Since(t0); d > 2*time.Second {
		t.Fatalf("cancellation latency %v exceeds 2s", d)
	}
	closed := make(chan struct{})
	go func() { p.Close(); close(closed) }()
	select {
	case <-closed:
	case <-time.After(2 * time.Second):
		t.Fatal("pool workers did not drain after cancellation")
	}
}

// TestInlineExecNestedStaysInline checks the single-threaded executor: no
// goroutines, nested groups run inline, and timings land on worker 0.
func TestInlineExecNestedStaysInline(t *testing.T) {
	ex := InlineExec()
	if ex.Workers() != 1 {
		t.Fatalf("inline Workers() = %d", ex.Workers())
	}
	var order []int
	times, err := ex.RunGroupTimed(context.Background(), 3, func(w *Worker, i int) error {
		order = append(order, i) // safe: inline == same goroutine
		if i == 1 {
			return w.RunGroup(context.Background(), 2, func(_ *Worker, j int) error {
				order = append(order, 10+j)
				return nil
			})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(times) != 1 {
		t.Fatalf("inline times len = %d", len(times))
	}
	want := []int{0, 1, 10, 11, 2}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if st := ex.PoolStats(); st.Steals != 0 || st.Splits != 0 {
		t.Fatalf("inline PoolStats = %+v, want zeros", st)
	}
}

// TestGroupErrorLowestIndexWins: with several failing items in one group the
// reported error is the lowest-indexed one on every executor shape.
func TestGroupErrorLowestIndexWins(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	// All items fail; claims race, but whichever subset runs, the reported
	// error must be the smallest index among the items that actually ran —
	// and item claiming is in index order per group, so index 0 always runs.
	err := p.RunGroup(context.Background(), 50, func(_ *Worker, item int) error {
		return errors.New("fail")
	})
	if err == nil || err.Error() != "fail" {
		t.Fatalf("got %v", err)
	}
	// Deterministic variant through the inline path.
	errs := []error{nil, errors.New("b"), errors.New("a")}
	err = InlineExec().RunGroup(context.Background(), 3, func(_ *Worker, item int) error {
		return errs[item]
	})
	if err == nil || err.Error() != "b" {
		t.Fatalf("lowest-indexed error: got %v, want b", err)
	}
}

// TestCancelObservedByOwnClaimWakesSpawner is the deterministic schedule of
// the lost wakeup TestStressRandomizedSplits used to hit. A spawning worker
// waits for its nested group by claiming items itself; when its own claim
// is the one that observes the cancellation, skipping the unclaimed items
// completes the group and broadcasts before the worker parks. The worker
// must re-check its group instead of waiting for a broadcast that already
// happened. One worker makes the schedule deterministic: item 0 of the
// nested group cancels, so the next claim skips item 1 and finishes the
// group with nothing in flight.
func TestCancelObservedByOwnClaimWakesSpawner(t *testing.T) {
	p := NewPool(1)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		done <- p.RunGroup(ctx, 1, func(w *Worker, _ int) error {
			return w.RunGroup(ctx, 2, func(_ *Worker, item int) error {
				if item == 0 {
					cancel()
				}
				return nil
			})
		})
	}()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("want context.Canceled, got %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("spawning worker parked after its own claim completed the cancelled group")
	}
	p.Close()
}
