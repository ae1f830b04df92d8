package core

import (
	"context"
	"runtime"
	"testing"
	"time"

	"haystack/internal/budget"
	"haystack/internal/polybench"
)

// TestBoundedSandwichAllKernels forces the bounded tier on every registered
// PolyBench kernel with a one-cost-unit budget — small enough that every
// symbolic counting operation degrades — and checks the certified sandwich
// against the exact reference simulation: for every cache level the interval
// bounds must contain the exact counts (Lo <= exact <= Hi), and the reported
// per-level bound widths must match the intervals. This is the soundness
// guarantee of the degradation ladder: no budget, however hostile, may move
// the exact answer outside the certified bounds.
func TestBoundedSandwichAllKernels(t *testing.T) {
	cfg := DefaultConfig()
	opts := DefaultOptions()
	opts.Mode = ModeBounded
	opts.Budget = 1
	for _, k := range polybench.Kernels() {
		k := k
		t.Run(k.Name, func(t *testing.T) {
			// The lexmax half of the distance phase still runs at full cost
			// in bounded mode; only the counting side degrades. Budget like
			// the exact conformance tier.
			requireBudget(t, 2*miniEstimate(k.Name))
			prog := k.Build(polybench.Mini)
			res, err := Analyze(prog, cfg, opts)
			if err != nil {
				t.Fatalf("bounded Analyze: %v", err)
			}
			ref, err := SimulateReference(prog, cfg)
			if err != nil {
				t.Fatalf("SimulateReference: %v", err)
			}
			if res.UsedTraceFallback {
				t.Fatalf("bounded mode must not fall back to trace profiling (%s)", res.FallbackReason)
			}
			if res.TotalAccesses != ref.TotalAccesses {
				t.Errorf("total accesses: model %d, reference %d", res.TotalAccesses, ref.TotalAccesses)
			}
			if !res.CompulsoryBounds.Contains(ref.CompulsoryMisses) {
				t.Errorf("compulsory bounds %v do not contain exact %d", res.CompulsoryBounds, ref.CompulsoryMisses)
			}
			degraded := !res.CompulsoryBounds.IsExact()
			for l, lvl := range res.Levels {
				refCap := ref.TotalMisses[l] - ref.CompulsoryMisses
				if !lvl.CapacityMissBounds.Contains(refCap) {
					t.Errorf("L%d capacity bounds %v do not contain exact %d", l+1, lvl.CapacityMissBounds, refCap)
				}
				if !lvl.TotalMissBounds.Contains(ref.TotalMisses[l]) {
					t.Errorf("L%d total bounds %v do not contain exact %d", l+1, lvl.TotalMissBounds, ref.TotalMisses[l])
				}
				if got, want := res.Stats.BoundWidth[l], lvl.TotalMissBounds.Width(); got != want {
					t.Errorf("L%d Stats.BoundWidth %d, interval width %d", l+1, got, want)
				}
				if lvl.TotalMissBounds.Width() > 0 {
					degraded = true
				}
			}
			if degraded && res.Tier != TierBounded {
				t.Errorf("non-zero bound widths but tier %s (want %s)", res.Tier, TierBounded)
			}
			if degraded && res.FallbackReason == "" {
				t.Error("degraded result carries no provenance (FallbackReason empty)")
			}
		})
	}
}

// TestBoundedAmpleBudgetIsExact checks the other end of the ladder: in
// bounded mode with an ample (unlimited) budget nothing degrades, the tier
// stays exact, every bound width is zero, and the counts are bit-identical
// to a default exact-mode analysis.
func TestBoundedAmpleBudgetIsExact(t *testing.T) {
	cfg := DefaultConfig()
	for _, name := range []string{"gemm", "trmm"} {
		name := name
		t.Run(name, func(t *testing.T) {
			requireBudget(t, 3*miniEstimate(name))
			k, ok := polybench.ByName(name)
			if !ok {
				t.Fatalf("unknown kernel %q", name)
			}
			prog := k.Build(polybench.Mini)
			exact, err := Analyze(prog, cfg, DefaultOptions())
			if err != nil {
				t.Fatalf("exact Analyze: %v", err)
			}
			opts := DefaultOptions()
			opts.Mode = ModeBounded
			res, err := Analyze(prog, cfg, opts)
			if err != nil {
				t.Fatalf("bounded Analyze: %v", err)
			}
			if res.Tier != TierExact {
				t.Errorf("tier %s, want %s (ample budget must not degrade)", res.Tier, TierExact)
			}
			if !res.CompulsoryBounds.IsExact() || res.CompulsoryBounds.Lo != exact.CompulsoryMisses {
				t.Errorf("compulsory bounds %v, want exact %d", res.CompulsoryBounds, exact.CompulsoryMisses)
			}
			for l, lvl := range res.Levels {
				want := exact.Levels[l]
				if lvl.TotalMisses != want.TotalMisses || lvl.CapacityMisses != want.CapacityMisses {
					t.Errorf("L%d: bounded mode %d/%d misses, exact mode %d/%d",
						l+1, lvl.CapacityMisses, lvl.TotalMisses, want.CapacityMisses, want.TotalMisses)
				}
				if w := lvl.TotalMissBounds.Width(); w != 0 {
					t.Errorf("L%d: bound width %d under ample budget, want 0", l+1, w)
				}
				if res.Stats.BoundWidth[l] != 0 {
					t.Errorf("L%d: Stats.BoundWidth %d under ample budget, want 0", l+1, res.Stats.BoundWidth[l])
				}
			}
		})
	}
}

// TestBoundedAdiNoTraceFallback is the acceptance check for the kernel that
// motivated the bounded tier: adi's previous-access lexmax leaves the
// supported fragment, so exact mode answers it from the trace profile. In
// bounded mode the model must answer symbolically — no trace fallback — with
// a certified interval that contains the exact counts and an exact
// compulsory count (the compulsory phase is unaffected by the lexmax
// failure).
func TestBoundedAdiNoTraceFallback(t *testing.T) {
	requireBudget(t, 3*miniEstimate("adi"))
	k, ok := polybench.ByName("adi")
	if !ok {
		t.Fatal("adi kernel not registered")
	}
	cfg := DefaultConfig()
	prog := k.Build(polybench.Mini)
	opts := DefaultOptions()
	opts.Mode = ModeBounded
	res, err := Analyze(prog, cfg, opts)
	if err != nil {
		t.Fatalf("bounded Analyze: %v", err)
	}
	if res.UsedTraceFallback {
		t.Fatalf("bounded mode fell back to trace profiling (%s)", res.FallbackReason)
	}
	if res.Tier != TierBounded {
		t.Errorf("tier %s, want %s", res.Tier, TierBounded)
	}
	if res.FallbackReason == "" {
		t.Error("degradation provenance missing (FallbackReason empty)")
	}
	ref, err := SimulateReference(prog, cfg)
	if err != nil {
		t.Fatalf("SimulateReference: %v", err)
	}
	if !res.CompulsoryBounds.IsExact() || res.CompulsoryBounds.Lo != ref.CompulsoryMisses {
		t.Errorf("compulsory bounds %v, want exact %d", res.CompulsoryBounds, ref.CompulsoryMisses)
	}
	for l, lvl := range res.Levels {
		if !lvl.TotalMissBounds.Contains(ref.TotalMisses[l]) {
			t.Errorf("L%d total bounds %v do not contain exact %d", l+1, lvl.TotalMissBounds, ref.TotalMisses[l])
		}
	}
}

// TestBoundedHugeGemmNoOverflow pins the int64 overflow fixes of the
// counting layer: at a 2^20 problem size the distance polynomials carry
// coefficients around n^2, and the cross products of the symbolic counter
// (residue periods, bound-pair differences, RangeOnBox term products) leave
// int64. These used to wrap silently or panic; they must now degrade to the
// bounded tier via the checked-multiply helpers, so a huge-parameter gemm
// analysis completes with certified, sane intervals. The budget is
// unlimited on purpose — only the overflow path may degrade here.
func TestBoundedHugeGemmNoOverflow(t *testing.T) {
	const n = int64(1) << 20
	prog := gemm(n)
	opts := DefaultOptions()
	opts.Mode = ModeBounded
	cfg := Config{LineSize: 64, CacheSizes: []int64{32 * 1024, 1 << 20}}
	res, err := Analyze(prog, cfg, opts)
	if err != nil {
		t.Fatalf("bounded Analyze of gemm(2^20): %v", err)
	}
	wantAccesses := 4*n*n*n + 2*n*n
	if res.TotalAccesses != wantAccesses {
		t.Errorf("total accesses %d, want %d", res.TotalAccesses, wantAccesses)
	}
	if res.UsedTraceFallback {
		t.Fatalf("huge gemm fell back to trace profiling (%s)", res.FallbackReason)
	}
	if !res.CompulsoryBounds.Contains(res.CompulsoryMisses) ||
		res.CompulsoryBounds.Lo < 0 || res.CompulsoryBounds.Hi > res.TotalAccesses {
		t.Errorf("compulsory bounds %v invalid (point %d, accesses %d)",
			res.CompulsoryBounds, res.CompulsoryMisses, res.TotalAccesses)
	}
	for l, lvl := range res.Levels {
		b := lvl.CapacityMissBounds
		if b.Lo < 0 || b.Hi < b.Lo || b.Hi > res.TotalAccesses {
			t.Errorf("L%d capacity bounds %v invalid (accesses %d)", l+1, b, res.TotalAccesses)
		}
		if lvl.CapacityMisses < 0 || lvl.CapacityMisses != b.Hi {
			t.Errorf("L%d capacity point %d does not match bound hi %v", l+1, lvl.CapacityMisses, b)
		}
		tb := lvl.TotalMissBounds
		if tb.Lo < res.CompulsoryBounds.Lo || tb.Hi > res.TotalAccesses || tb.Hi < tb.Lo {
			t.Errorf("L%d total bounds %v invalid (compulsory %v, accesses %d)",
				l+1, tb, res.CompulsoryBounds, res.TotalAccesses)
		}
		for stmt, v := range lvl.PerStatementCapacity {
			if v < 0 {
				t.Errorf("L%d per-statement capacity of %s negative: %d", l+1, stmt, v)
			}
		}
	}
}

// waitGoroutines polls until the goroutine count drops back to at most
// base+slack or the timeout elapses, returning the last observed count.
// Analysis workers exit asynchronously after a cancellation is returned, so
// the count needs a grace period before it is meaningful.
func waitGoroutines(base, slack int, timeout time.Duration) int {
	deadline := time.Now().Add(timeout)
	n := runtime.NumGoroutine()
	for n > base+slack && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

// TestCancellationMidAnalysis cancels an expensive analysis shortly after it
// starts — once via an explicit context cancel, once via Options.Deadline —
// and requires a typed cancellation error well within two seconds and no
// leaked worker goroutines. This is the third rung of the robustness ladder:
// full cancellation, with panics in workers recovered as typed errors (see
// parwork) rather than tearing the process down.
func TestCancellationMidAnalysis(t *testing.T) {
	requireBudget(t, 15*time.Second)
	k, ok := polybench.ByName("heat-3d")
	if !ok {
		t.Fatal("heat-3d kernel not registered")
	}
	cfg := DefaultConfig()
	prog := k.Build(polybench.Mini)

	run := func(t *testing.T, ctx context.Context, opts Options) {
		t.Helper()
		base := runtime.NumGoroutine()
		start := time.Now()
		res, err := AnalyzeContext(ctx, prog, cfg, opts)
		elapsed := time.Since(start)
		if err == nil {
			t.Fatalf("analysis completed (tier %s) despite cancellation", res.Tier)
		}
		if !budget.IsCancellation(err) {
			t.Fatalf("error is not a typed cancellation: %v", err)
		}
		if elapsed > 2*time.Second {
			t.Errorf("cancellation took %v, want under 2s", elapsed)
		}
		if n := waitGoroutines(base, 2, 2*time.Second); n > base+2 {
			t.Errorf("goroutine leak after cancellation: %d running, baseline %d", n, base)
		}
	}

	t.Run("context-cancel", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			time.Sleep(150 * time.Millisecond)
			cancel()
		}()
		defer cancel()
		run(t, ctx, DefaultOptions())
	})
	t.Run("options-deadline", func(t *testing.T) {
		opts := DefaultOptions()
		opts.Deadline = 150 * time.Millisecond
		run(t, context.Background(), opts)
	})
}
