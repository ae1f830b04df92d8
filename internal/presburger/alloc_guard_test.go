package presburger

import "testing"

// TestSimplifyDedupAllocBudget pins the allocation count of the clone +
// simplify hot path that BenchmarkSimplifyDedup measures. The slab clone,
// the pooled simplify scratch and in-place constraint normalization brought
// it to ~11 allocs/op; the budget of 16 leaves headroom for toolchain noise
// while failing loudly on a regression to per-vector allocation (hundreds
// per op). Skipped under the race detector and the haystackdebug invariant
// build, whose instrumentation allocates on its own.
func TestSimplifyDedupAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	if debugInvariants {
		t.Skip("invariant assertions allocate; budget holds for normal builds only")
	}
	proto := benchmarkBasic(64)
	allocs := testing.AllocsPerRun(200, func() {
		cl := proto.clone()
		if !cl.simplify() {
			panic("benchmark basic should stay feasible")
		}
	})
	if allocs > 16 {
		t.Errorf("clone+simplify = %.1f allocs/op, budget is 16", allocs)
	}
}

// TestDefinitelyEmptyAllocBudget pins the allocation count of
// DefinitelyEmpty on a div-bearing basic (BenchmarkDefinitelyEmpty). The
// copy, the elimination rows and the round headers come from pooled
// scratch, so what allocates in steady state is simplify's dedup maps and
// closures: 13 allocs/op, against 42 when every row and header was a heap
// allocation. The budget of 18 leaves headroom for toolchain noise.
// Skipped like the budgets above.
func TestDefinitelyEmptyAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	if debugInvariants {
		t.Skip("invariant assertions allocate; budget holds for normal builds only")
	}
	bs := BasicSet{space: NewSpace("S", "i", "j", "k"), b: *emptinessBasic()}
	allocs := testing.AllocsPerRun(200, func() {
		if bs.DefinitelyEmpty() {
			panic("emptinessBasic should stay feasible")
		}
	})
	if allocs > 18 {
		t.Errorf("DefinitelyEmpty = %.1f allocs/op, budget is 18", allocs)
	}
}

// rowKernelBasic is a basic over d0..d3 with the div floor((2d0 + 4d1 + 6)/2),
// which normalizeDivs reduces to the affine d0 + 2d1 + 3 and resolves, three
// constraints referencing that div, three that do not, and d3 unused.
func rowKernelBasic() *basic {
	b := &basic{ndim: 4}
	b.divs = []Div{{Num: Vec{6, 2, 4, 0, 0, 0}, Den: 2}}
	b.cons = []Constraint{
		{C: Vec{0, 1, 0, 0, 0, 0}},
		{C: Vec{9, -1, 0, 0, 0, 0}},
		{C: Vec{0, 0, 1, 0, 0, 0}},
		{C: Vec{-4, 0, 0, 1, 0, 1}},
		{C: Vec{20, 0, 0, -1, 0, -1}},
		{C: Vec{0, -1, 1, 2, 0, 1}, Eq: true},
	}
	return b
}

// rowKernelRewrites is the number of rows of rowKernelBasic that reference
// the div column, i.e. the rows resolving the div rewrites.
const rowKernelRewrites = 3

// TestRowKernelAllocBudgets pins the copy-free row kernels: reading a
// column (usesColumn, divUsesColumn) and dropping one (dropColumn, which
// compacts rows in place) allocate nothing, and resolving a div whose
// denominator reduces to 1 allocates at most one row per rewritten row.
// The basics are cloned before the measurement, so the clone's own
// allocations do not count.
func TestRowKernelAllocBudgets(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	if debugInvariants {
		t.Skip("invariant assertions allocate; budget holds for normal builds only")
	}
	const runs = 50
	proto := rowKernelBasic()
	clones := func() []basic {
		cls := make([]basic, runs+1) // AllocsPerRun makes one warm-up call
		for i := range cls {
			cls[i] = proto.clone()
		}
		return cls
	}
	used := false
	if a := testing.AllocsPerRun(runs, func() {
		used = proto.usesColumn(4) || proto.divUsesColumn(4)
	}); a != 0 {
		t.Errorf("usesColumn+divUsesColumn = %.1f allocs/op, want 0", a)
	}
	if used {
		t.Fatal("column 4 (d3) should be unused")
	}

	cls, next := clones(), 0
	if a := testing.AllocsPerRun(runs, func() {
		cls[next].dropColumn(4)
		next++
	}); a != 0 {
		t.Errorf("dropColumn = %.1f allocs/op, want 0", a)
	}
	if cls[0].ncols() != proto.ncols()-1 {
		t.Fatalf("dropColumn left %d columns, want %d", cls[0].ncols(), proto.ncols()-1)
	}

	cls, next = clones(), 0
	if a := testing.AllocsPerRun(runs, func() {
		cls[next].normalizeDivs()
		next++
	}); a > rowKernelRewrites {
		t.Errorf("normalizeDivs = %.1f allocs/op, budget is one per rewritten row (%d)", a, rowKernelRewrites)
	}
	if len(cls[0].divs) != 0 {
		t.Fatalf("normalizeDivs kept %d divs, want the div resolved", len(cls[0].divs))
	}
}
