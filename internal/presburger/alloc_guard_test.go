package presburger

import "testing"

// TestSimplifyDedupAllocBudget pins the allocation count of the clone +
// simplify hot path that BenchmarkSimplifyDedup measures. The slab clone
// (one slab and two headers), in-place constraint normalization and the
// pooled dedup index and bound tracking bring it to 2 allocs/op, against 11
// with a map-backed dedup index; the budget of 4 leaves headroom for
// toolchain noise while failing loudly on a regression to per-hash or
// per-vector allocation. Skipped under the race detector and the
// haystackdebug invariant build, whose instrumentation allocates on its
// own.
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
	if allocs > 4 {
		t.Errorf("clone+simplify = %.1f allocs/op, budget is 4", allocs)
	}
}

// TestDefinitelyEmptyAllocBudget pins the allocation count of
// DefinitelyEmpty on a div-bearing basic (BenchmarkDefinitelyEmpty). The
// copy, the elimination rows, the round headers and simplify's dedup index
// all come from pooled scratch, so nothing allocates in steady state: 0
// allocs/op, against 13 with map-backed dedup and 42 when every row and
// header was a heap allocation. The budget of 3 leaves headroom for
// toolchain noise. Skipped like the budget above.
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
	if allocs > 3 {
		t.Errorf("DefinitelyEmpty = %.1f allocs/op, budget is 3", allocs)
	}
}

// TestApplyRangeAllocBudget pins the allocation count of one composition
// (BenchmarkApplyRange). embed transfers the divs first and then widens the
// existing rows and carves every transferred row from one slab: 18
// allocs/op, against 38 with a row per constraint and a widening per added
// div. The budget of 24 leaves headroom for toolchain noise. Skipped like
// the budgets above.
func TestApplyRangeAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	if debugInvariants {
		t.Skip("invariant assertions allocate; budget holds for normal builds only")
	}
	a, o := composeMaps()
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := a.ApplyRange(o); err != nil {
			panic(err)
		}
	})
	if allocs > 24 {
		t.Errorf("ApplyRange = %.1f allocs/op, budget is 24", allocs)
	}
}

// TestImpliedIneqAllocBudget pins the allocation count of the coalescer's
// implication test on emptinessBasic's system, one implied and one refuted
// row. The copy of the system, the negated row and every elimination row
// come from pooled scratch: 0 allocs/op, against 2 per test (the system
// copy and the negated row) from the heap. The budget of 1 leaves headroom
// for toolchain noise. Skipped like the budgets above.
func TestImpliedIneqAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	if debugInvariants {
		t.Skip("invariant assertions allocate; budget holds for normal builds only")
	}
	b := emptinessBasic()
	cons := b.materializedConstraints(nil)
	allocs := testing.AllocsPerRun(200, func() {
		if !impliedIneq(cons, cons[0].C, 1, b.ncols()) || impliedIneq(cons, cons[0].C, -1, b.ncols()) {
			panic("i >= 0 is implied by emptinessBasic and i <= 0 is not")
		}
	})
	if allocs > 1 {
		t.Errorf("impliedIneq = %.1f allocs/op, budget is 1", allocs)
	}
}

// TestCoalesceEntriesAllocBudget pins the allocation count of the syntactic
// coalescer on coalesceFamily (BenchmarkCoalesceEntries). An entry's
// constraint index is one sorted slice of indices, and the differing
// constraints of a pair go to stack buffers: 59 allocs/op, against 208 with
// a map of per-hash index lists per entry. The budget of 72 leaves headroom
// for toolchain noise. Skipped like the budgets above.
func TestCoalesceEntriesAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	if debugInvariants {
		t.Skip("invariant assertions allocate; budget holds for normal builds only")
	}
	fam := coalesceFamily()
	allocs := testing.AllocsPerRun(200, func() {
		if len(fam.coalesce(false)) != 1 {
			panic("coalesceFamily should coalesce to its bounding box")
		}
	})
	if allocs > 72 {
		t.Errorf("union.coalesce = %.1f allocs/op, budget is 72", allocs)
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

// TestIntersectAllocBudget pins the allocation count of one intersection of
// basics (BasicSet.Intersect, the meet of every union intersection):
// emptinessBasic constrained by a div-free box. The copy of the first
// operand is made with header room for the second operand's rows, so
// embedding them reuses it: 6 allocs/op, against 7 when the exactly sized
// header was grown by the append. The budget of 6 has no headroom because
// the regression it guards is that one allocation. Skipped like the
// budgets above.
func TestIntersectAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	if debugInvariants {
		t.Skip("invariant assertions allocate; budget holds for normal builds only")
	}
	sp := NewSpace("S", "i", "j", "k")
	a := BasicSet{space: sp, b: *emptinessBasic()}
	box := BasicSet{space: sp, b: basic{ndim: 3, cons: []Constraint{
		{C: Vec{-2, 1, 0, 0}},  // i >= 2
		{C: Vec{20, 0, -1, 0}}, // j <= 20
		{C: Vec{-1, 0, 0, 1}},  // k >= 1
		{C: Vec{30, 0, 0, -1}}, // k <= 30
	}}}
	allocs := testing.AllocsPerRun(200, func() {
		if len(a.Intersect(box).b.cons) != len(a.b.cons)+len(box.b.cons) {
			panic("intersection must keep every row of both operands")
		}
	})
	if allocs > 6 {
		t.Errorf("Intersect = %.1f allocs/op, budget is 6", allocs)
	}
}
