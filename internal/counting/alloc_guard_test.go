package counting

import (
	"testing"

	"haystack/internal/polybench"
	"haystack/internal/presburger"
	"haystack/internal/scop"
)

// gemmCapacityPiece builds a capacity-miss piece the way the fully
// associative model does: the iteration domain of gemm's update statement
// at MINI size (i < 20, j < 25, k < 30) intersected with an affine stack
// distance over the cache line of A[i][k] (8 elements per line), here
// j + floor((30i + k)/8), exceeding a capacity of 40 lines.
func gemmCapacityPiece(tb testing.TB) presburger.BasicSet {
	k, ok := polybench.ByName("gemm")
	if !ok {
		tb.Fatal("gemm not found")
	}
	info, err := scop.BuildPoly(k.Build(polybench.Mini))
	if err != nil {
		tb.Fatalf("BuildPoly(gemm): %v", err)
	}
	var dom presburger.BasicSet
	found := false
	for _, st := range info.Statements {
		if bs := st.Domain.Basics(); len(bs) == 1 && bs[0].NDim() == 3 {
			dom, found = bs[0], true
			break
		}
	}
	if !found {
		tb.Fatal("gemm has no three-dimensional statement")
	}
	line := presburger.NewVec(dom.NCols())
	line[1], line[3] = 30, 1 // 30i + k
	piece, col := dom.AddDiv(line, 8)
	dist := presburger.NewVec(piece.NCols())
	dist[0], dist[2], dist[col] = -41, 1, 1 // j + line - 41 >= 0
	return piece.AddConstraint(presburger.Constraint{C: dist})
}

// TestCountCapacityPieceAllocBudget pins the allocation count of counting
// one capacity-miss piece: residue splitting, equality elimination and
// bound summation over rows that are read in place and rewritten at most
// once. Skipped under the race detector and the haystackdebug invariant
// build, whose instrumentation allocates on its own.
func TestCountCapacityPieceAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	if presburger.DebugInvariantsEnabled() {
		t.Skip("invariant assertions allocate; budget holds for normal builds only")
	}
	piece := gemmCapacityPiece(t)
	want, err := piece.CountByScan()
	if err != nil {
		t.Fatal(err)
	}
	var n int64
	allocs := testing.AllocsPerRun(5, func() {
		var err error
		if n, err = countBasicSet(piece, nil); err != nil {
			t.Fatal(err)
		}
	})
	if n != want {
		t.Fatalf("countBasicSet = %d, scan counts %d", n, want)
	}
	// Measured at about 29.7k allocations; the budget leaves headroom for
	// toolchain noise.
	if allocs > 36000 {
		t.Errorf("countBasicSet = %.0f allocs/op, budget is 36000", allocs)
	}
}
