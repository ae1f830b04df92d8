package presburger_test

import (
	"testing"

	"haystack/internal/presburger"
)

// TestRowOpsMatchReferenceOnSimplifySeeds runs the differential oracle of
// the copy-free row kernels (rowops_test.go) on every basic set of the
// FuzzSimplify seed corpus.
func TestRowOpsMatchReferenceOnSimplifySeeds(t *testing.T) {
	for i, data := range setSeeds(t) {
		ndim, rest, ok := decodeDims(data)
		if !ok {
			continue
		}
		if err := presburger.DiffRowOps(decodeBasicSet(ndim, rest)); err != nil {
			t.Errorf("seed %d: %v", i, err)
		}
	}
}

// TestPredicatesMatchReferenceOnSimplifySeeds runs the heap oracle of the
// pooled-scratch emptiness and Fourier–Motzkin checks (predicates_test.go)
// on every basic set of the FuzzSimplify seed corpus.
func TestPredicatesMatchReferenceOnSimplifySeeds(t *testing.T) {
	for i, data := range setSeeds(t) {
		ndim, rest, ok := decodeDims(data)
		if !ok {
			continue
		}
		if err := presburger.DiffPredicates(decodeBasicSet(ndim, rest)); err != nil {
			t.Errorf("seed %d: %v", i, err)
		}
	}
}

// TestSetOperationsLeaveInputRows checks the ownership rule from the
// outside: operations that return a new basic set work on a clone and never
// write to the rows of their input, even though the kernels under them
// rewrite rows in place.
func TestSetOperationsLeaveInputRows(t *testing.T) {
	for i, data := range setSeeds(t) {
		ndim, rest, ok := decodeDims(data)
		if !ok {
			continue
		}
		bs := decodeBasicSet(ndim, rest)
		want := bs.String()
		divs, cons := bs.Divs(), bs.Constraints()
		bs.Simplify()
		bs.RemoveRedundancies()
		bs.ProjectOutApprox(0, 1)
		bs.ProjectOut(ndim-1, 1) // may leave the supported fragment; only the input matters
		bs.Subtract(bs.FixDim(0, 1))
		bs.Gist(presburger.UniverseBasicSet(bs.Space()))
		if got := bs.String(); got != want {
			t.Errorf("seed %d: input changed from %s to %s", i, want, got)
		}
		if !presburger.NewBasicSet(bs.Space(), divs, cons).StructurallyEqual(bs) {
			t.Errorf("seed %d: input rows changed: %v", i, bs)
		}
	}
}
