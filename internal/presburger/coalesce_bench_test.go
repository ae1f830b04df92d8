package presburger

import (
	"testing"
)

// benchmarkBasic builds a basic set shaped like the constraint systems the
// pipeline's composition frontiers produce: many constraints over a dozen
// columns, with duplicates and parallel (dominated) pairs mixed in.
func benchmarkBasic(ncons int) *basic {
	bb := newBasic(12)
	b := &bb
	for i := 0; i < ncons; i++ {
		c := Constraint{C: NewVec(b.ncols())}
		c.C[0] = int64(i % 7)
		for j := 1; j < b.ncols(); j++ {
			c.C[j] = int64((i*j)%5 - 2)
		}
		if i%3 == 0 {
			// Repeat an earlier constraint exactly (the duplicate case).
			c.C[0] = 0
		}
		b.cons = append(b.cons, c)
	}
	return b
}

// BenchmarkSimplifyDedup measures the constraint dedup hot path of
// basic.simplify, which runs at every composition frontier of the model
// (previously keyed on per-constraint strings; now on FNV hashes with
// structural verification).
func BenchmarkSimplifyDedup(b *testing.B) {
	proto := benchmarkBasic(64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cl := proto.clone()
		if !cl.simplify() {
			b.Fatal("benchmark basic should stay feasible")
		}
	}
}

// BenchmarkDropColumnSubstitute measures the row kernels of projection and
// div resolution on a clone: substituting a dimension away and dropping its
// column, then resolving a div (normalizeDivs substitutes its numerator and
// drops the div column). Reads are copy-free and drops compact in place, so
// what allocates is the clone and the rewritten rows.
func BenchmarkDropColumnSubstitute(b *testing.B) {
	proto := rowKernelBasic()
	expr := Vec{2, 0, 1, 0, 0, 0} // d0 := d1 + 2
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cl := proto.clone()
		cl.substituteColumn(1, expr, 1)
		cl.dropColumn(1)
		cl.normalizeDivs()
		if len(cl.divs) != 0 || cl.ndim != 3 {
			b.Fatal("the div should resolve and d0 be gone")
		}
	}
}

// emptinessBasic is a non-empty basic over (i, j, k) with the cache-line
// div floor(j/8): k lies after j on j's line and i is bounded by both, the
// shape of a previous-access piece. No constraint is redundant enough for
// simplify to decide it, so DefinitelyEmpty runs the full Fourier–Motzkin
// elimination.
func emptinessBasic() *basic {
	b := &basic{ndim: 3}
	b.divs = []Div{{Num: Vec{0, 0, 1, 0, 0}, Den: 8}}
	b.cons = []Constraint{
		{C: Vec{0, 1, 0, 0, 0}},    // i >= 0
		{C: Vec{31, -1, 0, 0, 0}},  // i <= 31
		{C: Vec{0, 0, 1, 0, 0}},    // j >= 0
		{C: Vec{31, 0, -1, 0, 0}},  // j <= 31
		{C: Vec{-1, 0, -1, 1, 0}},  // k >= j + 1
		{C: Vec{0, 0, 0, 1, -8}},   // k >= 8e
		{C: Vec{7, 0, 0, -1, 8}},   // k <= 8e + 7
		{C: Vec{40, -1, -1, 0, 0}}, // i + j <= 40
		{C: Vec{0, -1, 0, 2, 0}},   // i <= 2k
	}
	return b
}

// BenchmarkDefinitelyEmpty measures the emptiness check every set operation
// prunes with: a copy, simplify and rational Fourier–Motzkin over all
// columns, all in pooled scratch.
func BenchmarkDefinitelyEmpty(b *testing.B) {
	bs := BasicSet{space: NewSpace("S", "i", "j", "k"), b: *emptinessBasic()}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if bs.DefinitelyEmpty() {
			b.Fatal("benchmark basic should stay feasible")
		}
	}
}
