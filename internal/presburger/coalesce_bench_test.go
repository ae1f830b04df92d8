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

// composeMaps returns a pair of basic maps shaped like a composition step
// of the distance phase: an access relation S[i, j] -> L[l] onto the cache
// line l = floor(j/8), and a relation L[l] -> T[t] onto a later line within
// a window, with a div of its own. Composing them embeds both into one
// basic (the second embed adds a div, so the first one's rows are widened)
// and projects the line out.
func composeMaps() (BasicMap, BasicMap) {
	a := BasicMap{in: NewSpace("S", "i", "j"), out: NewSpace("L", "l"), b: basic{ndim: 3}}
	a.b.divs = []Div{{Num: Vec{0, 0, 1, 0}, Den: 8}}
	a.b.cons = []Constraint{
		{C: Vec{0, 1, 0, 0, 0}},            // i >= 0
		{C: Vec{31, -1, 0, 0, 0}},          // i <= 31
		{C: Vec{0, 0, 1, 0, 0}},            // j >= 0
		{C: Vec{31, 0, -1, 0, 0}},          // j <= 31
		{C: Vec{0, 0, 0, 1, -1}, Eq: true}, // l == floor(j/8)
		{C: Vec{40, -1, -1, 0, 0}},         // i + j <= 40
	}
	o := BasicMap{in: NewSpace("L", "l"), out: NewSpace("T", "t"), b: basic{ndim: 2}}
	o.b.divs = []Div{{Num: Vec{0, 0, 1}, Den: 4}}
	o.b.cons = []Constraint{
		{C: Vec{0, -1, 1, 0}},  // t >= l
		{C: Vec{3, 1, -1, 0}},  // t <= l + 3
		{C: Vec{0, 0, 1, -4}},  // t >= 4 floor(t/4)
		{C: Vec{1, 0, 0, -1}},  // floor(t/4) <= 1
		{C: Vec{0, 1, 0, 0}},   // l >= 0
		{C: Vec{-1, 0, 1, -1}}, // t >= floor(t/4) + 1
	}
	return a, o
}

// BenchmarkApplyRange measures one composition: both operands are embedded
// into a fresh basic (the divs first, then every constraint row carved from
// one slab) and the middle dimension is projected out.
func BenchmarkApplyRange(b *testing.B) {
	a, o := composeMaps()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := a.ApplyRange(o); err != nil {
			b.Fatal(err)
		}
	}
}

// coalesceFamily returns basics over (x, d) with the cache-line div
// floor(x/8), the shapes lexmin's bound splitting hands the coalescer: the
// d < x, d == x and d > x slabs of one box (adjacent pairs), a duplicate of
// the first slab, and a part of the last one (subsumed).
func coalesceFamily() []*basic {
	box := []Constraint{
		{C: Vec{0, 1, 0, 0}}, {C: Vec{31, -1, 0, 0}}, {C: Vec{0, 0, 1, 0}}, {C: Vec{31, 0, -1, 0}},
		{C: Vec{0, 1, 0, -8}}, {C: Vec{7, -1, 0, 8}},
	}
	with := func(extra ...Constraint) *basic {
		b := &basic{ndim: 2, divs: []Div{{Num: Vec{0, 1, 0}, Den: 8}}}
		for _, c := range append(append([]Constraint(nil), box...), extra...) {
			b.cons = append(b.cons, c.Clone())
		}
		return b
	}
	return []*basic{
		with(Constraint{C: Vec{-1, 1, -1, 0}}),                                  // d < x
		with(Constraint{C: Vec{0, -1, 1, 0}, Eq: true}),                         // d == x
		with(Constraint{C: Vec{-1, -1, 1, 0}}),                                  // d > x
		with(Constraint{C: Vec{-1, 1, -1, 0}}),                                  // d < x again
		with(Constraint{C: Vec{-1, -1, 1, 0}}, Constraint{C: Vec{5, 1, -1, 0}}), // x < d <= x + 5
	}
}

// BenchmarkCoalesceEntries measures the syntactic coalescer on
// coalesceFamily: every basic is cloned, simplified and indexed (the
// constraint hashes sorted once per entry), then deduplicated, checked for
// subsumption and merged pairwise by looking constraints up in the index.
func BenchmarkCoalesceEntries(b *testing.B) {
	fam := coalesceFamily()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if got := coalesceBasics(fam, false); len(got) == 0 {
			b.Fatal("the family should not coalesce to nothing")
		}
	}
}
