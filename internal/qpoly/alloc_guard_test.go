package qpoly

import (
	"testing"

	"haystack/internal/ints"
)

// countingPolys returns two polynomials shaped like the ones symbolic
// counting builds: degree three over three variables, with two floor atoms
// (one shared, one each) and a dozen-odd terms.
func countingPolys() (QPoly, QPoly) {
	p := Zero(3)
	p, a := p.WithAtom([]int64{1, 1, 0, 0}, 4) // floor((i+1)/4)
	p, b := p.WithAtom([]int64{0, 0, 1, 1}, 8) // floor((j+k)/8)
	q, c := Zero(3).WithAtom([]int64{0, 1, 0, 0, 0}, 4)
	q, _ = q.WithAtom([]int64{1, 1, 0, 0}, 4)
	i, j, k := Var(3, 0), Var(3, 1), Var(3, 2)
	x := i.Sub(p.AtomPoly(a).Scale(ints.RatInt(2))).Add(ConstInt(3, 1))
	y := j.Add(k).Sub(p.AtomPoly(b)).Add(ConstInt(3, 2))
	z := k.Sub(q.AtomPoly(c)).Add(i.Scale(ints.NewRat(1, 2)))
	return x.Mul(y).Mul(x).Add(y), z.Mul(z).Mul(y).Sub(x)
}

// TestQPolyArithAllocBudget pins the allocation counts of Add and Mul on
// countingPolys (BenchmarkQPolyArith). The merged atom table takes one
// allocation and its new numerators one slab; the term table one slab of
// power rows, one of group heads and one hash index; the result one term
// list: 6 allocs/op each, against 262 (Add) and 2415 (Mul) for the
// string-keyed arithmetic, which built a map and formatted strings per term
// and per atom comparison and cloned every row on its own. The budget of 8
// leaves headroom for toolchain noise while failing loudly on a regression
// to per-term allocation. Skipped under the race detector, whose
// instrumentation allocates on its own.
func TestQPolyArithAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	p, q := countingPolys()
	add := testing.AllocsPerRun(200, func() { p.Add(q) })
	mul := testing.AllocsPerRun(200, func() { p.Mul(q) })
	if add > 8 {
		t.Errorf("Add = %.1f allocs/op, budget is 8", add)
	}
	if mul > 8 {
		t.Errorf("Mul = %.1f allocs/op, budget is 8", mul)
	}
}

// BenchmarkQPolyArith measures the arithmetic kernels on countingPolys,
// each next to its string-keyed oracle.
func BenchmarkQPolyArith(b *testing.B) {
	p, q := countingPolys()
	expr := q.Scale(ints.NewRat(1, 3))
	// A sum over i of a polynomial whose atoms do not depend on i.
	r := p.BindVar(0, 3).Mul(Var(3, 0)).Add(Var(3, 0))
	lo, hi := ConstInt(3, 0), Var(3, 2).Add(Var(3, 1))
	for _, k := range []struct {
		name      string
		fast, ref func()
	}{
		{"Add", func() { p.Add(q) }, func() { refAdd(p, q) }},
		{"Mul", func() { p.Mul(q) }, func() { refMul(p, q) }},
		{"SubstituteAtom", func() { p.SubstituteAtom(0, expr) }, func() { refSubstituteAtom(p, 0, expr) }},
		{"SubstitutePlainVar", func() { p.SubstitutePlainVar(1, expr) }, func() { refSubstitutePlainVar(p, 1, expr) }},
		{"SumOverRange", func() { SumOverRange(r, 0, lo, hi) }, func() { refSumOverRange(r, 0, lo, hi) }},
	} {
		b.Run(k.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				k.fast()
			}
		})
		b.Run(k.name+"/oracle", func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				k.ref()
			}
		})
	}
}
