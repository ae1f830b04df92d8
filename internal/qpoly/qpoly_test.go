package qpoly

import (
	"testing"
	"testing/quick"

	"haystack/internal/ints"
)

func TestAffineEval(t *testing.T) {
	// p = 3 + 2*x - y
	p := FromAffine(2, 3, []int64{2, -1})
	if got := p.EvalInt([]int64{4, 5}); got != 6 {
		t.Fatalf("eval = %d, want 6", got)
	}
	if p.Degree() != 1 {
		t.Fatalf("degree = %d", p.Degree())
	}
}

func TestAddMulEvalProperty(t *testing.T) {
	f := func(a0, a1, b0, b1 int8, x, y int8) bool {
		p := FromAffine(2, int64(a0), []int64{int64(a1), 2})
		q := FromAffine(2, int64(b0), []int64{int64(b1), -1})
		pt := []int64{int64(x), int64(y)}
		sum := p.Add(q).Eval(pt)
		if sum.Cmp(p.Eval(pt).Add(q.Eval(pt))) != 0 {
			return false
		}
		prod := p.Mul(q).Eval(pt)
		return prod.Cmp(p.Eval(pt).Mul(q.Eval(pt))) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFloorAtomEval(t *testing.T) {
	// p = x - 8*floor(x/8)  (i.e. x mod 8)
	p := Var(1, 0).AddFloorTerm(ints.RatInt(-8), 0, []int64{1}, 8)
	for x := int64(-10); x <= 20; x++ {
		want := x - 8*ints.FloorDiv(x, 8)
		if got := p.EvalInt([]int64{x}); got != want {
			t.Fatalf("x=%d: got %d want %d", x, got, want)
		}
	}
	if p.Degree() != 1 {
		t.Fatalf("degree of quasi-affine expr = %d, want 1", p.Degree())
	}
}

func TestNestedFloor(t *testing.T) {
	// q = floor((floor(x/4) + 1) / 2)
	p := Zero(1)
	p, inner := p.WithAtom([]int64{0, 1}, 4)
	innerPoly := p.AtomPoly(inner).Add(ConstInt(1, 1))
	q, ok := FloorOf(innerPoly, 2)
	if !ok {
		t.Fatal("FloorOf failed")
	}
	for x := int64(0); x < 40; x++ {
		want := ints.FloorDiv(ints.FloorDiv(x, 4)+1, 2)
		if got := q.EvalInt([]int64{x}); got != want {
			t.Fatalf("x=%d: got %d want %d", x, got, want)
		}
	}
}

func TestSubstituteVar(t *testing.T) {
	// p = x^2 + y, substitute x := y + 1  ->  y^2 + 3y + 1 at y.
	p := Var(2, 0).Mul(Var(2, 0)).Add(Var(2, 1))
	sub, ok := p.SubstituteVar(0, Var(2, 1).Add(ConstInt(2, 1)))
	if !ok {
		t.Fatal("substitute failed")
	}
	for y := int64(-3); y <= 3; y++ {
		want := (y+1)*(y+1) + y
		if got := sub.EvalInt([]int64{0, y}); got != want {
			t.Fatalf("y=%d: got %d want %d", y, got, want)
		}
	}
}

func TestSubstituteAtom(t *testing.T) {
	// p = 2*floor(x/8) + x ; substitute the atom by (x-3)/8 conceptually as a
	// polynomial 5 (constant) to check mechanics.
	p := Var(1, 0).AddFloorTerm(ints.RatInt(2), 0, []int64{1}, 8)
	got, ok := p.SubstituteAtom(0, ConstInt(1, 5))
	if !ok {
		t.Fatal("substitute atom failed")
	}
	if v := got.EvalInt([]int64{7}); v != 17 {
		t.Fatalf("eval = %d, want 17", v)
	}
}

func TestCoefficientsOfVar(t *testing.T) {
	// p = 3*x^2*y + 2*x + 7  in variable x.
	x, y := Var(2, 0), Var(2, 1)
	p := x.Pow(2).Mul(y).Scale(ints.RatInt(3)).Add(x.Scale(ints.RatInt(2))).Add(ConstInt(2, 7))
	coeffs, ok := p.CoefficientsOfVar(0)
	if !ok {
		t.Fatal("coefficients failed")
	}
	if len(coeffs) != 3 {
		t.Fatalf("len = %d", len(coeffs))
	}
	if got := coeffs[0].EvalInt([]int64{0, 5}); got != 7 {
		t.Fatalf("c0 = %d", got)
	}
	if got := coeffs[1].EvalInt([]int64{0, 5}); got != 2 {
		t.Fatalf("c1 = %d", got)
	}
	if got := coeffs[2].EvalInt([]int64{0, 5}); got != 15 {
		t.Fatalf("c2 = %d", got)
	}
}

func TestFaulhaber(t *testing.T) {
	for k := 0; k <= 5; k++ {
		coeffs := Faulhaber(k)
		evalP := func(n int64) ints.Rat {
			s := ints.Rat{}
			pow := ints.RatInt(1)
			for _, c := range coeffs {
				s = s.Add(c.Mul(pow))
				pow = pow.Mul(ints.RatInt(n))
			}
			return s
		}
		for n := int64(0); n <= 12; n++ {
			var want int64
			for y := int64(1); y <= n; y++ {
				p := int64(1)
				for i := 0; i < k; i++ {
					p *= y
				}
				want += p
			}
			if got := evalP(n); got.Cmp(ints.RatInt(want)) != 0 {
				t.Fatalf("k=%d n=%d: got %v want %d", k, n, got, want)
			}
		}
		// Polynomial telescoping identity at negative arguments.
		for n := int64(-6); n <= 6; n++ {
			diff := evalP(n).Sub(evalP(n - 1))
			var nk int64 = 1
			for i := 0; i < k; i++ {
				nk *= n
			}
			if diff.Cmp(ints.RatInt(nk)) != 0 {
				t.Fatalf("telescoping fails at k=%d n=%d: %v vs %d", k, n, diff, nk)
			}
		}
	}
}

func TestSumOverRange(t *testing.T) {
	// sum over y in [lo,hi] of (y^2 + x) where lo = 0, hi = x.
	nvar := 2 // x = var 0, y = var 1
	p := Var(nvar, 1).Pow(2).Add(Var(nvar, 0))
	lo := ConstInt(nvar, 0)
	hi := Var(nvar, 0)
	s, ok := SumOverRange(p, 1, lo, hi)
	if !ok {
		t.Fatal("sum failed")
	}
	for x := int64(0); x <= 10; x++ {
		var want int64
		for y := int64(0); y <= x; y++ {
			want += y*y + x
		}
		if got := s.EvalInt([]int64{x, 0}); got != want {
			t.Fatalf("x=%d: got %d want %d", x, got, want)
		}
	}
	if s.UsesVar(1) {
		t.Fatal("summed variable still referenced")
	}
}

func TestSumOverRangeWithFloorBounds(t *testing.T) {
	// sum over y in [8*floor(x/8), x] of 1  == x mod 8 + 1.
	nvar := 2
	one := ConstInt(nvar, 1)
	lo := Zero(nvar).AddFloorTerm(ints.RatInt(8), 0, []int64{1, 0}, 8)
	hi := Var(nvar, 0)
	s, ok := SumOverRange(one, 1, lo, hi)
	if !ok {
		t.Fatal("sum failed")
	}
	for x := int64(0); x < 40; x++ {
		want := x - 8*ints.FloorDiv(x, 8) + 1
		if got := s.EvalInt([]int64{x, 0}); got != want {
			t.Fatalf("x=%d: got %d want %d", x, got, want)
		}
	}
}

func TestMapVars(t *testing.T) {
	// p over (x,y) uses only x; remap to a 1-variable space.
	p := Var(2, 0).Pow(2).Add(ConstInt(2, 3))
	q, ok := p.MapVars(1, []int{0, -1})
	if !ok {
		t.Fatal("MapVars failed")
	}
	if got := q.EvalInt([]int64{5}); got != 28 {
		t.Fatalf("eval = %d", got)
	}
	if _, ok := Var(2, 1).MapVars(1, []int{0, -1}); ok {
		t.Fatal("MapVars should fail when a dropped variable is used")
	}
}

func TestDegreeInVar(t *testing.T) {
	// p = x*floor(y/4) has degree 1 in x and degree 2 in y-ish terms
	// (the atom depends on y so the product counts).
	p := Var(2, 0).Mul(Zero(2).AddFloorTerm(ints.RatInt(1), 0, []int64{0, 1}, 4))
	if p.DegreeInVar(0) != 1 {
		t.Fatalf("deg x = %d", p.DegreeInVar(0))
	}
	if p.DegreeInVar(1) != 1 {
		t.Fatalf("deg y = %d", p.DegreeInVar(1))
	}
	if p.Degree() != 2 {
		t.Fatalf("total degree = %d", p.Degree())
	}
	if !p.UsesVar(1) || !p.UsesVar(0) {
		t.Fatal("UsesVar wrong")
	}
}

func TestIsConstant(t *testing.T) {
	if _, ok := Var(1, 0).IsConstant(); ok {
		t.Fatal("variable reported constant")
	}
	c, ok := ConstInt(3, 42).IsConstant()
	if !ok || c.Int() != 42 {
		t.Fatal("constant not recognized")
	}
	z, ok := Zero(2).IsConstant()
	if !ok || !z.IsZero() {
		t.Fatal("zero not recognized")
	}
}

// FloorOf returns the quasi-polynomial floor(p / den) when p has integer
// coefficients and is affine over variables and atoms; ok is false otherwise.
func FloorOf(p QPoly, den int64) (QPoly, bool) {
	if den <= 0 {
		return QPoly{}, false
	}
	if p.Degree() > 1 {
		return QPoly{}, false
	}
	out := Zero(p.NVar)
	out.Atoms = append([]Atom(nil), p.Clone().Atoms...)
	num := make([]int64, 1+out.ncols())
	for _, t := range p.Terms {
		if !t.Coef.IsInt() {
			return QPoly{}, false
		}
		col := -1
		for j, e := range t.Pow {
			if e > 0 {
				col = j
			}
		}
		if col < 0 {
			num[0] += t.Coef.Int()
		} else {
			num[1+col] += t.Coef.Int()
		}
	}
	idx := out.atomIndex(Atom{Num: num, Den: den})
	pw := make([]int, out.ncols())
	pw[out.NVar+idx] = 1
	out.Terms = append(out.Terms, Term{Coef: ints.RatInt(1), Pow: pw})
	return out.normalize(), true
}

// AddFloorTerm returns p + coef*floor(affArg/den) where affArg is an affine
// expression over the variables given as [const, coeffs...].
func (p QPoly) AddFloorTerm(coef ints.Rat, c0 int64, coeffs []int64, den int64) QPoly {
	out := p.Clone()
	num := make([]int64, 1+out.ncols())
	num[0] = c0
	for i, c := range coeffs {
		num[1+i] = c
	}
	idx := out.atomIndex(Atom{Num: num, Den: den})
	pw := make([]int, out.ncols())
	pw[out.NVar+idx] = 1
	out.Terms = append(out.Terms, Term{Coef: coef, Pow: pw})
	return out.normalize()
}

// DegreeInVar returns the degree of p in variable v, counting atoms whose
// argument references v as contributing their power as well.
func (p QPoly) DegreeInVar(v int) int {
	dep := p.atomDependsOnVar(v)
	deg := 0
	for _, t := range p.Terms {
		d := t.Pow[v]
		for j := p.NVar; j < len(t.Pow); j++ {
			if dep[j-p.NVar] {
				d += t.Pow[j]
			}
		}
		if d > deg {
			deg = d
		}
	}
	return deg
}

// atomIndex adds (or finds) an atom in p and returns its index, padding the
// existing terms with a zero power for a new atom. The atom's numerator
// must be expressed over p's columns.
func (p *QPoly) atomIndex(a Atom) int {
	for i, e := range p.Atoms {
		if sameAtom(e, a) {
			return i
		}
	}
	p.Atoms = append(p.Atoms, Atom{Num: append([]int64(nil), a.Num...), Den: a.Den})
	for i := range p.Terms {
		p.Terms[i].Pow = append(p.Terms[i].Pow, 0)
	}
	return len(p.Atoms) - 1
}
