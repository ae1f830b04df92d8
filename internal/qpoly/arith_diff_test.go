package qpoly

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"haystack/internal/ints"
)

// randTable draws an atom table over nvar variables: nested atoms, atoms
// that fold to constants, atoms reducible by a common factor, repeated
// atoms and numerators with trailing zeros or cut short.
func randTable(rng *rand.Rand, nvar, natoms int) []Atom {
	atoms := make([]Atom, 0, natoms)
	for i := 0; i < natoms; i++ {
		if i > 0 && rng.Intn(8) == 0 {
			// A repeat of an earlier atom, possibly with another width.
			e := atoms[rng.Intn(i)]
			num := append([]int64(nil), trimZeros(e.Num)...)
			num = append(num, make([]int64, 1+rng.Intn(2))...)
			atoms = append(atoms, Atom{Num: num, Den: e.Den})
			continue
		}
		num := make([]int64, 1+nvar+i)
		num[0] = int64(rng.Intn(11) - 5)
		kind := rng.Intn(8)
		if kind != 0 { // kind 0: a constant argument
			for j := 1; j <= nvar; j++ {
				if rng.Intn(2) == 0 {
					num[j] = int64(rng.Intn(7) - 3)
				}
			}
			for j := 0; j < i; j++ {
				if rng.Intn(4) == 0 {
					num[1+nvar+j] = int64(rng.Intn(5) - 2)
				}
			}
			if rng.Intn(3) == 0 {
				num[1+rng.Intn(nvar)] = int64(1 + rng.Intn(2))
			}
		}
		den := int64(1 + rng.Intn(6))
		if kind == 1 { // reducible by a common factor
			g := int64(2 + rng.Intn(2))
			for j := 1; j < len(num); j++ {
				num[j] *= g
			}
			den *= g
		}
		num = trimZeros(num)
		if len(num) == 0 || rng.Intn(3) == 0 {
			num = append(num, 0)
		}
		atoms = append(atoms, Atom{Num: num, Den: den})
	}
	return atoms
}

// randRaw draws a polynomial that need not be normalized: repeated power
// rows, cancelling terms, zero coefficients and unused atoms.
func randRaw(rng *rand.Rand, nvar, natoms, nterms int) QPoly {
	p := QPoly{NVar: nvar, Atoms: randTable(rng, nvar, natoms)}
	ncols := p.ncols()
	for i := 0; i < nterms; i++ {
		if i > 0 && rng.Intn(5) == 0 {
			// Repeat (or cancel) an earlier row.
			e := p.Terms[rng.Intn(i)]
			c := ints.NewRat(int64(rng.Intn(5)-2), int64(1+rng.Intn(3)))
			if rng.Intn(2) == 0 {
				c = e.Coef.Neg()
			}
			p.Terms = append(p.Terms, Term{Coef: c, Pow: append([]int(nil), e.Pow...)})
			continue
		}
		pow := make([]int, ncols)
		for j := range pow {
			if rng.Intn(3) == 0 {
				pow[j] = rng.Intn(3)
			}
		}
		c := ints.NewRat(int64(rng.Intn(9)-4), int64(1+rng.Intn(3)))
		p.Terms = append(p.Terms, Term{Coef: c, Pow: pow})
	}
	return p
}

func randNormalized(rng *rand.Rand, nvar int) QPoly {
	return refNormalize(randRaw(rng, nvar, rng.Intn(5), rng.Intn(7)))
}

// sameQPoly reports how a and b differ as representations: variable count,
// atom table (denominators and numerators, widths included) and term list,
// in order. nil and empty slices are alike.
func sameQPoly(a, b QPoly) error {
	if a.NVar != b.NVar {
		return fmt.Errorf("nvar %d vs %d", a.NVar, b.NVar)
	}
	if len(a.Atoms) != len(b.Atoms) {
		return fmt.Errorf("%d atoms vs %d", len(a.Atoms), len(b.Atoms))
	}
	for i := range a.Atoms {
		x, y := a.Atoms[i], b.Atoms[i]
		if x.Den != y.Den || fmt.Sprint(x.Num) != fmt.Sprint(y.Num) {
			return fmt.Errorf("atom %d: %v/%d vs %v/%d", i, x.Num, x.Den, y.Num, y.Den)
		}
	}
	if len(a.Terms) != len(b.Terms) {
		return fmt.Errorf("%d terms vs %d", len(a.Terms), len(b.Terms))
	}
	for i := range a.Terms {
		x, y := a.Terms[i], b.Terms[i]
		if x.Coef.Cmp(y.Coef) != 0 || !slices.Equal(x.Pow, y.Pow) {
			return fmt.Errorf("term %d: %v%v vs %v%v", i, x.Coef, x.Pow, y.Coef, y.Pow)
		}
	}
	return nil
}

// checkSame fails the test unless got matches want as a representation and
// in value at a few random points.
func checkSame(t *testing.T, rng *rand.Rand, what string, got, want QPoly, inputs ...QPoly) {
	t.Helper()
	if err := sameQPoly(got, want); err != nil {
		t.Fatalf("%s: %v\ngot:  %+v\nwant: %+v\ninputs: %+v", what, err, got, want, inputs)
	}
	for k := 0; k < 3; k++ {
		pt := make([]int64, got.NVar)
		for i := range pt {
			pt[i] = int64(rng.Intn(9) - 4)
		}
		g, gok := evalChecked(got, pt)
		w, wok := evalChecked(want, pt)
		if gok != wok || (gok && g.Cmp(w) != 0) {
			t.Fatalf("%s: value at %v is %v (%v), want %v (%v)", what, pt, g, gok, w, wok)
		}
	}
}

// evalChecked evaluates p, reporting an overflow as ok=false.
func evalChecked(p QPoly, pt []int64) (v ints.Rat, ok bool) {
	defer func() {
		if recover() != nil {
			ok = false
		}
	}()
	return p.Eval(pt), true
}

// exprFor draws a replacement expression: unrelated, or built on p's own
// table so that its atoms coincide with p's.
func exprFor(rng *rand.Rand, p QPoly) QPoly {
	if len(p.Atoms) > 0 && rng.Intn(2) == 0 {
		e := p.AtomPoly(rng.Intn(len(p.Atoms)))
		if rng.Intn(2) == 0 {
			e = e.Add(Var(p.NVar, rng.Intn(p.NVar)).Scale(ints.RatInt(int64(rng.Intn(5) - 2))))
		}
		return e.Add(ConstInt(p.NVar, int64(rng.Intn(3))))
	}
	e := randNormalized(rng, p.NVar)
	if rng.Intn(4) == 0 {
		e = refNormalize(randRaw(rng, p.NVar, rng.Intn(3), 1+rng.Intn(3)))
	}
	return e
}

func TestArithmeticMatchesStringKeyedOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	for iter := 0; iter < 3000; iter++ {
		nvar := 1 + rng.Intn(3)
		raw := randRaw(rng, nvar, rng.Intn(5), rng.Intn(8))
		p := randNormalized(rng, nvar)
		q := randNormalized(rng, nvar)
		if rng.Intn(3) == 0 {
			p = raw
		}
		checkSame(t, rng, "normalize", raw.normalize(), refNormalize(raw), raw)
		checkSame(t, rng, "Clone", raw.Clone(), refClone(raw), raw)
		checkSame(t, rng, "Add", p.Add(q), refAdd(p, q), p, q)
		checkSame(t, rng, "Add raw", q.Add(raw), refAdd(q, raw), q, raw)
		checkSame(t, rng, "Sub", p.Sub(q), refSub(p, q), p, q)
		checkSame(t, rng, "Sub self", q.Sub(q), refSub(q, q), q)
		checkSame(t, rng, "Mul", p.Mul(q), refMul(p, q), p, q)
		checkSame(t, rng, "Mul raw", raw.Mul(q), refMul(raw, q), raw, q)
		checkSame(t, rng, "Pow", q.Pow(2), refPow(q, 2), q)
		c := ints.NewRat(int64(rng.Intn(7)-3), int64(1+rng.Intn(2)))
		checkSame(t, rng, "Scale", p.Scale(c), refScale(p, c), p)
		if len(raw.Atoms) > 0 {
			i := rng.Intn(len(raw.Atoms))
			checkSame(t, rng, "AtomPoly", raw.AtomPoly(i), refAtomPoly(raw, i), raw)
		}
		num := make([]int64, 1+p.ncols())
		for j := range num {
			num[j] = int64(rng.Intn(5) - 2)
		}
		if len(p.Atoms) > 0 && rng.Intn(2) == 0 {
			num = append([]int64(nil), p.Atoms[rng.Intn(len(p.Atoms))].Num...)
		}
		den := int64(1 + rng.Intn(4))
		got, gi := p.WithAtom(num, den)
		want, wi := refWithAtom(p, num, den)
		if gi != wi {
			t.Fatalf("WithAtom index %d, want %d", gi, wi)
		}
		checkSame(t, rng, "WithAtom", got, want, p)
	}
}

func TestSubstitutionKernelsMatchStringKeyedOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(2525))
	for iter := 0; iter < 3000; iter++ {
		nvar := 1 + rng.Intn(3)
		var p QPoly
		if rng.Intn(3) == 0 {
			p = randRaw(rng, nvar, rng.Intn(5), rng.Intn(8))
		} else {
			p = randNormalized(rng, nvar)
		}
		v := rng.Intn(nvar)
		expr := exprFor(rng, p)
		if len(p.Atoms) > 0 {
			idx := rng.Intn(len(p.Atoms))
			got, gok := p.SubstituteAtom(idx, expr)
			want, wok := refSubstituteAtom(p, idx, expr)
			if gok != wok {
				t.Fatalf("SubstituteAtom ok=%v, want %v", gok, wok)
			}
			if gok {
				checkSame(t, rng, "SubstituteAtom", got, want, p, expr)
			}
		}
		checkSame(t, rng, "SubstitutePlainVar", p.SubstitutePlainVar(v, expr), refSubstitutePlainVar(p, v, expr), p, expr)
		got, gok := p.SubstituteVar(v, expr)
		want, wok := refSubstituteVar(p, v, expr)
		if gok != wok {
			t.Fatalf("SubstituteVar ok=%v, want %v", gok, wok)
		}
		if gok {
			checkSame(t, rng, "SubstituteVar", got, want, p, expr)
		}
		value := int64(rng.Intn(9) - 4)
		checkSame(t, rng, "BindVar", p.BindVar(v, value), refBindVar(p, v, value), p)

		gc, gok := p.CoefficientsOfVar(v)
		wc, wok := refCoefficientsOfVar(p, v)
		if gok != wok || len(gc) != len(wc) {
			t.Fatalf("CoefficientsOfVar ok=%v (%d), want %v (%d)", gok, len(gc), wok, len(wc))
		}
		for k := range gc {
			checkSame(t, rng, fmt.Sprintf("CoefficientsOfVar[%d]", k), gc[k], wc[k], p)
		}
		// Bounds that do not use v.
		lo, hi := exprFor(rng, p), exprFor(rng, p)
		if lo.UsesVar(v) {
			lo = lo.BindVar(v, 1)
		}
		if hi.UsesVar(v) {
			hi = hi.BindVar(v, 2)
		}
		gs, gok := SumOverRange(p, v, lo, hi)
		ws, wok := refSumOverRange(p, v, lo, hi)
		if gok != wok {
			t.Fatalf("SumOverRange ok=%v, want %v", gok, wok)
		}
		if gok {
			checkSame(t, rng, "SumOverRange", gs, ws, p, lo, hi)
		}
	}
}
