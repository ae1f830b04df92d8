package core

import (
	"fmt"
	"math/rand"
	"testing"

	"haystack/internal/ints"
	"haystack/internal/polybench"
	"haystack/internal/presburger"
	"haystack/internal/qpoly"
)

// rasterizeAllClasses is rasterize without the class-0 exit: every residue
// class is substituted and its domain built before the degree test. It is
// the oracle of the exit.
func rasterizeAllClasses(domain presburger.BasicSet, poly qpoly.QPoly) ([]splitPiece, bool) {
	for i := range poly.Atoms {
		if !atomInNonAffineTerm(poly, i) || !atomArgOverVars(poly, i) {
			continue
		}
		d := poly.Atoms[i].Den
		if d <= 1 || d > 64 {
			continue
		}
		var pieces []splitPiece
		improved := false
		ok := true
		for r := int64(0); r < d; r++ {
			expr := atomArgPoly(poly, i).Sub(qpoly.ConstInt(poly.NVar, r)).Scale(ints.NewRat(1, d))
			sub, subOK := poly.SubstituteAtom(i, expr)
			if !subOK {
				ok = false
				break
			}
			if sub.Degree() < poly.Degree() {
				improved = true
			}
			dom, domOK := residueClassDomain(domain, poly, i, r)
			if !domOK {
				ok = false
				break
			}
			pieces = append(pieces, splitPiece{dom, sub})
		}
		if ok && improved {
			return pieces, true
		}
	}
	return nil, false
}

// checkRasterizeExit fails the test unless rasterize and its all-classes
// oracle agree on the piece, split for split.
func checkRasterizeExit(t *testing.T, what string, domain presburger.BasicSet, poly qpoly.QPoly) bool {
	t.Helper()
	got, gotOK := rasterize(domain, poly)
	want, wantOK := rasterizeAllClasses(domain, poly)
	render := func(ps []splitPiece) string {
		s := ""
		for _, p := range ps {
			s += fmt.Sprintf("[%v | %+v]", p.domain, p.poly)
		}
		return s
	}
	if gotOK != wantOK || render(got) != render(want) {
		t.Fatalf("%s: rasterize of %v on %v = %v %s, want %v %s", what, poly, domain, gotOK, render(got), wantOK, render(want))
	}
	return gotOK
}

func TestRasterizeClassZeroExitOnDistancePieces(t *testing.T) {
	if testing.Short() {
		t.Skip("computes three MINI distance models")
	}
	for _, name := range []string{"covariance", "symm", "syr2k"} {
		k, ok := polybench.ByName(name)
		if !ok {
			t.Fatalf("unknown kernel %s", name)
		}
		dm, err := ComputeDistances(k.Build(polybench.Mini), 64, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for _, sd := range dm.distances {
			for _, p := range sd.Distance.Pieces {
				if p.Poly.Degree() > 1 {
					checkRasterizeExit(t, name+" "+sd.Statement, p.Domain, p.Poly)
					n++
				}
			}
		}
		t.Logf("%s: %d non-affine distance pieces", name, n)
	}
}

func TestRasterizeClassZeroExitOnRandomPolynomials(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	splits := 0
	for iter := 0; iter < 400; iter++ {
		nvar := 2 + rng.Intn(2)
		names := []string{"i", "j", "k"}[:nvar]
		sp := presburger.NewSpace("S", names...)
		var cons []presburger.Constraint
		for v := 0; v < nvar; v++ {
			lo := presburger.NewVec(1 + nvar)
			lo[1+v] = 1
			hi := presburger.NewVec(1 + nvar)
			hi[0], hi[1+v] = int64(3+rng.Intn(8)), -1
			cons = append(cons, presburger.Constraint{C: lo}, presburger.Constraint{C: hi})
		}
		domain := presburger.NewBasicSet(sp, nil, cons)

		poly := qpoly.Zero(nvar)
		var atoms []int
		for a := 0; a < 1+rng.Intn(2); a++ {
			num := make([]int64, 1+nvar)
			num[0] = int64(rng.Intn(5) - 2)
			num[1+rng.Intn(nvar)] = int64(1 + rng.Intn(2))
			var idx int
			poly, idx = poly.WithAtom(num, int64(2+rng.Intn(7)))
			atoms = append(atoms, idx)
		}
		monomial := func() qpoly.QPoly {
			m := qpoly.ConstInt(nvar, int64(rng.Intn(5)-2))
			for f := 0; f < rng.Intn(3); f++ {
				if rng.Intn(2) == 0 {
					m = m.Mul(qpoly.Var(nvar, rng.Intn(nvar)))
				} else {
					m = m.Mul(poly.AtomPoly(atoms[rng.Intn(len(atoms))]))
				}
			}
			return m
		}
		sum := qpoly.Zero(nvar)
		for k := 0; k < 1+rng.Intn(4); k++ {
			sum = sum.Add(monomial())
		}
		if rng.Intn(2) == 0 {
			// A residue term d*floor(e/d) - e, times a monomial: its top
			// degree cancels under the class substitution.
			a := poly.Atoms[atoms[0]]
			arg := qpoly.ConstInt(nvar, a.Num[0])
			for v := 0; v < nvar; v++ {
				if 1+v < len(a.Num) && a.Num[1+v] != 0 {
					arg = arg.Add(qpoly.Var(nvar, v).Scale(ints.RatInt(a.Num[1+v])))
				}
			}
			res := poly.AtomPoly(atoms[0]).Scale(ints.RatInt(a.Den)).Sub(arg)
			sum = sum.Add(res.Mul(qpoly.Var(nvar, rng.Intn(nvar))).Mul(monomial()))
		}
		if sum.Degree() <= 1 {
			continue
		}
		if checkRasterizeExit(t, fmt.Sprintf("case %d", iter), domain, sum) {
			splits++
		}
	}
	if splits == 0 {
		t.Fatal("no random case was rasterized; the generator no longer covers the split path")
	}
}

// TestResidueDomainsMatchBruteForce checks the domains the floor
// elimination splits build, point by point: for the atom floor((i+2j+1)/4)
// over a box, residueClassDomain(r) holds exactly the points whose argument
// is r modulo 4, and splitDomainByResidue(t) splits the box into the
// residues below t and the rest. The split counts alone do not pin these
// rows: the two sides of an equalization often classify alike.
func TestResidueDomainsMatchBruteForce(t *testing.T) {
	const den = 4
	sp := presburger.NewSpace("S", "i", "j")
	box := presburger.UniverseBasicSet(sp)
	for _, c := range [][]int64{{0, 1, 0}, {9, -1, 0}, {0, 0, 1}, {7, 0, -1}} {
		box = box.AddConstraint(presburger.Constraint{C: c})
	}
	poly, idx := qpoly.Zero(2).WithAtom([]int64{1, 1, 2}, den)
	residue := func(p []int64) int64 { return (1 + p[0] + 2*p[1]) % den }
	forEachPoint := func(fn func(p []int64)) {
		for i := int64(0); i <= 9; i++ {
			for j := int64(0); j <= 7; j++ {
				fn([]int64{i, j})
			}
		}
	}
	for r := int64(0); r < den; r++ {
		class, ok := residueClassDomain(box, poly, idx, r)
		if !ok {
			t.Fatalf("residueClassDomain(%d) refused", r)
		}
		forEachPoint(func(p []int64) {
			if got, want := class.Contains(p), residue(p) == r; got != want {
				t.Fatalf("residue class %d: Contains(%v) = %v, want %v\n%v", r, p, got, want, class)
			}
		})
	}
	for threshold := int64(1); threshold < den; threshold++ {
		low, high, ok := splitDomainByResidue(box, poly, idx, threshold)
		if !ok {
			t.Fatalf("splitDomainByResidue(%d) refused", threshold)
		}
		forEachPoint(func(p []int64) {
			below := residue(p) < threshold
			if low.Contains(p) != below || high.Contains(p) != !below {
				t.Fatalf("split at %d: point %v (residue %d) low %v high %v\nlow:  %v\nhigh: %v", threshold, p, residue(p), low.Contains(p), high.Contains(p), low, high)
			}
		})
	}
}
