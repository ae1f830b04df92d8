package core

import (
	"haystack/internal/ints"
	"haystack/internal/presburger"
	"haystack/internal/qpoly"
)

// splitPiece is a sub-piece produced by the floor elimination techniques.
type splitPiece struct {
	domain presburger.BasicSet
	poly   qpoly.QPoly
}

// maxSplitDepth bounds the nesting of floor-elimination rewrites: a piece
// still non-affine after that many nested splits is kept as a leaf (and
// enumerated, or counted per evaluation by the parametric model) rather than
// rewritten further.
const maxSplitDepth = 64

// splitFloors applies the floor elimination techniques of section 3.3 to a
// piece — equalization first, then rasterization, each only where the
// options enable it — recursively on every sub-piece until the polynomial is
// affine, neither rewrite applies, or maxSplitDepth nested splits were made.
// It returns the leaves in split order and, when stats is non-nil, counts
// every split there. The rewrites never look at a cache capacity, so the
// capacity counter and the parametric classification share them.
func splitFloors(opts Options, domain presburger.BasicSet, poly qpoly.QPoly, stats *Stats) []splitPiece {
	var leaves []splitPiece
	var split func(p splitPiece, depth int)
	split = func(p splitPiece, depth int) {
		if p.poly.Degree() > 1 && depth < maxSplitDepth {
			var pieces []splitPiece
			ok := false
			if opts.Equalization {
				if pieces, ok = equalize(p.domain, p.poly); ok && stats != nil {
					stats.EqualizationSplits++
				}
			}
			if !ok && opts.Rasterization {
				if pieces, ok = rasterize(p.domain, p.poly); ok && stats != nil {
					stats.RasterizationSplits++
				}
			}
			if ok {
				for _, q := range pieces {
					split(q, depth+1)
				}
				return
			}
		}
		leaves = append(leaves, p)
	}
	split(splitPiece{domain, poly}, 0)
	return leaves
}

// equalize implements the equalization technique of section 3.3: when the
// polynomial contains two floor atoms with the same denominator whose
// arguments differ only by a constant offset c (0 < c < d), their difference
// is 0 on the first d-c elements of every residue block and 1 on the last c
// elements. Splitting the domain on that boundary lets one atom be expressed
// through the other, which often lowers the polynomial degree. The rewrite
// is kept only if the degree actually decreases in at least one sub-piece.
func equalize(domain presburger.BasicSet, poly qpoly.QPoly) ([]splitPiece, bool) {
	for i := 0; i < len(poly.Atoms); i++ {
		for j := 0; j < len(poly.Atoms); j++ {
			if i == j {
				continue
			}
			a, b := poly.Atoms[i], poly.Atoms[j]
			if a.Den != b.Den {
				continue
			}
			offset, ok := constantOffset(a.Num, b.Num)
			if !ok || offset <= 0 || offset >= a.Den {
				continue
			}
			// b = a + offset elementwise on the argument:
			// floor((e+offset)/d) equals floor(e/d) when e mod d < d-offset
			// and floor(e/d)+1 otherwise.
			if !atomArgOverVars(poly, i) || !atomArgOverVars(poly, j) {
				continue
			}
			d := a.Den
			low, lowOK := poly.SubstituteAtom(j, poly.AtomPoly(i))
			high, highOK := poly.SubstituteAtom(j, poly.AtomPoly(i).Add(qpoly.ConstInt(poly.NVar, 1)))
			if !lowOK || !highOK {
				continue
			}
			if low.Degree() >= poly.Degree() && high.Degree() >= poly.Degree() {
				continue
			}
			// Residue constraint: r = e - d*floor(e/d) where e is atom i's
			// argument; low piece needs r <= d-offset-1, high piece r >= d-offset.
			lowDom, highDom, ok := splitDomainByResidue(domain, poly, i, d-offset)
			if !ok {
				continue
			}
			return []splitPiece{{lowDom, low}, {highDom, high}}, true
		}
	}
	return nil, false
}

// rasterize implements the rasterization technique of section 3.3: a floor
// atom floor(e/d) involved in a non-affine term is specialized per residue
// class of its argument, replacing the atom by the exact affine expression
// (e-r)/d on every class. The rewrite is kept only if the degree decreases.
//
// The top-degree part of the rewrite takes only the e/d share of every
// factor (e-r)/d, so it is the same on every class: class 0 lowers the
// degree exactly when every class does, and an atom whose class 0 keeps the
// degree is passed over before any other class or domain is built.
func rasterize(domain presburger.BasicSet, poly qpoly.QPoly) ([]splitPiece, bool) {
	for i := range poly.Atoms {
		if !atomInNonAffineTerm(poly, i) || !atomArgOverVars(poly, i) {
			continue
		}
		d := poly.Atoms[i].Den
		if d <= 1 || d > 64 {
			continue
		}
		var pieces []splitPiece
		ok := true
		for r := int64(0); r < d; r++ {
			// atom = (e - r)/d on the class e ≡ r (mod d).
			expr := atomArgPoly(poly, i).Sub(qpoly.ConstInt(poly.NVar, r)).Scale(ints.NewRat(1, d))
			sub, subOK := poly.SubstituteAtom(i, expr)
			if !subOK || (r == 0 && sub.Degree() >= poly.Degree()) {
				ok = false
				break
			}
			dom, domOK := residueClassDomain(domain, poly, i, r)
			if !domOK {
				ok = false
				break
			}
			pieces = append(pieces, splitPiece{dom, sub})
		}
		if ok {
			return pieces, true
		}
	}
	return nil, false
}

// constantOffset reports whether two atom numerators differ only in their
// constant term, returning b[0]-a[0].
func constantOffset(a, b []int64) (int64, bool) {
	n := len(a)
	if len(b) > n {
		n = len(b)
	}
	get := func(v []int64, i int) int64 {
		if i < len(v) {
			return v[i]
		}
		return 0
	}
	for i := 1; i < n; i++ {
		if get(a, i) != get(b, i) {
			return 0, false
		}
	}
	return get(b, 0) - get(a, 0), true
}

// atomArgOverVars reports whether the atom's argument references only
// variables (no nested atoms), which the domain splitting helpers require.
func atomArgOverVars(poly qpoly.QPoly, idx int) bool {
	a := poly.Atoms[idx]
	for j := 1 + poly.NVar; j < len(a.Num); j++ {
		if a.Num[j] != 0 {
			return false
		}
	}
	return true
}

// atomInNonAffineTerm reports whether the atom appears in a term of degree
// greater than one.
func atomInNonAffineTerm(poly qpoly.QPoly, idx int) bool {
	col := poly.NVar + idx
	for _, t := range poly.Terms {
		if t.Pow[col] == 0 {
			continue
		}
		deg := 0
		for _, e := range t.Pow {
			deg += e
		}
		if deg > 1 {
			return true
		}
	}
	return false
}

// atomArgPoly returns the atom's argument as a polynomial over the
// variables (the atom argument must not reference other atoms).
func atomArgPoly(poly qpoly.QPoly, idx int) qpoly.QPoly {
	a := poly.Atoms[idx]
	coeffs := make([]int64, poly.NVar)
	for v := 0; v < poly.NVar; v++ {
		if 1+v < len(a.Num) {
			coeffs[v] = a.Num[1+v]
		}
	}
	c0 := int64(0)
	if len(a.Num) > 0 {
		c0 = a.Num[0]
	}
	return qpoly.FromAffine(poly.NVar, c0, coeffs)
}

// domainWithAtomDiv adds a div d mirroring the atom's floor(e/den) to the
// domain and returns the extended domain together with the residue row
// e − den·d (which lies in [0, den)) over the extended domain's columns.
func domainWithAtomDiv(domain presburger.BasicSet, poly qpoly.QPoly, idx int) (presburger.BasicSet, presburger.Vec, bool) {
	if !atomArgOverVars(poly, idx) {
		return presburger.BasicSet{}, nil, false
	}
	a := poly.Atoms[idx]
	num := presburger.NewVec(domain.NCols())
	if len(a.Num) > 0 {
		num[0] = a.Num[0]
	}
	for v := 0; v < poly.NVar && v < domain.NDim(); v++ {
		if 1+v < len(a.Num) {
			num[1+v] = a.Num[1+v]
		}
	}
	out, col := domain.AddDiv(num, a.Den)
	residue := num.Resized(out.NCols())
	residue[col] -= a.Den
	return out, residue, true
}

// splitDomainByResidue splits the domain into the part where the atom's
// argument has residue < threshold and the part where it is >= threshold
// (both modulo the atom's denominator).
func splitDomainByResidue(domain presburger.BasicSet, poly qpoly.QPoly, idx int, threshold int64) (presburger.BasicSet, presburger.BasicSet, bool) {
	withDiv, r, ok := domainWithAtomDiv(domain, poly, idx)
	if !ok {
		return presburger.BasicSet{}, presburger.BasicSet{}, false
	}
	// low: threshold - 1 - r >= 0
	low := r.Neg()
	low[0] += threshold - 1
	lowDom := withDiv.AddConstraint(presburger.Constraint{C: low})
	// high: r - threshold >= 0
	r[0] -= threshold
	highDom := withDiv.AddConstraint(presburger.Constraint{C: r})
	return lowDom, highDom, true
}

// residueClassDomain restricts the domain to the points where the atom's
// argument is congruent to r modulo the atom's denominator.
func residueClassDomain(domain presburger.BasicSet, poly qpoly.QPoly, idx int, r int64) (presburger.BasicSet, bool) {
	withDiv, v, ok := domainWithAtomDiv(domain, poly, idx)
	if !ok {
		return presburger.BasicSet{}, false
	}
	v[0] -= r
	return withDiv.AddConstraint(presburger.Constraint{C: v, Eq: true}), true
}
