package presburger

import (
	"fmt"
	"math"

	"haystack/internal/ints"
)

// maxFMConstraints bounds the number of constraints kept per elimination
// step during rational Fourier–Motzkin. Exceeding the bound drops the widest
// constraints, which weakens the system; both users of the rational
// projection (feasibility pruning and scan bounds) remain correct under
// weakening.
const maxFMConstraints = 512

// materializedConstraints returns b's constraints together with the
// defining constraints of every div (den*d <= num <= den*d + den - 1), so
// that divs can be treated as ordinary rational variables. Every row is
// ncols wide. Constraint rows of that width are shared with b, not copied:
// the consumers (rational elimination, the scanner, gist filtering) only
// read them and build new rows for what they derive. The header and the
// new rows come from sc (the heap when sc is nil).
func (b *basic) materializedConstraints(sc *predScratch) []Constraint {
	n := b.ncols()
	out := sc.header(len(b.cons) + 2*len(b.divs))
	for _, c := range b.cons {
		row := c.C
		if len(row) != n {
			row = sc.vec(n)
			copy(row, c.C)
		}
		out = append(out, Constraint{C: row, Eq: c.Eq})
	}
	return b.appendDivBounds(out, sc)
}

// appendDivBounds appends the defining bounds of every div
// (den*d <= num <= den*d + den - 1) to out as fresh ncols-wide rows taken
// from sc (the heap when sc is nil).
func (b *basic) appendDivBounds(out []Constraint, sc *predScratch) []Constraint {
	n := b.ncols()
	for i, d := range b.divs {
		col := b.divCol(i)
		num := clip(d.Num, n)
		lower := sc.vec(n) // num - den*d >= 0
		copy(lower, num)
		lower[col] -= d.Den
		upper := sc.vec(n) // den*d + den - 1 - num >= 0
		for j, x := range num {
			upper[j] = -x
		}
		upper[col] += d.Den
		upper[0] += d.Den - 1
		out = append(out, Constraint{C: lower}, Constraint{C: upper})
	}
	return out
}

// rationalEliminate removes the given column from the constraint system by
// rational Gaussian/Fourier–Motzkin elimination. The result is implied by
// the input (it is the rational shadow), so it is sound for pruning and for
// bound computation but not necessarily exact over the integers. The input
// rows are only read: rows without the column pass through shared, and
// every combination is a fresh row from sc (the heap when sc is nil),
// normalized in place.
func rationalEliminate(sc *predScratch, cons []Constraint, col int) []Constraint {
	// Prefer an equality pivot.
	for i, c := range cons {
		if c.Eq && c.C[col] != 0 && c.C[col] != math.MinInt64 {
			pivot := c
			out := sc.header(len(cons) - 1)
			for j, o := range cons {
				if j == i {
					continue
				}
				a := o.C[col]
				if a == 0 {
					out = append(out, o)
					continue
				}
				p := pivot.C[col]
				// p*o - a*pivot eliminates col; multiply so the inequality
				// direction is preserved (scale o by |p|).
				scale := ints.Abs(p)
				f := -a
				if p < 0 {
					f = a
				}
				if a == math.MinInt64 {
					// Negating a would wrap; drop the combination (weakening).
					continue
				}
				nc := sc.vec(len(o.C))
				if !combineInto(nc, scale, o.C, f, pivot.C) {
					// The combination wraps int64. Dropping it weakens the
					// projection, which every caller tolerates (like the
					// maxFMConstraints cap); keeping a wrapped constraint
					// would silently corrupt bounds.
					continue
				}
				nc[col] = 0
				row := Constraint{C: nc, Eq: o.Eq}
				normalizeConstraint(row)
				out = append(out, row)
			}
			return out
		}
	}
	// Size the result once: the rows without col, then one combination per
	// (lower, upper) pair, in that order.
	var nz, nl, nu int
	for _, c := range cons {
		switch a := c.C[col]; {
		case a == 0:
			nz++
		case a > 0:
			nl++
		default:
			nu++
		}
	}
	rest := sc.header(nz + nl*nu)
	for _, c := range cons {
		if c.C[col] == 0 {
			rest = append(rest, c)
		}
	}
	for _, lo := range cons {
		if lo.C[col] <= 0 {
			continue
		}
		for _, up := range cons {
			if up.C[col] >= 0 {
				continue
			}
			a := lo.C[col]
			if up.C[col] == math.MinInt64 {
				continue
			}
			bb := -up.C[col]
			nc := sc.vec(len(up.C))
			if !combineInto(nc, a, up.C, bb, lo.C) {
				// See the equality-pivot path: an overflowing combination is
				// dropped rather than kept wrapped.
				continue
			}
			nc[col] = 0
			row := Constraint{C: nc}
			normalizeConstraint(row)
			rest = append(rest, row)
		}
	}
	if len(rest) > maxFMConstraints {
		rest = rest[:maxFMConstraints]
	}
	return rest
}

var errDominanceOverflow = fmt.Errorf("%w: int64 overflow in a bound dominance row", ErrUnsupported)

// BoundDominance returns the constraints under which bound chosen binds
// among rows, which all bound column col from the same side: every row is
// c_i·x + e_i ≥ 0 with c_i of one sign, where x is column col and e_i is the
// row with col read as zero. Bound chosen binds where it is the largest
// lower bound (the smallest upper bound), ties going to the lower index, so
// the pieces a split over every choice yields are disjoint. For every other
// bound i, in order, the result holds the ncols-wide inequality
// |c_chosen|·e_i − |c_i|·e_chosen ≥ 0, with one subtracted from the constant
// when i < chosen. Rows may be narrower than ncols (missing columns read as
// zero); they are only read. A coefficient that would wrap int64 reports
// ErrUnsupported: a wrapped row would silently flip the dominance.
func BoundDominance(rows []Constraint, col, chosen, ncols int) ([]Constraint, error) {
	star := rows[chosen].C
	cStar := ints.Abs(star.At(col))
	out := make([]Constraint, 0, len(rows)-1)
	for i, r := range rows {
		if i == chosen {
			continue
		}
		ci := ints.Abs(r.C.At(col))
		if cStar < 0 || ci < 0 {
			return nil, errDominanceOverflow // |MinInt64| is not an int64
		}
		v := NewVec(ncols)
		for j := range v {
			if j == col {
				continue
			}
			d, ok := combineTry(cStar, r.C.At(j), -ci, star.At(j))
			if !ok {
				return nil, errDominanceOverflow
			}
			v[j] = d
		}
		if i < chosen {
			var ok bool
			if v[0], ok = ints.TrySub(v[0], 1); !ok {
				return nil, errDominanceOverflow
			}
		}
		out = append(out, Constraint{C: v})
	}
	return out, nil
}

// combineInto writes s*x + f*y into dst (len(x) wide) with overflow
// checking, reporting false if any component would wrap int64.
func combineInto(dst Vec, s int64, x Vec, f int64, y Vec) bool {
	for k := range dst {
		v, ok := combineTry(s, x[k], f, y[k])
		if !ok {
			return false
		}
		dst[k] = v
	}
	return true
}

// combineTry computes s*x + f*y for one coefficient, reporting false when a
// product or the sum would wrap int64.
func combineTry(s, x, f, y int64) (int64, bool) {
	v1, ok := ints.TryMul(s, x)
	if !ok {
		return 0, false
	}
	v2, ok := ints.TryMul(f, y)
	if !ok {
		return 0, false
	}
	return ints.TryAdd(v1, v2)
}

// rationalFeasible reports whether the basic set/map has a rational
// solution. A false result guarantees integer emptiness; a true result makes
// no integer claim beyond the divisibility rule of fmInfeasible.
func (b *basic) rationalFeasible() bool {
	sc := getPredScratch()
	defer putPredScratch(sc)
	return !fmInfeasible(sc, b.materializedConstraints(sc), b.ncols(), math.MaxInt)
}

// fmInfeasible eliminates every non-constant column of the ncols-wide
// system cons by rational Fourier–Motzkin and reports whether it derived a
// contradiction. It gives up, reporting false (feasible), as soon as a
// round leaves more than budget constraints. The rows of cons are only
// read; what the rounds derive lives in sc.
//
// Every column (dimension or div) holds an integer, so a derived equality
// g·f + c == 0 whose non-constant coefficients share a factor g that does
// not divide c is an integer contradiction even when rationally satisfiable.
// Checking it per elimination round catches the residue-class clashes
// (x ≡ r₁ and x ≡ r₂ mod m through two different floor divs) that the
// residue-splitting counting engine and subtraction chains produce by the
// thousands; purely rational reasoning keeps those pieces alive forever.
func fmInfeasible(sc *predScratch, cons []Constraint, ncols, budget int) bool {
	if hasDivisibilityContradiction(cons) {
		return true
	}
	for col := ncols - 1; col >= 1; col-- {
		cons = rationalEliminate(sc, cons, col)
		if hasDivisibilityContradiction(cons) {
			return true
		}
		if len(cons) > budget {
			return false
		}
	}
	for _, c := range cons {
		if c.Eq && c.C[0] != 0 {
			return true
		}
		if !c.Eq && c.C[0] < 0 {
			return true
		}
	}
	return false
}

// hasDivisibilityContradiction scans for an equality whose non-constant
// coefficients share a factor that does not divide the constant term — an
// integer infeasibility certificate (all columns are integer-valued).
func hasDivisibilityContradiction(cons []Constraint) bool {
	for _, c := range cons {
		if !c.Eq {
			continue
		}
		var g int64
		for _, x := range c.C[1:] {
			g = ints.GCD(g, x)
		}
		if g > 1 && c.C[0]%g != 0 {
			return true
		}
	}
	return false
}

// isObviouslyEmpty combines the cheap simplification checks with rational
// feasibility. It may return false for sets that are in fact empty over the
// integers; callers use it for pruning only. The simplified copy and every
// elimination row live in pooled scratch.
func (b *basic) isObviouslyEmpty() bool {
	sc := getPredScratch()
	defer putPredScratch(sc)
	cl := newBasicFrom(sc, b.ndim, b.divs, b.cons, 0)
	if !cl.simplify() {
		return true
	}
	return fmInfeasible(sc, cl.materializedConstraints(sc), cl.ncols(), math.MaxInt)
}

// evalRest evaluates the constant and prefix terms of a bound constraint
// (c[0] + sum of c[dimCol(j)]*prefix[j] for j < dim) with overflow checking.
// ok=false means the evaluation wrapped int64; callers must then treat the
// dimension as unbounded instead of using a corrupted bound. The result is
// additionally rejected when it equals MinInt64, because every caller
// negates it.
func evalRest(c Vec, b *basic, dim int, prefix []int64) (int64, bool) {
	rest := c[0]
	for j := 0; j < dim; j++ {
		p, ok := ints.TryMul(c[b.dimCol(j)], prefix[j])
		if !ok {
			return 0, false
		}
		rest, ok = ints.TryAdd(rest, p)
		if !ok {
			return 0, false
		}
	}
	if rest == math.MinInt64 {
		return 0, false
	}
	return rest, true
}
