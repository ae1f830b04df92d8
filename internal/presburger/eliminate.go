package presburger

import (
	"fmt"

	"haystack/internal/ints"
)

// eliminateDimCol existentially projects out the tuple dimension at column
// col. The strategies, in order, are:
//
//  1. the column is unused: drop it;
//  2. an equality constraint determines the column with coefficient ±1:
//     substitute;
//  3. an equality c*x == e with |c| > 1 determines the column up to
//     divisibility: introduce the div d = floor(e/c), require e == c*d, and
//     substitute x := d;
//  4. a pair of inequalities c*x <= e and c*x >= e-c+1 pins x to floor(e/c):
//     introduce the div and substitute;
//  5. exact Fourier–Motzkin elimination, which is valid over the integers
//     when every lower/upper bound pair has a unit coefficient on at least
//     one side.
//
// The function reports ErrUnsupported when none of the strategies apply
// exactly, or when a Fourier–Motzkin combination would wrap int64. After a
// successful return the column has been removed and later columns have
// shifted down by one.
func (b *basic) eliminateDimCol(col int) error {
	if col <= 0 || col > b.ndim {
		panic("presburger: eliminateDimCol of non-dimension column")
	}
	// Normalize constraints first so that shared factors (for example the
	// element size in cache line constraints) do not obscure unit
	// coefficients.
	for i := range b.cons {
		normalizeConstraint(b.cons[i])
	}
	if !b.usesColumn(col) {
		b.dropColumn(col)
		return nil
	}
	if b.tryEqualitySubstitution(col) {
		b.clearColumn(col)
		b.dropColumn(col)
		return nil
	}
	if b.tryFloorSubstitution(col) {
		b.clearColumn(col)
		b.dropColumn(col)
		return nil
	}
	if b.divUsesColumn(col) {
		return fmt.Errorf("%w: cannot Fourier-Motzkin eliminate a dimension referenced by a div", ErrUnsupported)
	}
	if err := b.fourierMotzkin(col); err != nil {
		return err
	}
	b.dropColumn(col)
	return nil
}

// clearColumn removes leftover constraints that still mention col (the
// defining constraints that substitution turned into tautologies keep a
// reference through rounding; they are sound to drop because the column is
// existential at this point only if they are implied). It only drops
// constraints that reduce to the defining pattern of the introduced div.
func (b *basic) clearColumn(col int) {
	out := b.cons[:0]
	for _, c := range b.cons {
		if c.C[col] != 0 {
			// A defining constraint became, e.g., 0 >= 0 after substitution
			// would have a zero coefficient; anything still mentioning the
			// column after an exact substitution is unexpected.
			panic("presburger: column still referenced after substitution")
		}
		out = append(out, c)
	}
	b.cons = out
}

// tryEqualitySubstitution looks for an equality that determines col with a
// unit coefficient and substitutes it. Equalities whose substitution would
// corrupt a div definition (see substitutionBreaksDivs) are skipped.
func (b *basic) tryEqualitySubstitution(col int) bool {
	for i, c := range b.cons {
		if !c.Eq || c.C[col] == 0 {
			continue
		}
		a := c.C[col]
		if a != 1 && a != -1 {
			continue
		}
		// a*x + rest == 0  =>  x == -rest/a, a sign flip for a = ±1.
		expr := NewVec(b.ncols())
		for j := range c.C {
			if j == col {
				continue
			}
			if a > 0 {
				expr[j] = -c.C[j]
			} else {
				expr[j] = c.C[j]
			}
		}
		if b.substitutionBreaksDivs(col, expr) {
			continue
		}
		// Remove the defining constraint, substitute elsewhere.
		b.cons = append(b.cons[:i], b.cons[i+1:]...)
		b.substituteColumn(col, expr, 1)
		return true
	}
	return false
}

// substitutionBreaksDivs reports whether substituting col by expr would make
// a div numerator reference the div itself or a later div: a div numerator
// may only use columns defined before it, so an expression carrying a div
// column d can be substituted only into divs defined after d. The equality
// k == 8*floor(k/8) (an aligned loop bound) is the canonical trap —
// substituting k into floor(k/8)'s own numerator makes the definition
// circular and silently evaluates wrong.
func (b *basic) substitutionBreaksDivs(col int, expr Vec) bool {
	maxDivCol := -1
	for j := 1 + b.ndim; j < len(expr); j++ {
		if expr[j] != 0 && j > maxDivCol {
			maxDivCol = j
		}
	}
	if maxDivCol < 0 {
		return false
	}
	for i := range b.divs {
		if b.divs[i].Num.At(col) != 0 && b.divCol(i) <= maxDivCol {
			return true
		}
	}
	return false
}

// tryDivisibilityEquality handles c*x == e with |c| > 1 by introducing the
// div d = floor(e/c), the divisibility constraint e == c*d, and substituting
// x := d.
func (b *basic) tryDivisibilityEquality(col int) bool {
	if b.divUsesColumn(col) {
		// The substitution below replaces col by a freshly added div, which
		// existing div numerators referencing col must not point at (their
		// definitions may only use earlier columns).
		return false
	}
	for i, c := range b.cons {
		if !c.Eq || c.C[col] == 0 {
			continue
		}
		a := c.C[col]
		// a*x + rest == 0 => x = -rest/a.
		den := ints.Abs(a)
		e := NewVec(b.ncols())
		for j := range c.C {
			if j == col {
				continue
			}
			if a > 0 {
				e[j] = -c.C[j]
			} else {
				e[j] = c.C[j]
			}
		}
		b.cons = append(b.cons[:i], b.cons[i+1:]...)
		dcol := b.addDiv(e, den)
		// divisibility: e - den*d == 0
		div := NewVec(b.ncols())
		copy(div, e)
		div[dcol] -= den
		b.addConstraint(Constraint{C: div, Eq: true})
		// x := d
		expr := NewVec(b.ncols())
		expr[dcol] = 1
		b.substituteColumn(col, expr, 1)
		return true
	}
	return false
}

// tryFloorSubstitution detects the pattern c*x <= e together with
// c*x >= e - c + 1 (which pins x to floor(e/c)) and substitutes the div.
// It also handles the divisibility-equality case as a special form.
func (b *basic) tryFloorSubstitution(col int) bool {
	if b.tryDivisibilityEquality(col) {
		return true
	}
	if b.divUsesColumn(col) {
		// Same restriction as in tryDivisibilityEquality: the pattern below
		// substitutes col by a new (last) div column.
		return false
	}
	// Look for matching upper/lower pairs.
	for i, up := range b.cons {
		if up.Eq {
			continue
		}
		a := up.C[col]
		if a >= 0 {
			continue
		}
		c := -a // up: e - c*x >= 0  =>  c*x <= e
		if c == 1 {
			continue // handled by FM cheaply; no div needed
		}
		e := up.C.Clone()
		e[col] = 0
		for j, lo := range b.cons {
			if j == i || lo.Eq || lo.C[col] != c {
				continue
			}
			// lo: c*x + f >= 0  =>  c*x >= -f. Pattern needs -f == e - c + 1,
			// i.e. f + e == c - 1 componentwise on the constant and equal
			// elsewhere with opposite signs.
			match := true
			for k := range lo.C {
				want := -e[k]
				if k == 0 {
					want = -(e[0] - c + 1)
				}
				if k == col {
					continue
				}
				if lo.C[k] != want {
					match = false
					break
				}
			}
			if !match {
				continue
			}
			// x = floor(e/c).
			// Remove both defining constraints (higher index first).
			hi, lo2 := i, j
			if hi < lo2 {
				hi, lo2 = lo2, hi
			}
			b.cons = append(b.cons[:hi], b.cons[hi+1:]...)
			b.cons = append(b.cons[:lo2], b.cons[lo2+1:]...)
			dcol := b.addDiv(e, c)
			expr := NewVec(b.ncols())
			expr[dcol] = 1
			b.substituteColumn(col, expr, 1)
			return true
		}
	}
	return false
}

// fourierMotzkin eliminates col by combining lower and upper bounds. It is
// exact over the integers only if each combined pair has a unit coefficient
// on at least one side; otherwise, or when a combination would wrap int64,
// ErrUnsupported is returned and the basic set is left unchanged.
func (b *basic) fourierMotzkin(col int) error {
	var lowers, uppers, rest []Constraint
	for _, c := range b.cons {
		a := c.C[col]
		switch {
		case a == 0:
			rest = append(rest, c)
		case c.Eq:
			// An equality with non-unit coefficient should have been handled
			// by tryDivisibilityEquality; with unit coefficient by
			// tryEqualitySubstitution.
			return fmt.Errorf("%w: unexpected equality during Fourier-Motzkin", ErrUnsupported)
		case a > 0:
			lowers = append(lowers, c)
		default:
			uppers = append(uppers, c)
		}
	}
	for _, lo := range lowers {
		for _, up := range uppers {
			a := lo.C[col]   // > 0:  a*x >= -lo_rest
			bb := -up.C[col] // > 0:  bb*x <= up_rest
			if a != 1 && bb != 1 {
				return fmt.Errorf("%w: non-unit coefficients %d and %d in Fourier-Motzkin", ErrUnsupported, a, bb)
			}
			// a*up + bb*lo has zero coefficient at col.
			nc := NewVec(b.ncols())
			if !combineInto(nc, a, up.C, bb, lo.C) {
				return fmt.Errorf("%w: int64 overflow combining bounds in Fourier-Motzkin", ErrUnsupported)
			}
			nc[col] = 0
			rest = append(rest, Constraint{C: nc})
		}
	}
	b.cons = rest
	return nil
}

// eliminateDimCols eliminates several dimension columns (given as current
// column indices, which must be sorted ascending). Columns are processed
// from the highest index down so earlier indices stay valid.
func (b *basic) eliminateDimCols(cols []int) error {
	for i := len(cols) - 1; i >= 0; i-- {
		if err := b.eliminateDimCol(cols[i]); err != nil {
			return err
		}
	}
	b.debugAssert("projection", false)
	return nil
}

// eliminateDimColApprox projects out the column like eliminateDimCol, but
// never fails: when the exact strategies do not apply, the projection is
// over-approximated — divs that (transitively) reference the column are
// dropped together with every constraint mentioning them, and the column is
// then eliminated by its rational shadow (rationalEliminate), which drops
// combinations that would wrap int64 and caps the row count. Every point of
// the exact projection satisfies the result, so the result is a superset.
// Callers that only need candidate values to test against the exact set
// (enumeration) stay exact.
func (b *basic) eliminateDimColApprox(col int) {
	if err := b.eliminateDimCol(col); err == nil {
		return
	}
	// Drop divs that transitively reference the column.
	removed := make([]bool, len(b.divs))
	for {
		changed := false
		for i := range b.divs {
			if removed[i] {
				continue
			}
			num := b.divs[i].Num
			if num.At(col) != 0 {
				removed[i], changed = true, true
				continue
			}
			for j := range b.divs {
				if removed[j] && num.At(b.divCol(j)) != 0 {
					removed[i], changed = true, true
					break
				}
			}
		}
		if !changed {
			break
		}
	}
	keep := b.cons[:0]
	for _, c := range b.cons {
		cc := fit(c.C, b.ncols())
		drop := false
		for i := range b.divs {
			if removed[i] && cc[b.divCol(i)] != 0 {
				drop = true
				break
			}
		}
		if !drop {
			keep = append(keep, Constraint{C: cc, Eq: c.Eq})
		}
	}
	b.cons = keep
	for i := len(b.divs) - 1; i >= 0; i-- {
		if removed[i] {
			// Unreferenced now: constraints mentioning it were dropped and
			// surviving divs cannot reference a removed div by construction.
			b.divs[i].Num = NewVec(b.ncols())
			b.dropColumn(b.divCol(i))
		}
	}
	// With the offending divs gone the exact strategies may apply again.
	if err := b.eliminateDimCol(col); err == nil {
		return
	}
	b.cons = rationalEliminate(nil, b.cons, col)
	b.dropColumn(col)
}
