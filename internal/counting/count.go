package counting

import (
	"fmt"

	"haystack/internal/budget"
	"haystack/internal/ints"
	"haystack/internal/presburger"
	"haystack/internal/qpoly"
)

// ErrBudget reports that a budgeted count exceeded its cost limit. It is an
// alias for budget.ErrExceeded, so errors.Is(err, ErrBudget) matches every
// budget.Exceeded regardless of the stage that produced it. The caller can
// fall back to a different counting strategy or to certified interval
// bounds; the result is never silently truncated.
var ErrBudget = budget.ErrExceeded

// CardBasicSet counts the integer points of bs parametrically in its first
// nParam dimensions: the result maps every value of the parameter dimensions
// to the number of points of the remaining dimensions. The piece domains of
// the result live in paramSpace (which must have nParam dimensions). The
// budget operation is charged one cost unit per intermediate system of the
// summation (every (lower bound, upper bound) pair of an eliminated
// dimension and every residue class of a floor split); a nil op is
// unlimited, and exceeding a limited op returns a budget.Exceeded error
// matching ErrBudget.
func CardBasicSet(bs presburger.BasicSet, nParam int, paramSpace presburger.Space, op *budget.Op) (qpoly.PwQPoly, error) {
	summands, err := CardBasicSetSummands(bs, nParam, paramSpace, op)
	if err != nil {
		return qpoly.PwQPoly{}, err
	}
	// The summand domains may overlap (they were made disjoint only with
	// respect to the counted dimensions). Fold them into a disjoint piecewise
	// quasi-polynomial so that every parameter point is covered by exactly
	// one piece.
	result := qpoly.ZeroPw(paramSpace)
	for _, s := range summands.Terms {
		result = result.Add(s)
	}
	return result, nil
}

// CardBasicSetSummands is the sum form of CardBasicSet: it returns the
// per-system cardinalities as a qpoly.PwSum (overlapping domains, sum
// semantics) without the quadratic disjointness fold of CardBasicSet. For
// counts that are only evaluated — never compared piecewise — this is
// dramatically cheaper when the summation fans out into many systems. The
// budget operation is charged one cost unit per intermediate system; a nil
// op is unlimited.
func CardBasicSetSummands(bs presburger.BasicSet, nParam int, paramSpace presburger.Space, op *budget.Op) (qpoly.PwSum, error) {
	if paramSpace.Dim() != nParam {
		panic("counting: parameter space arity mismatch")
	}
	// Every surviving (lower, upper) bound pair of a summed dimension fans
	// out into its own system, and every div-referenced dimension residue
	// splits, so redundant bounds and orphaned divs multiply the work.
	// Dropping them first is exact and routinely an order of magnitude on
	// the subtraction-derived pieces of the cache model.
	trimmed, ok := bs.RemoveRedundancies()
	if !ok {
		return qpoly.ZeroSum(paramSpace), nil
	}
	presburger.DebugAssertBasicSet(trimmed, "redundancy elimination")
	sys := newSystem(trimmed, nParam)
	systems := []*system{sys}
	// Sum the counted dimensions in a fan-out-minimizing order: every
	// (lower, upper) bound pair and every residue class of a floor split
	// multiplies the system count, so dimensions that are pinned by an
	// equality or floor-free go first. Summation over integer points is
	// order independent, and the scoring is deterministic, so the result is
	// exact and reproducible. The fixed innermost-first order forced, e.g.,
	// the cache-line dimension of a triangular access to residue-split the
	// array dimension 8 ways before the cheap equality elimination could run.
	remaining := make([]int, 0, bs.NDim()-nParam)
	for dim := bs.NDim() - 1; dim >= nParam; dim-- {
		remaining = append(remaining, dim)
	}
	for len(remaining) > 0 {
		pick := 0
		best := int64(-1)
		for i, dim := range remaining {
			score := int64(0)
			for _, s := range systems {
				score += s.fanOutEstimate(dim)
			}
			if best < 0 || score < best {
				best, pick = score, i
			}
		}
		dim := remaining[pick]
		remaining = append(remaining[:pick], remaining[pick+1:]...)
		var next []*system
		for _, s := range systems {
			out, err := s.sumOutDim(dim)
			if err != nil {
				return qpoly.PwSum{}, err
			}
			for _, o := range out {
				if !o.definitelyEmpty() {
					next = append(next, o)
				}
			}
			// The fan-out compounds across elimination rounds, so the budget
			// is charged while a round accumulates, not after it: a single
			// round can otherwise burn minutes before the check runs.
			if err := op.Charge(int64(len(out))); err != nil {
				return qpoly.PwSum{}, err
			}
		}
		systems = next
	}
	result := qpoly.ZeroSum(paramSpace)
	for _, s := range systems {
		piece, err := s.toPiece(paramSpace)
		if err != nil {
			return qpoly.PwSum{}, err
		}
		if piece.Poly.IsZero() {
			continue // empty or zero-count piece
		}
		// The sum is uniquely owned here; append in place instead of paying
		// Add's defensive copy once per system.
		result.Terms = append(result.Terms, qpoly.SinglePiece(piece.Domain, piece.Poly))
	}
	return result, nil
}

// toPiece converts a fully summed system (no counted dimension referenced)
// into a result piece over the parameter space.
func (s *system) toPiece(paramSpace presburger.Space) (qpoly.Piece, error) {
	// Remap the polynomial onto the parameter variables.
	varMap := make([]int, s.ndim)
	for i := range varMap {
		if i < s.nParam {
			varMap[i] = i
		} else {
			varMap[i] = -1
		}
	}
	poly, ok := s.poly.MapVars(s.nParam, varMap)
	if !ok {
		return qpoly.Piece{}, fmt.Errorf("%w: polynomial still references a counted dimension", ErrUnsupported)
	}
	// Rebuild the domain over the parameter dimensions only: drop the counted
	// dimension columns (all unreferenced at this point).
	shift := func(v presburger.Vec) (presburger.Vec, error) {
		v = v.Resized(s.ncols())
		out := presburger.NewVec(1 + s.nParam + len(s.divs))
		out[0] = v[0]
		for i := 0; i < s.nParam; i++ {
			out[1+i] = v[s.dimCol(i)]
		}
		for i := s.nParam; i < s.ndim; i++ {
			if v[s.dimCol(i)] != 0 {
				return nil, fmt.Errorf("%w: counted dimension %d still referenced by the domain", ErrUnsupported, i)
			}
		}
		for i := range s.divs {
			out[1+s.nParam+i] = v[s.divCol(i)]
		}
		return out, nil
	}
	divs := make([]presburger.Div, len(s.divs))
	for i, d := range s.divs {
		num, err := shift(d.Num)
		if err != nil {
			return qpoly.Piece{}, err
		}
		divs[i] = presburger.Div{Num: num, Den: d.Den}
	}
	cons := make([]presburger.Constraint, len(s.cons))
	for i, c := range s.cons {
		cv, err := shift(c.C)
		if err != nil {
			return qpoly.Piece{}, err
		}
		cons[i] = presburger.Constraint{C: cv, Eq: c.Eq}
	}
	domain := presburger.NewBasicSet(paramSpace, divs, cons)
	// Normalize the domain: constant divs fold away, residue-split leftovers
	// like 63 >= 0 drop, and div numerators gcd-reduce — the canonical shape
	// the piecewise layer needs to recognize equal and disjoint domains. An
	// empty domain yields an explicit zero piece the caller skips.
	if simplified, ok := domain.Simplify(); ok {
		domain = simplified
	} else {
		return qpoly.Piece{Domain: domain, Poly: qpoly.Zero(poly.NVar)}, nil
	}
	return qpoly.Piece{Domain: domain, Poly: poly}, nil
}

// sumOutDim sums the system over dimension dim, returning the resulting
// sub-systems (one per generated piece). After the call none of the returned
// systems references dim.
func (s *system) sumOutDim(dim int) ([]*system, error) {
	// Step 1: remove dependence of divs and polynomial atoms on dim by
	// splitting dim into residue classes (rasterization at the counting
	// level). This may need several rounds for nested divs.
	systems := []*system{s}
	for round := 0; round < 8; round++ {
		var next []*system
		changed := false
		for _, sys := range systems {
			if sys.hasDimDependentFloors(dim) {
				changed = true
				split, err := sys.splitResidues(dim)
				if err != nil {
					return nil, err
				}
				next = append(next, split...)
			} else {
				next = append(next, sys)
			}
		}
		systems = next
		if !changed {
			break
		}
	}
	for _, sys := range systems {
		if sys.hasDimDependentFloors(dim) {
			return nil, fmt.Errorf("%w: could not remove floor dependence on dimension %d", ErrUnsupported, dim)
		}
	}
	// Step 2/3: eliminate via an equality or sum over the bounds.
	var out []*system
	for _, sys := range systems {
		res, err := sys.sumOutDimNoFloors(dim)
		if err != nil {
			return nil, err
		}
		out = append(out, res...)
	}
	return out, nil
}

// hasDimDependentFloors reports whether any div or polynomial atom depends on
// the dimension.
func (s *system) hasDimDependentFloors(dim int) bool {
	dep := s.divDependsOnDim(dim)
	for _, d := range dep {
		if d {
			return true
		}
	}
	return len(s.poly.AtomsDependingOnVar(dim)) > 0
}

// splitResidues splits dimension dim into residue classes modulo the least
// common multiple of the denominators of the floors that directly reference
// it, substituting dim := P*t + r (the dimension column is reused for t).
func (s *system) splitResidues(dim int) ([]*system, error) {
	col := s.dimCol(dim)
	var period int64 = 1
	for _, d := range s.divs {
		if d.Num.Resized(s.ncols())[col] != 0 {
			period = ints.LCM(period, d.Den)
		}
	}
	for _, a := range s.poly.Atoms {
		if 1+dim < len(a.Num) && a.Num[1+dim] != 0 {
			period = ints.LCM(period, a.Den)
		}
	}
	if period == 1 {
		// Only transitive dependence: substituting with period 1 makes no
		// progress; report unsupported (rare nesting case).
		return nil, fmt.Errorf("%w: nested floor dependence on dimension %d", ErrUnsupported, dim)
	}
	if period > 1024 {
		return nil, fmt.Errorf("%w: residue period %d too large", ErrUnsupported, period)
	}
	var out []*system
	for r := int64(0); r < period; r++ {
		if !s.residueFeasible(dim, period, r) {
			continue
		}
		sub, err := s.substituteProgression(dim, period, r)
		if err != nil {
			return nil, err
		}
		if !sub.definitelyEmpty() {
			out = append(out, sub)
		}
	}
	return out, nil
}

// residueFeasible is a clone-free pre-filter for residue classes: it applies
// the substitution dim := P*t + r to every equality constraint and rejects
// the class when the resulting coefficients share a factor that does not
// divide the constant (the integer-divisibility contradiction that kills
// most classes when an equality like j == 8*floor(j/8) pins the residue).
// Returning true makes no feasibility claim.
func (s *system) residueFeasible(dim int, period, r int64) bool {
	col := s.dimCol(dim)
	for _, c := range s.cons {
		if !c.Eq {
			continue
		}
		cc := c.C.Resized(s.ncols())
		a := cc[col]
		if a == 0 {
			continue
		}
		// All products are overflow-checked: this is a pre-filter, and a
		// wrapped product could silently reject a feasible residue class
		// (wrong counts), so on overflow we make no claim instead.
		g, ok := ints.TryMul(a, period)
		if !ok {
			return true
		}
		for j := 1; j < len(cc); j++ {
			if j == col {
				continue
			}
			g = ints.GCD(g, cc[j])
		}
		if g > 1 {
			ar, ok := ints.TryMul(a, r)
			if !ok {
				return true
			}
			k, ok := ints.TryAdd(cc[0], ar)
			if !ok {
				return true
			}
			if k%g != 0 {
				return false
			}
		}
	}
	return true
}

// substituteProgression substitutes dim := P*dim + r throughout the system
// (constraints, div numerators, polynomial) and simplifies divs that directly
// referenced dim into an affine part plus a new dim-free div.
func (s *system) substituteProgression(dim int, period, r int64) (*system, error) {
	out := s.clone()
	col := out.dimCol(dim)
	// The substituted coefficients a*period and constants c0 + a*r are
	// overflow-checked: a silent wrap here fabricates a different residue
	// system and corrupts counts, so overflow degrades to ErrUnsupported
	// (the caller falls back to enumeration or the bounded tier).
	subst := func(v presburger.Vec) (presburger.Vec, error) {
		a := v[col]
		if a == 0 {
			return v, nil
		}
		ar, ok1 := ints.TryMul(a, r)
		ap, ok2 := ints.TryMul(a, period)
		if !ok1 || !ok2 {
			return nil, fmt.Errorf("%w: int64 overflow substituting progression with coefficient %d and period %d", ErrUnsupported, a, period)
		}
		k, ok := ints.TryAdd(v[0], ar)
		if !ok {
			return nil, fmt.Errorf("%w: int64 overflow substituting progression constant", ErrUnsupported)
		}
		v[0] = k
		v[col] = ap
		return v, nil
	}
	// Constraints.
	for i := range out.cons {
		c, err := subst(out.cons[i].C.Resized(out.ncols()))
		if err != nil {
			return nil, err
		}
		out.cons[i].C = c
	}
	// Div numerators.
	for i := range out.divs {
		num, err := subst(out.divs[i].Num.Resized(out.ncols()))
		if err != nil {
			return nil, err
		}
		out.divs[i].Num = num
	}
	// Now rewrite divs that reference dim directly: floor((a*P*t + rest)/den)
	// with den | a*P  ->  (a*P/den)*t + floor(rest/den).
	for i := 0; i < len(out.divs); i++ {
		num := out.divs[i].Num.Resized(out.ncols())
		a := num[col]
		if a == 0 {
			continue
		}
		den := out.divs[i].Den
		if a%den != 0 {
			return nil, fmt.Errorf("%w: residual coefficient %d not divisible by %d after progression substitution", ErrUnsupported, a, den)
		}
		rest := num.Clone()
		rest[col] = 0
		newCol := out.addDiv(rest, den)
		// Replace references to div i by (a/den)*t + newDiv.
		oldCol := out.divCol(i)
		factor := a / den
		overflow := false
		replace := func(v presburger.Vec) presburger.Vec {
			v = v.Resized(out.ncols())
			if k := v[oldCol]; k != 0 {
				kf, ok1 := ints.TryMul(k, factor)
				nc, ok2 := ints.TryAdd(v[col], kf)
				if !ok1 || !ok2 {
					overflow = true
					return v
				}
				v[col] = nc
				v[newCol] += k
				v[oldCol] = 0
			}
			return v
		}
		for j := range out.cons {
			out.cons[j].C = replace(out.cons[j].C)
		}
		for j := range out.divs {
			if j == i {
				continue
			}
			out.divs[j].Num = replace(out.divs[j].Num)
		}
		if overflow {
			return nil, fmt.Errorf("%w: int64 overflow rewriting div references under progression substitution", ErrUnsupported)
		}
		// Neutralize the old div so it no longer depends on dim (it is now
		// unreferenced).
		out.divs[i] = presburger.Div{Num: presburger.NewVec(out.ncols()), Den: 1}
	}
	// Polynomial. Two passes: first rewrite the explicit occurrences of dim
	// (which still denote the original variable) as P*t + r, then rewrite the
	// atoms that reference dim, whose replacement is already expressed in
	// terms of the new progression variable t.
	poly := out.poly
	progression := qpoly.Var(poly.NVar, dim).Scale(ints.RatInt(period)).Add(qpoly.ConstInt(poly.NVar, r))
	poly = poly.SubstitutePlainVar(dim, progression)
	for {
		idxs := directAtomRefs(poly, dim)
		if len(idxs) == 0 {
			break
		}
		idx := idxs[len(idxs)-1] // the highest dim-dependent atom is referenced by no other atom
		a := poly.Atoms[idx]
		coef := a.Num[1+dim]
		coefPeriod, ok1 := ints.TryMul(coef, period)
		coefR, ok2 := ints.TryMul(coef, r)
		if !ok1 || !ok2 {
			return nil, fmt.Errorf("%w: int64 overflow in atom coefficient %d under period %d", ErrUnsupported, coef, period)
		}
		if coefPeriod%a.Den != 0 {
			return nil, fmt.Errorf("%w: polynomial atom coefficient %d not divisible by %d", ErrUnsupported, coefPeriod, a.Den)
		}
		// floor((coef*(P*t+r) + rest)/den) = (coef*P/den)*t + floor((coef*r + rest)/den).
		restNum := append([]int64(nil), a.Num...)
		restNum[1+dim] = 0
		rest0, ok := ints.TryAdd(restNum[0], coefR)
		if !ok {
			return nil, fmt.Errorf("%w: int64 overflow in atom constant under progression substitution", ErrUnsupported)
		}
		restNum[0] = rest0
		carrier, newIdx := poly.WithAtom(restNum, a.Den)
		repl := carrier.AtomPoly(newIdx).Add(qpoly.Var(poly.NVar, dim).Scale(ints.RatInt(coefPeriod / a.Den)))
		poly, ok = poly.SubstituteAtom(idx, repl)
		if !ok {
			return nil, fmt.Errorf("%w: atom substitution failed", ErrUnsupported)
		}
	}
	out.poly = poly
	return out, nil
}

// directAtomRefs returns the indices of atoms whose numerator directly
// references the variable.
func directAtomRefs(p qpoly.QPoly, v int) []int {
	var out []int
	for i, a := range p.Atoms {
		if 1+v < len(a.Num) && a.Num[1+v] != 0 {
			out = append(out, i)
		}
	}
	return out
}

// sumOutDimNoFloors eliminates dim under the precondition that no div or
// polynomial atom depends on it.
func (s *system) sumOutDimNoFloors(dim int) ([]*system, error) {
	col := s.dimCol(dim)
	// Equality strategy.
	for i, c := range s.cons {
		if c.Eq && c.C.Resized(s.ncols())[col] != 0 {
			return s.eliminateByEquality(dim, i)
		}
	}
	// Bound summation strategy.
	var lowers, uppers []presburger.Constraint
	var rest []presburger.Constraint
	for _, c := range s.cons {
		cc := c.C.Resized(s.ncols())
		a := cc[col]
		switch {
		case a == 0:
			rest = append(rest, presburger.Constraint{C: cc, Eq: c.Eq})
		case a > 0:
			lowers = append(lowers, presburger.Constraint{C: cc})
		default:
			uppers = append(uppers, presburger.Constraint{C: cc})
		}
	}
	if !s.poly.UsesVar(dim) && len(lowers) == 0 && len(uppers) == 0 {
		// Dimension is completely unconstrained and unused: it must have been
		// eliminated earlier (projection); treat as a single-valued
		// dimension would be wrong, so report unboundedness.
		return nil, fmt.Errorf("%w: dimension %d", ErrUnbounded, dim)
	}
	if len(lowers) == 0 || len(uppers) == 0 {
		return nil, fmt.Errorf("%w: dimension %d", ErrUnbounded, dim)
	}
	var out []*system
	for li := range lowers {
		for ui := range uppers {
			sub, err := s.sumBetweenBounds(dim, lowers, uppers, li, ui, rest)
			if err != nil {
				return nil, err
			}
			if sub != nil && !sub.definitelyEmpty() {
				out = append(out, sub)
			}
		}
	}
	return out, nil
}

// eliminateByEquality eliminates dim using the equality constraint at index
// consIdx (a*dim + e == 0).
func (s *system) eliminateByEquality(dim, consIdx int) ([]*system, error) {
	out := s.clone()
	col := out.dimCol(dim)
	c := out.cons[consIdx].C.Resized(out.ncols())
	a := c[col]
	out.cons = append(out.cons[:consIdx], out.cons[consIdx+1:]...)

	var exprVec presburger.Vec
	den := ints.Abs(a)
	// a*dim + e == 0  =>  dim = -e/a.
	exprVec = presburger.NewVec(out.ncols())
	for j := range c {
		if j == col {
			continue
		}
		if a > 0 {
			exprVec[j] = -c[j]
		} else {
			exprVec[j] = c[j]
		}
	}
	if den > 1 {
		// dim = exprVec/den: introduce the div d = floor(exprVec/den) plus a
		// divisibility constraint, and use d as the substitution expression.
		dcol := out.addDiv(exprVec, den)
		exprVec = exprVec.Resized(out.ncols())
		divisibility := exprVec.Clone()
		divisibility[dcol] -= den
		out.cons = append(out.cons, presburger.Constraint{C: divisibility, Eq: true})
		newExpr := presburger.NewVec(out.ncols())
		newExpr[dcol] = 1
		exprVec = newExpr
	}
	// Substitute in constraints and div numerators.
	substitute := func(v presburger.Vec) presburger.Vec {
		v = v.Resized(out.ncols())
		k := v[col]
		if k == 0 {
			return v
		}
		nv := v.Clone()
		for j := range nv {
			nv[j] += k * exprVec.Resized(out.ncols())[j]
		}
		nv[col] = 0
		return nv
	}
	for i := range out.cons {
		out.cons[i].C = substitute(out.cons[i].C)
	}
	for i := range out.divs {
		if out.divs[i].Num.Resized(out.ncols())[col] != 0 {
			return nil, fmt.Errorf("%w: div still depends on substituted dimension", ErrUnsupported)
		}
	}
	// Substitute in the polynomial.
	if out.poly.UsesVar(dim) {
		exprPoly := out.vecToQPoly(exprVec)
		p, ok := out.poly.SubstituteVar(dim, exprPoly)
		if !ok {
			return nil, fmt.Errorf("%w: polynomial substitution failed", ErrUnsupported)
		}
		out.poly = p
	}
	return []*system{out}, nil
}

// sumBetweenBounds produces the sub-system for the piece on which lower
// bound li and upper bound ui are the binding bounds, summing the polynomial
// over that range.
func (s *system) sumBetweenBounds(dim int, lowers, uppers []presburger.Constraint, li, ui int, rest []presburger.Constraint) (*system, error) {
	out := s.clone()
	col := out.dimCol(dim)
	out.cons = nil
	for _, c := range rest {
		out.cons = append(out.cons, presburger.Constraint{C: c.C.Clone(), Eq: c.Eq})
	}

	boundVal := func(c presburger.Constraint) (coef int64, e presburger.Vec) {
		cc := c.C.Resized(s.ncols())
		e = cc.Clone()
		coef = cc[col]
		e[col] = 0
		return coef, e
	}

	// crossDiff builds a*x - b*y per column with overflow-checked products:
	// the bound pair cross-multiplies are the largest intermediates of the
	// counting pipeline (coefficient × coefficient), and a wrapped value
	// here silently flips a dominance constraint.
	crossDiff := func(a int64, x presburger.Vec, b int64, y presburger.Vec) (presburger.Vec, error) {
		c := presburger.NewVec(out.ncols())
		xr := x.Resized(out.ncols())
		yr := y.Resized(out.ncols())
		for j := range c {
			ax, ok1 := ints.TryMul(a, xr[j])
			by, ok2 := ints.TryMul(b, yr[j])
			d, ok3 := ints.TrySub(ax, by)
			if !ok1 || !ok2 || !ok3 {
				return nil, fmt.Errorf("%w: int64 overflow in bound-pair cross product", ErrUnsupported)
			}
			c[j] = d
		}
		return c, nil
	}

	// Dominance constraints among lower bounds: chosen bound li is the
	// largest; ties are broken towards the smaller index to keep pieces
	// disjoint. lower bound value for constraint (a, e): -e/a.
	aStar, eStar := boundVal(lowers[li])
	for i := range lowers {
		if i == li {
			continue
		}
		ai, ei := boundVal(lowers[i])
		// (-eStar)/aStar >= (-ei)/ai  <=>  aStar*ei - ai*eStar >= 0
		c, err := crossDiff(aStar, ei, ai, eStar)
		if err != nil {
			return nil, err
		}
		if i < li {
			c[0]-- // strict to keep pieces disjoint
		}
		out.cons = append(out.cons, presburger.Constraint{C: c})
	}
	bStar, fStar := boundVal(uppers[ui])
	bStar = -bStar
	for j := range uppers {
		if j == ui {
			continue
		}
		bj, fj := boundVal(uppers[j])
		bj = -bj
		// fStar/bStar <= fj/bj  <=>  bStar*fj - bj*fStar >= 0
		c, err := crossDiff(bStar, fj, bj, fStar)
		if err != nil {
			return nil, err
		}
		if j < ui {
			c[0]--
		}
		out.cons = append(out.cons, presburger.Constraint{C: c})
	}

	// Bound expressions: lo = ceil(-eStar/aStar), hi = floor(fStar/bStar).
	loVec, loPoly, err := out.ceilExpr(eStar.Neg(), aStar)
	if err != nil {
		return nil, err
	}
	hiVec, hiPoly, err := out.floorExpr(fStar, bStar)
	if err != nil {
		return nil, err
	}
	// Piece requires lo <= hi: hi - lo >= 0.
	nonEmpty := presburger.NewVec(out.ncols())
	for j := range nonEmpty {
		nonEmpty[j] = hiVec.Resized(out.ncols())[j] - loVec.Resized(out.ncols())[j]
	}
	out.cons = append(out.cons, presburger.Constraint{C: nonEmpty})

	sum, ok := qpoly.SumOverRange(out.poly, dim, loPoly, hiPoly)
	if !ok {
		return nil, fmt.Errorf("%w: symbolic summation over dimension %d failed", ErrUnsupported, dim)
	}
	out.poly = sum
	return out, nil
}

// ceilExpr returns ceil(e/a) for a > 0 as a column vector (adding a div when
// a > 1) together with the equivalent quasi-polynomial.
func (s *system) ceilExpr(e presburger.Vec, a int64) (presburger.Vec, qpoly.QPoly, error) {
	if a <= 0 {
		return nil, qpoly.QPoly{}, fmt.Errorf("%w: non-positive bound coefficient", ErrUnsupported)
	}
	if a == 1 {
		v := e.Resized(s.ncols())
		return v, s.vecToQPoly(v), nil
	}
	// ceil(e/a) = floor((e + a - 1)/a)
	num := e.Resized(s.ncols()).Clone()
	num[0] += a - 1
	return s.floorExpr(num, a)
}

// floorExpr returns floor(e/a) for a > 0 as a column vector (adding a div
// when a > 1) together with the equivalent quasi-polynomial.
func (s *system) floorExpr(e presburger.Vec, a int64) (presburger.Vec, qpoly.QPoly, error) {
	if a <= 0 {
		return nil, qpoly.QPoly{}, fmt.Errorf("%w: non-positive bound coefficient", ErrUnsupported)
	}
	if a == 1 {
		v := e.Resized(s.ncols())
		return v, s.vecToQPoly(v), nil
	}
	dcol := s.addDiv(e.Resized(s.ncols()), a)
	v := presburger.NewVec(s.ncols())
	v[dcol] = 1
	return v, s.vecToQPoly(v), nil
}
