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

// cardBasicSet counts the integer points of bs parametrically in its first
// nParam dimensions: the result maps every value of the parameter dimensions
// to the number of points of the remaining dimensions. The piece domains of
// the result live in paramSpace (which must have nParam dimensions). The
// budget operation is charged one cost unit per intermediate system of the
// summation (every (lower bound, upper bound) pair of an eliminated
// dimension and every residue class of a floor split); a nil op is
// unlimited, and exceeding a limited op returns a budget.Exceeded error
// matching ErrBudget.
func cardBasicSet(bs presburger.BasicSet, nParam int, paramSpace presburger.Space, op *budget.Op) (qpoly.PwQPoly, error) {
	summands, err := CardBasicSetSummands(bs, nParam, paramSpace, op)
	if err != nil {
		return qpoly.PwQPoly{}, err
	}
	// The summand domains may overlap (they were made disjoint only with
	// respect to the counted dimensions). Fold them into a disjoint piecewise
	// quasi-polynomial so that every parameter point is covered by exactly
	// one piece.
	result := qpoly.ZeroPw(paramSpace)
	for _, p := range summands {
		result = result.Add(qpoly.SinglePiece(p.Domain, p.Poly))
	}
	return result, nil
}

// CardBasicSetSummands is the sum form of cardBasicSet: it returns the
// per-system cardinalities as summand pieces over paramSpace (overlapping
// domains, sum semantics: the count at a parameter point is the sum of
// every piece whose domain contains it, which qpoly.Bag evaluates) without
// the quadratic disjointness fold of cardBasicSet. For counts that are only
// evaluated — never compared piecewise — this is dramatically cheaper when
// the summation fans out into many systems. The budget operation is charged
// one cost unit per intermediate system; a nil op is unlimited.
func CardBasicSetSummands(bs presburger.BasicSet, nParam int, paramSpace presburger.Space, op *budget.Op) ([]qpoly.Piece, error) {
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
		return nil, nil
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
				return nil, err
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
				return nil, err
			}
		}
		systems = next
	}
	var result []qpoly.Piece
	for _, s := range systems {
		piece, err := s.toPiece(paramSpace)
		if err != nil {
			return nil, err
		}
		if piece.Poly.IsZero() {
			continue // empty or zero-count piece
		}
		result = append(result, piece)
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
		out := presburger.NewVec(1 + s.nParam + len(s.divs))
		out[0] = v.At(0)
		for i := 0; i < s.nParam; i++ {
			out[1+i] = v.At(s.dimCol(i))
		}
		for i := s.nParam; i < s.ndim; i++ {
			if v.At(s.dimCol(i)) != 0 {
				return nil, fmt.Errorf("%w: counted dimension %d still referenced by the domain", ErrUnsupported, i)
			}
		}
		for i := range s.divs {
			out[1+s.nParam+i] = v.At(s.divCol(i))
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
		for _, r := range res {
			r.debugAssert("summation")
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
		if d.Num.At(col) != 0 {
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
		cc := c.C
		a := cc.At(col)
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
// (constraints, div numerators, polynomial) and splits every div that
// references dim into an affine term in dim plus the same div, now free of
// dim.
func (s *system) substituteProgression(dim int, period, r int64) (*system, error) {
	out := s.clone()
	col := out.dimCol(dim)
	// The substituted coefficients a*period and constants c0 + a*r are
	// overflow-checked: a silent wrap here fabricates a different residue
	// system and corrupts counts, so overflow degrades to ErrUnsupported
	// (the caller falls back to enumeration or the bounded tier). out owns
	// its rows (a fresh clone), so the substitution writes in place.
	subst := func(v presburger.Vec) error {
		a := v.At(col)
		if a == 0 {
			return nil
		}
		ar, ok1 := ints.TryMul(a, r)
		ap, ok2 := ints.TryMul(a, period)
		if !ok1 || !ok2 {
			return fmt.Errorf("%w: int64 overflow substituting progression with coefficient %d and period %d", ErrUnsupported, a, period)
		}
		k, ok := ints.TryAdd(v[0], ar)
		if !ok {
			return fmt.Errorf("%w: int64 overflow substituting progression constant", ErrUnsupported)
		}
		v[0] = k
		v[col] = ap
		return nil
	}
	// Constraints.
	for i := range out.cons {
		if err := subst(out.cons[i].C); err != nil {
			return nil, err
		}
	}
	// Div numerators.
	for i := range out.divs {
		if err := subst(out.divs[i].Num); err != nil {
			return nil, err
		}
	}
	// Now rewrite divs that reference dim directly, in place and in column
	// order: floor((a*P*t + rest)/den) with den | a*P becomes
	// (a*P/den)*t + floor(rest/den). Div i keeps its column as floor(rest/den)
	// and every row referencing it k times gains k*(a*P/den) on the t column.
	// A later div that gains a t coefficient this way is rewritten in turn;
	// the divs stay well-ordered because no reference moves to a new column.
	for i := range out.divs {
		num := out.divs[i].Num
		a := num.At(col)
		if a == 0 {
			continue
		}
		den := out.divs[i].Den
		if a%den != 0 {
			return nil, fmt.Errorf("%w: residual coefficient %d not divisible by %d after progression substitution", ErrUnsupported, a, den)
		}
		num[col] = 0
		divCol := out.divCol(i)
		factor := a / den
		addT := func(v presburger.Vec) error {
			k := v.At(divCol)
			if k == 0 {
				return nil
			}
			kf, ok1 := ints.TryMul(k, factor)
			nc, ok2 := ints.TryAdd(v.At(col), kf)
			if !ok1 || !ok2 {
				return fmt.Errorf("%w: int64 overflow rewriting div references under progression substitution", ErrUnsupported)
			}
			v[col] = nc
			return nil
		}
		for j := range out.cons {
			if err := addT(out.cons[j].C); err != nil {
				return nil, err
			}
		}
		for j := i + 1; j < len(out.divs); j++ {
			if err := addT(out.divs[j].Num); err != nil {
				return nil, err
			}
		}
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
	out.debugAssert("progression substitution")
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
		if c.Eq && c.C.At(col) != 0 {
			return s.eliminateByEquality(dim, i)
		}
	}
	// Bound summation strategy. The bound lists share s's rows: they are
	// only read (sumBetweenBounds copies what it keeps).
	var lowers, uppers []presburger.Constraint
	var rest []presburger.Constraint
	for _, c := range s.cons {
		a := c.C.At(col)
		switch {
		case a == 0:
			rest = append(rest, c)
		case a > 0:
			lowers = append(lowers, presburger.Constraint{C: c.C})
		default:
			uppers = append(uppers, presburger.Constraint{C: c.C})
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
	c := out.cons[consIdx].C
	a := c.At(col)
	out.cons = append(out.cons[:consIdx], out.cons[consIdx+1:]...)

	var exprVec presburger.Vec
	den := ints.Abs(a)
	// a*dim + e == 0  =>  dim = -e/a.
	exprVec = presburger.NewVec(out.ncols())
	for j, x := range c[:min(len(c), len(exprVec))] {
		if j == col {
			continue
		}
		if a > 0 {
			exprVec[j] = -x
		} else {
			exprVec[j] = x
		}
	}
	if den > 1 {
		// dim = exprVec/den: introduce the div d = floor(exprVec/den) plus a
		// divisibility constraint, and use d as the substitution expression.
		dcol := out.addDiv(exprVec, den)
		divisibility := exprVec.Resized(out.ncols())
		divisibility[dcol] -= den
		out.cons = append(out.cons, presburger.Constraint{C: divisibility, Eq: true})
		newExpr := presburger.NewVec(out.ncols())
		newExpr[dcol] = 1
		exprVec = newExpr
	}
	// Substitute in constraints: only rows referencing dim are rewritten,
	// each into one fresh row. A coefficient that would wrap int64 leaves
	// the supported fragment.
	n := out.ncols()
	for i := range out.cons {
		v := out.cons[i].C
		k := v.At(col)
		if k == 0 {
			continue
		}
		nv := presburger.NewVec(n)
		for j := range nv {
			kx, ok1 := ints.TryMul(k, exprVec.At(j))
			x, ok2 := ints.TryAdd(v.At(j), kx)
			if !ok1 || !ok2 {
				return nil, fmt.Errorf("%w: int64 overflow substituting an equality into a constraint", ErrUnsupported)
			}
			nv[j] = x
		}
		nv[col] = 0
		out.cons[i].C = nv
	}
	for i := range out.divs {
		if out.divs[i].Num.At(col) != 0 {
			return nil, fmt.Errorf("%w: div still depends on substituted dimension", ErrUnsupported)
		}
	}
	// Substitute in the polynomial.
	if out.poly.UsesVar(dim) {
		exprPoly, err := out.vecToQPoly(exprVec)
		if err != nil {
			return nil, err
		}
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
	out := s.cloneWith(rest)
	col := out.dimCol(dim)

	// withoutCol returns a fresh copy of e with column col zeroed, scaled
	// by sign, for the bound expressions that outlive this call.
	withoutCol := func(e presburger.Vec, sign int64) presburger.Vec {
		v := presburger.NewVec(out.ncols())
		for j, x := range e[:min(len(e), len(v))] {
			v[j] = sign * x
		}
		v[col] = 0
		return v
	}

	// Dominance constraints: lower bound li is the largest and upper bound
	// ui the smallest, ties broken towards the smaller index to keep the
	// pieces disjoint.
	lowDom, err := presburger.BoundDominance(lowers, col, li, out.ncols())
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrUnsupported, err)
	}
	upDom, err := presburger.BoundDominance(uppers, col, ui, out.ncols())
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrUnsupported, err)
	}
	out.cons = append(append(out.cons, lowDom...), upDom...)
	aStar, eStar := lowers[li].C.At(col), lowers[li].C
	bStar, fStar := -uppers[ui].C.At(col), uppers[ui].C

	// Bound expressions: lo = ceil(-eStar/aStar), hi = floor(fStar/bStar).
	loVec, loPoly, err := out.ceilExpr(withoutCol(eStar, -1), aStar)
	if err != nil {
		return nil, err
	}
	hiVec, hiPoly, err := out.floorExpr(withoutCol(fStar, 1), bStar)
	if err != nil {
		return nil, err
	}
	// Piece requires lo <= hi: hi - lo >= 0.
	nonEmpty := presburger.NewVec(out.ncols())
	for j := range nonEmpty {
		d, ok := ints.TrySub(hiVec.At(j), loVec.At(j))
		if !ok {
			return nil, fmt.Errorf("%w: int64 overflow in bound difference", ErrUnsupported)
		}
		nonEmpty[j] = d
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
// a > 1) together with the equivalent quasi-polynomial. It takes ownership
// of e, which must be at least one column wide.
func (s *system) ceilExpr(e presburger.Vec, a int64) (presburger.Vec, qpoly.QPoly, error) {
	if a <= 0 {
		return nil, qpoly.QPoly{}, fmt.Errorf("%w: non-positive bound coefficient", ErrUnsupported)
	}
	if a == 1 {
		p, err := s.vecToQPoly(e)
		return e, p, err
	}
	// ceil(e/a) = floor((e + a - 1)/a)
	e[0] += a - 1
	return s.floorExpr(e, a)
}

// floorExpr returns floor(e/a) for a > 0 as a column vector (adding a div
// when a > 1) together with the equivalent quasi-polynomial. It takes
// ownership of e.
func (s *system) floorExpr(e presburger.Vec, a int64) (presburger.Vec, qpoly.QPoly, error) {
	if a <= 0 {
		return nil, qpoly.QPoly{}, fmt.Errorf("%w: non-positive bound coefficient", ErrUnsupported)
	}
	if a == 1 {
		p, err := s.vecToQPoly(e)
		return e, p, err
	}
	dcol := s.addDiv(e, a)
	v := presburger.NewVec(s.ncols())
	v[dcol] = 1
	p, err := s.vecToQPoly(v)
	return v, p, err
}
