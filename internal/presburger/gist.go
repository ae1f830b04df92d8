package presburger

// This file implements "gist" — simplification in context. gist(b, ctx)
// drops constraints of b that are implied by the context (budgeted rational
// implication with integer tightening of the negation, the same engine the
// coalescer uses). The result g is generally a superset of b, but within the
// context nothing changes: g ∩ ctx == b ∩ ctx. That identity is what makes
// gist safe at the pipeline frontiers where an operand is only ever
// evaluated inside a known context — most importantly subtraction, where
// a \ o == a \ gist(o, a) and every dropped constraint is one fewer piece in
// the difference and one fewer inherited constraint in all pieces after it.

// Budget limits for the per-constraint implication checks. Beyond these the
// gist gives up and keeps constraints, which is always sound.
const (
	gistMaxCons = 96
	gistMaxCols = 48
)

// Gist returns a basic set g with g ∩ ctx == bs ∩ ctx, obtained by dropping
// constraints of bs implied by ctx together with the constraints of bs kept
// so far. Both operands must share a space. Typical use: simplify a set
// before an operation that will re-impose the context anyway.
func (bs BasicSet) Gist(ctx BasicSet) BasicSet {
	if !bs.space.Equal(ctx.space) {
		panic("presburger: gist space mismatch")
	}
	out := bs.clone()
	gistBasic(&out.b, &ctx.b)
	out.b.debugAssert("gist", false)
	return out
}

// Gist returns a basic map g with g ∩ ctx == bm ∩ ctx (see BasicSet.Gist).
func (bm BasicMap) Gist(ctx BasicMap) BasicMap {
	if !bm.in.Equal(ctx.in) || !bm.out.Equal(ctx.out) {
		panic("presburger: gist space mismatch")
	}
	out := bm.clone()
	gistBasic(&out.b, &ctx.b)
	out.b.debugAssert("gist", false)
	return out
}

// gistBasic drops constraints of b implied by ctx ∧ (constraints of b kept
// so far), in place. The two basics must have the same dimension count; the
// context is embedded into b's column space (divs dedup against b's).
func gistBasic(b, ctx *basic) {
	if len(b.cons) == 0 {
		return
	}
	// Build the combined system: b's layout extended with ctx's divs, and
	// the implication base of ctx constraints plus every div's defining
	// bounds.
	work := b.clone()
	nOwn := len(work.cons)
	work.embed(ctx, identityDimMap(ctx.ndim))
	if len(work.cons) > gistMaxCons || work.ncols() > gistMaxCols {
		return
	}
	base := make([]Constraint, 0, len(work.cons)-nOwn+2*len(work.divs))
	for _, c := range work.cons[nOwn:] {
		base = append(base, Constraint{C: fit(c.C, work.ncols()), Eq: c.Eq})
	}
	base = append(base, work.divBoundConstraints()...)
	ncols := work.ncols()
	cands := make([]Constraint, nOwn)
	for i, c := range b.cons {
		cands[i] = Constraint{C: fit(work.cons[i].C, ncols), Eq: c.Eq}
	}
	keep := gistFilter(base, ncols, cands)
	kept := b.cons[:0]
	for i, c := range b.cons {
		if keep[i] {
			kept = append(kept, c)
		}
	}
	b.cons = kept
}

// gistFilter is the incremental core shared by gistBasic and subtraction:
// it reports, per candidate constraint, whether it must be kept because the
// base system does not imply it (budgeted rational implication with integer
// tightening). Kept candidates join the base as they are accepted, so a
// later candidate implied only by an earlier kept one is still dropped.
// All vectors must read over the same ncols-wide column space.
func gistFilter(base []Constraint, ncols int, cands []Constraint) []bool {
	keep := make([]bool, len(cands))
	for i, c := range cands {
		if impliedByRational(base, c, ncols) {
			continue
		}
		keep[i] = true
		base = append(base, c)
	}
	return keep
}
