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

// gistFilter is the incremental core of gist, used by subtraction: it
// reports, per candidate constraint, whether it must be kept because the
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
