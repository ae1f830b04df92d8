package counting

import (
	"errors"
	"fmt"

	"haystack/internal/budget"
	"haystack/internal/presburger"
	"haystack/internal/qpoly"
)

// countBasicSet returns the exact number of integer points of the basic set,
// computed symbolically (no parameters). The summand form is used directly:
// the total is the sum over all zero-dimensional summand pieces, so the
// disjointness fold of cardBasicSet would be pure overhead here. The budget
// operation is charged one cost unit per intermediate elimination system; a
// nil op is unlimited.
func countBasicSet(bs presburger.BasicSet, op *budget.Op) (int64, error) {
	pieces, err := CardBasicSetSummands(bs, 0, presburger.NewSpace(bs.Space().Name), op)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, piece := range pieces {
		if !piece.Domain.Contains(nil) {
			continue
		}
		v := piece.Poly.Eval(nil)
		if !v.IsInt() {
			return 0, fmt.Errorf("%w: non-integer count %v", ErrUnsupported, v)
		}
		total += v.Int()
	}
	return total, nil
}

// CountSet returns the exact number of distinct integer points of s. It is
// the exact rung of the counting ladder: s is counted symbolically first (a
// single basic set directly, a union after its basic sets are made disjoint
// by subtraction), and a set the symbolic counter cannot handle is
// enumerated instead, charging op one cost unit per point. A budget trip or
// a cancellation is returned as its typed error and never falls through to
// enumeration, which would re-spend the exhausted budget. The symbolic
// count charges op as cardBasicSet does; a nil op is unlimited.
func CountSet(s presburger.Set, op *budget.Op) (int64, error) {
	n, err := countSymbolic(s, op)
	if err == nil || errors.Is(err, ErrBudget) || budget.IsCancellation(err) {
		return n, err
	}
	n = 0
	err = s.Scan(func([]int64) error {
		n++
		return op.Charge(1)
	})
	if err != nil {
		return 0, err
	}
	return n, nil
}

// countSymbolic is the symbolic rung of CountSet.
func countSymbolic(s presburger.Set, op *budget.Op) (int64, error) {
	basics := s.Basics()
	if len(basics) > 1 {
		basics = disjointBasicSets(s)
	}
	var total int64
	for _, bs := range basics {
		n, err := countBasicSet(bs, op)
		if err != nil {
			return 0, err
		}
		total += n
	}
	return total, nil
}

// CardSet counts the distinct integer points of s parametrically in its
// first nParam dimensions: the result maps every value of the parameter
// dimensions to the number of points of the remaining dimensions.
// Overlapping basic sets are made disjoint by subtraction before counting,
// so union semantics hold for every parameter value. A map is counted as
// its wrapped set: CardSet(m.AsSet(), m.InSpace().Dim(), m.InSpace(), op)
// counts, for every input point, the distinct related output points. The
// budget operation is charged as in cardBasicSet (nil = unlimited).
func CardSet(s presburger.Set, nParam int, paramSpace presburger.Space, op *budget.Op) (qpoly.PwQPoly, error) {
	disjoint := disjointBasicSets(s)
	cards := make([]qpoly.PwQPoly, 0, len(disjoint))
	for _, bs := range disjoint {
		card, err := cardBasicSet(bs, nParam, paramSpace, op)
		if err != nil {
			return qpoly.PwQPoly{}, err
		}
		cards = append(cards, card)
	}
	// The per-basic cards overlap only where their domains can: the
	// partitioned fold concatenates provably disjoint chambers (different
	// access ids, different boundary wedges) and pays the quadratic
	// disjointness fold only within a chamber.
	return qpoly.MergeDisjointSum(paramSpace, cards), nil
}

// CardSetSummands is the sum form of CardSet: it returns the raw summand
// pieces of every disjoint basic set (overlapping domains, sum semantics —
// the cardinality at a point is the sum of every piece whose domain
// contains it), skipping the per-basic disjointness fold of cardBasicSet
// entirely. That fold is what explodes under set-associative residue
// restriction: fine residue stripes fan the summation out into many
// systems, and folding them into a disjoint piecewise normal form pays a
// quadratic chain of set subtractions for a shape the pointwise evaluator
// never needs. Every summand is a chamber count — nonnegative on its domain
// — so threshold evaluation may stop early (qpoly.Bag.SumExceeds).
func CardSetSummands(s presburger.Set, nParam int, paramSpace presburger.Space, op *budget.Op) ([]qpoly.Piece, error) {
	var pieces []qpoly.Piece
	for _, bs := range disjointBasicSets(s) {
		sum, err := CardBasicSetSummands(bs, nParam, paramSpace, op)
		if err != nil {
			return nil, err
		}
		pieces = append(pieces, sum...)
	}
	return pieces, nil
}

// disjointBasicSets rewrites the union of basic sets of s into a list of
// pairwise disjoint basic sets covering the same points. The input is
// coalesced first: fewer and simpler basic sets keep the quadratic
// subtraction chain below from fanning out.
func disjointBasicSets(s presburger.Set) []presburger.BasicSet {
	s = s.Coalesce()
	var out []presburger.BasicSet
	covered := presburger.EmptySet(s.Space())
	for _, bs := range s.Basics() {
		rest := presburger.SetFromBasic(bs)
		for _, c := range covered.Basics() {
			rest = rest.Subtract(presburger.SetFromBasic(c))
			if rest.DefinitelyEmpty() {
				break
			}
		}
		for _, r := range rest.Basics() {
			if !r.DefinitelyEmpty() {
				presburger.DebugAssertBasicSet(r, "disjoint decomposition")
				out = append(out, r)
			}
		}
		covered = covered.Union(presburger.SetFromBasic(bs))
	}
	return out
}
