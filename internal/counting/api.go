package counting

import (
	"fmt"

	"haystack/internal/budget"
	"haystack/internal/presburger"
	"haystack/internal/qpoly"
)

// CountBasicSet returns the exact number of integer points of the basic set,
// computed symbolically (no parameters). The summand form is used directly:
// the total is the sum over all zero-dimensional summand pieces, so the
// disjointness fold of CardBasicSet would be pure overhead here. The budget
// operation is charged one cost unit per intermediate elimination system; a
// nil op is unlimited.
func CountBasicSet(bs presburger.BasicSet, op *budget.Op) (int64, error) {
	sum, err := CardBasicSetSummands(bs, 0, presburger.NewSpace(bs.Space().Name), op)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, term := range sum.Terms {
		for _, piece := range term.Pieces {
			if !piece.Domain.Contains(nil) {
				continue
			}
			v := piece.Poly.Eval(nil)
			if !v.IsInt() {
				return 0, fmt.Errorf("%w: non-integer count %v", ErrUnsupported, v)
			}
			total += v.Int()
		}
	}
	return total, nil
}

// CountSet returns the exact number of distinct integer points of the set.
// Overlapping basic sets are made disjoint by subtraction before counting.
// The budget operation is charged as in CountBasicSet (nil = unlimited).
func CountSet(s presburger.Set, op *budget.Op) (int64, error) {
	disjoint, err := disjointBasicSets(s)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, bs := range disjoint {
		n, err := CountBasicSet(bs, op)
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
// so union semantics hold for every parameter value. The budget operation is
// charged as in CardBasicSet (nil = unlimited).
func CardSet(s presburger.Set, nParam int, paramSpace presburger.Space, op *budget.Op) (qpoly.PwQPoly, error) {
	disjoint, err := disjointBasicSets(s)
	if err != nil {
		return qpoly.PwQPoly{}, err
	}
	total := qpoly.ZeroPw(paramSpace)
	for _, bs := range disjoint {
		card, err := CardBasicSet(bs, nParam, paramSpace, op)
		if err != nil {
			return qpoly.PwQPoly{}, err
		}
		total = total.Add(card)
	}
	return total, nil
}

// CardSetRanges counts the distinct points of the ranges of a union map
// parametrically in the first nParam dimensions of every output space,
// summed over the output spaces (the parametric analogue of
// CountSetRanges: for the cache line access map the result is the number of
// touched lines, i.e. the compulsory misses, as a piecewise
// quasi-polynomial in the program parameters).
func CardSetRanges(u presburger.UnionMap, nParam int, paramSpace presburger.Space) (qpoly.PwQPoly, error) {
	ranges, err := u.Range()
	if err != nil {
		return qpoly.PwQPoly{}, err
	}
	total := qpoly.ZeroPw(paramSpace)
	for _, s := range ranges.Sets() {
		card, err := CardSet(s, nParam, paramSpace, nil)
		if err != nil {
			return qpoly.PwQPoly{}, err
		}
		total = total.Add(card)
	}
	return total, nil
}

// disjointBasicSets rewrites the union of basic sets of s into a list of
// pairwise disjoint basic sets covering the same points. The input is
// coalesced first: fewer and simpler basic sets keep the quadratic
// subtraction chain below from fanning out.
func disjointBasicSets(s presburger.Set) ([]presburger.BasicSet, error) {
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
	return out, nil
}

// disjointBasicMaps rewrites the union of basic maps of m into pairwise
// disjoint basic maps covering the same relation pairs. The input is
// coalesced first (see disjointBasicSets).
func disjointBasicMaps(m presburger.Map) ([]presburger.BasicMap, error) {
	m = m.Coalesce()
	var out []presburger.BasicMap
	covered := presburger.EmptyMap(m.InSpace(), m.OutSpace())
	for _, bm := range m.Basics() {
		rest := presburger.MapFromBasic(bm)
		for _, c := range covered.Basics() {
			rest = rest.Subtract(presburger.MapFromBasic(c))
			if rest.DefinitelyEmpty() {
				break
			}
		}
		for _, r := range rest.Basics() {
			if !r.DefinitelyEmpty() {
				presburger.DebugAssertBasicMap(r, "disjoint decomposition")
				out = append(out, r)
			}
		}
		covered = covered.Union(presburger.MapFromBasic(bm))
	}
	return out, nil
}

// MapCard counts, for every point of the input space, the number of distinct
// related output points of the map (union semantics: an output point related
// through several basic maps is counted once). The budget operation is
// charged as in CardBasicSet (nil = unlimited).
func MapCard(m presburger.Map, op *budget.Op) (qpoly.PwQPoly, error) {
	cards, err := mapCardPieces(m, op)
	if err != nil {
		return qpoly.PwQPoly{}, err
	}
	// The per-basic-map cards overlap only where their domains can: the
	// partitioned fold concatenates provably disjoint chambers (different
	// access ids, different boundary wedges) and pays the quadratic
	// disjointness fold only within a chamber.
	return qpoly.MergeDisjointSum(m.InSpace(), cards), nil
}

// mapCardPieces is MapCard without the final disjoint merge: it returns one
// piecewise card per disjoint basic map of the union, and the pointwise sum
// of the returned polynomials equals the MapCard result. Callers that
// only evaluate the cardinality at concrete points keep the sum lazy and
// skip the merge entirely — the set-associative restriction stripes the
// card domains by residue classes, and the disjoint piecewise normal form
// of the merged sum grows quadratically with the stripe count.
func mapCardPieces(m presburger.Map, op *budget.Op) ([]qpoly.PwQPoly, error) {
	disjoint, err := disjointBasicMaps(m)
	if err != nil {
		return nil, err
	}
	cards := make([]qpoly.PwQPoly, 0, len(disjoint))
	for _, bm := range disjoint {
		card, err := CardBasicSet(bm.AsSet(), bm.NIn(), bm.InSpace(), op)
		if err != nil {
			return nil, err
		}
		cards = append(cards, card)
	}
	return cards, nil
}

// MapCardSummands is the sum form of mapCardPieces: it returns the raw
// summand pieces of every disjoint basic map (overlapping domains, sum
// semantics — the cardinality at a point is the sum of every piece whose
// domain contains it), skipping the per-basic-map disjointness fold of
// CardBasicSet entirely. That fold is what explodes under set-associative
// residue restriction: fine residue stripes fan the summation out into many
// systems, and folding them into a disjoint piecewise normal form pays a
// quadratic chain of set subtractions for a shape the pointwise evaluator
// never needs. Every summand is a chamber count — nonnegative on its domain
// — so threshold evaluation may stop early (qpoly.Bag.SumExceeds).
func MapCardSummands(m presburger.Map, op *budget.Op) ([]qpoly.Piece, error) {
	disjoint, err := disjointBasicMaps(m)
	if err != nil {
		return nil, err
	}
	var pieces []qpoly.Piece
	for _, bm := range disjoint {
		sum, err := CardBasicSetSummands(bm.AsSet(), bm.NIn(), bm.InSpace(), op)
		if err != nil {
			return nil, err
		}
		for _, term := range sum.Terms {
			pieces = append(pieces, term.Pieces...)
		}
	}
	return pieces, nil
}

// CountSetRanges counts the distinct points of the ranges of a union map per
// output space (used for compulsory miss counting, where the range of the
// cache line access map is the set of touched cache lines).
func CountSetRanges(u presburger.UnionMap) (int64, error) {
	ranges, err := u.Range()
	if err != nil {
		return 0, err
	}
	var total int64
	for _, s := range ranges.Sets() {
		n, err := CountSet(s, nil)
		if err != nil {
			return 0, err
		}
		total += n
	}
	return total, nil
}

// CountSetRangesInterval is the bounded-tier form of CountSetRanges: it
// counts each range set with CountSetInterval and sums the per-set
// intervals. The result is exact (width 0) whenever every per-set count is.
func CountSetRangesInterval(u presburger.UnionMap, op *budget.Op, maxEnum int64) (Interval, error) {
	ranges, err := u.Range()
	if err != nil {
		return Interval{}, err
	}
	total := Exact(0)
	for _, s := range ranges.Sets() {
		iv, err := CountSetInterval(s, op, maxEnum)
		if err != nil {
			return Interval{}, err
		}
		total = total.Add(iv)
	}
	return total, nil
}
