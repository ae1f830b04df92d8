package qpoly

import (
	"haystack/internal/ints"
	"haystack/internal/presburger"
)

// Bag evaluates the pointwise sum of a collection of summand pieces at many
// points — the inner loop of set-associative miss classification, where the
// pieces are the raw cardinality summands (counting.CardSetSummands) whose
// sum is the within-set stack distance, and the parametric model's capacity
// miss counts (counting.CardBasicSetSummands). Sum semantics: every piece
// whose domain contains the point contributes; domains may overlap.
// Construction precomputes a constant bounding box per piece
// (BasicSet.ConstBounds), so the hot path rejects most pieces with a few
// integer comparisons instead of a full div-evaluating membership test.
type Bag struct {
	pieces []bagPiece
}

// bagPiece is one piece with its precomputed dimension box. A point outside
// the box is provably outside the domain; a point inside still needs the
// exact membership test (the box ignores coupling and div constraints).
type bagPiece struct {
	domain presburger.BasicSet
	poly   QPoly
	lo, hi []int64
	hasLo  []bool
	hasHi  []bool
}

// NewBag builds the box-filtered evaluator over the summand pieces.
func NewBag(pieces []Piece) *Bag {
	b := &Bag{pieces: make([]bagPiece, 0, len(pieces))}
	for _, p := range pieces {
		bp := bagPiece{domain: p.Domain, poly: p.Poly}
		bp.lo, bp.hi, bp.hasLo, bp.hasHi = p.Domain.ConstBounds()
		b.pieces = append(b.pieces, bp)
	}
	return b
}

// inBox reports whether the point can lie in the piece's domain.
func (p *bagPiece) inBox(point []int64) bool {
	for d, v := range point {
		if p.hasLo[d] && v < p.lo[d] {
			return false
		}
		if p.hasHi[d] && v > p.hi[d] {
			return false
		}
	}
	return true
}

// EvalSum returns the sum of every containing piece at the point.
func (b *Bag) EvalSum(point []int64) ints.Rat {
	var sum ints.Rat
	for i := range b.pieces {
		p := &b.pieces[i]
		if !p.inBox(point) || !p.domain.Contains(point) {
			continue
		}
		sum = sum.Add(p.poly.Eval(point))
	}
	return sum
}

// SumExceeds reports whether the sum at the point exceeds the limit,
// stopping as soon as the partial sum does. The early exit is sound only
// because every summand is a chamber cardinality — nonnegative at every
// point of its domain — so the partial sums are monotone; callers feeding
// pieces that can go negative must use EvalSum.
func (b *Bag) SumExceeds(point []int64, limit ints.Rat) bool {
	var sum ints.Rat
	for i := range b.pieces {
		p := &b.pieces[i]
		if !p.inBox(point) || !p.domain.Contains(point) {
			continue
		}
		sum = sum.Add(p.poly.Eval(point))
		if sum.Cmp(limit) > 0 {
			return true
		}
	}
	return false
}

// NumPieces returns the number of summand pieces in the bag.
func (b *Bag) NumPieces() int {
	return len(b.pieces)
}
