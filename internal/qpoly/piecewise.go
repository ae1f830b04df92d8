package qpoly

import (
	"fmt"
	"strings"

	"haystack/internal/ints"
	"haystack/internal/presburger"
)

// Piece pairs a quasi-polynomial with the sub-domain on which it is valid.
// The polynomial's variables are the dimensions of the domain's space.
type Piece struct {
	Domain presburger.BasicSet
	Poly   QPoly
}

// PwQPoly is a piecewise quasi-polynomial: a list of pieces with pairwise
// disjoint domains. Outside every piece the value is zero.
type PwQPoly struct {
	Space  presburger.Space
	Pieces []Piece
}

// ZeroPw returns the zero piecewise quasi-polynomial on the space.
func ZeroPw(sp presburger.Space) PwQPoly { return PwQPoly{Space: sp} }

// SinglePiece returns the piecewise quasi-polynomial with one piece.
func SinglePiece(domain presburger.BasicSet, p QPoly) PwQPoly {
	return PwQPoly{Space: domain.Space(), Pieces: []Piece{{Domain: domain, Poly: p}}}
}

// NumPieces returns the number of pieces.
func (pw PwQPoly) NumPieces() int { return len(pw.Pieces) }

// Eval evaluates the piecewise quasi-polynomial at a point: the value of the
// piece containing the point, or zero when no piece contains it.
func (pw PwQPoly) Eval(point []int64) ints.Rat {
	for _, p := range pw.Pieces {
		if p.Domain.Contains(point) {
			return p.Poly.Eval(point)
		}
	}
	return ints.Rat{}
}

// EvalInt evaluates the piecewise quasi-polynomial and requires an integer
// result.
func (pw PwQPoly) EvalInt(point []int64) int64 { return pw.Eval(point).Int() }

// Add returns the pointwise sum of two piecewise quasi-polynomials over the
// same space. Piece domains are intersected and the non-overlapping parts of
// either operand are kept as is, so the result remains a disjoint piecewise
// cover of the union of both domains.
func (pw PwQPoly) Add(o PwQPoly) PwQPoly { return pw.add(nil, o, nil) }

// add is Add with the signatures of the operands' pieces, each computed here
// when nil.
func (pw PwQPoly) add(sigA []presburger.Signature, o PwQPoly, sigB []presburger.Signature) PwQPoly {
	if !pw.Space.Equal(o.Space) {
		panic(fmt.Sprintf("qpoly: adding piecewise polynomials over %v and %v", pw.Space, o.Space))
	}
	if len(pw.Pieces) == 0 {
		return o
	}
	if len(o.Pieces) == 0 {
		return pw
	}
	out := ZeroPw(pw.Space)
	if sigA == nil {
		sigA = pw.signatures()
	}
	if sigB == nil {
		sigB = o.signatures()
	}
	// Overlaps. Pieces whose signatures separate are skipped outright;
	// structurally identical domains (the dominant case when summing cards
	// of maps derived from the same iteration domain) take the fast path:
	// the overlap is the domain itself and the subtractions below are
	// skipped entirely.
	for i, a := range pw.Pieces {
		for j, b := range o.Pieces {
			if sigA[i].Separate(sigB[j]) {
				continue
			}
			if a.Domain.StructurallyEqual(b.Domain) {
				out.Pieces = append(out.Pieces, Piece{Domain: a.Domain, Poly: a.Poly.Add(b.Poly)})
				continue
			}
			dom := a.Domain.Intersect(b.Domain)
			if dom.DefinitelyEmpty() {
				continue
			}
			out.Pieces = append(out.Pieces, Piece{Domain: dom, Poly: a.Poly.Add(b.Poly)})
		}
	}
	// Parts of a not covered by o, and vice versa.
	out.Pieces = append(out.Pieces, subtractPieces(pw.Pieces, sigA, o.Pieces, sigB)...)
	out.Pieces = append(out.Pieces, subtractPieces(o.Pieces, sigB, pw.Pieces, sigA)...)
	return out.CoalescePieces()
}

// signatures returns the disjointness signature of every piece domain.
func (pw PwQPoly) signatures() []presburger.Signature {
	out := make([]presburger.Signature, len(pw.Pieces))
	for i, p := range pw.Pieces {
		out[i] = p.Domain.Signature()
	}
	return out
}

// subtractPieces returns pieces covering the parts of the domains of `a`
// that no domain of `b` covers, keeping the polynomials of `a`.
func subtractPieces(a []Piece, sigA []presburger.Signature, b []Piece, sigB []presburger.Signature) []Piece {
	var out []Piece
	for i, pa := range a {
		rest := presburger.SetFromBasic(pa.Domain)
		for j, pb := range b {
			if sigA[i].Separate(sigB[j]) {
				continue
			}
			if pa.Domain.StructurallyEqual(pb.Domain) {
				rest = presburger.EmptySet(rest.Space())
				break
			}
			rest = rest.Subtract(presburger.SetFromBasic(pb.Domain))
			if rest.DefinitelyEmpty() {
				break
			}
		}
		for _, bs := range rest.Basics() {
			if bs.DefinitelyEmpty() {
				continue
			}
			out = append(out, Piece{Domain: bs, Poly: pa.Poly})
		}
	}
	return out
}

// MergeDisjointSum folds many piecewise quasi-polynomials into one by
// pointwise addition, exploiting that summands whose piece domains have
// separating signatures (presburger.Signature) can never overlap: such
// summands are placed in different chambers, chamber results are
// concatenated without any domain algebra, and only the summands within a
// chamber pay the quadratic disjointness fold of Add (run as a balanced tree
// so intermediates stay small). The result is identical, as a function, to
// folding the summands with Add in any order.
func MergeDisjointSum(sp presburger.Space, cards []PwQPoly) PwQPoly {
	if len(cards) == 0 {
		return ZeroPw(sp)
	}
	if len(cards) == 1 {
		return cards[0]
	}
	sigs := make([][]presburger.Signature, len(cards))
	for i, c := range cards {
		sigs[i] = c.signatures()
	}
	out := ZeroPw(sp)
	for _, idxs := range presburger.GroupDisjoint(sigs) {
		group := make([]PwQPoly, len(idxs))
		groupSigs := make([][]presburger.Signature, len(idxs))
		for k, i := range idxs {
			group[k], groupSigs[k] = cards[i], sigs[i]
		}
		// Balanced fold: pairwise merge rounds keep both operands of every
		// Add comparably small. The summands' signatures are the ones the
		// grouping computed; a sum's are computed when it is next added.
		for len(group) > 1 {
			var next []PwQPoly
			var nextSigs [][]presburger.Signature
			for i := 0; i+1 < len(group); i += 2 {
				next = append(next, group[i].add(groupSigs[i], group[i+1], groupSigs[i+1]))
				nextSigs = append(nextSigs, nil)
			}
			if len(group)%2 == 1 {
				next = append(next, group[len(group)-1])
				nextSigs = append(nextSigs, groupSigs[len(group)-1])
			}
			group, groupSigs = next, nextSigs
		}
		out.Pieces = append(out.Pieces, group[0].Pieces...)
	}
	return out
}

// CoalescePieces merges pieces that carry the same polynomial by coalescing
// the union of their domains. The slabs piecewise addition produces share
// their polynomial with many siblings, so without this pass piece counts
// grow multiplicatively along a chain of Adds. Pieces with distinct
// polynomials are untouched; coalescing covers exactly the same points, so
// pairwise disjointness of the piece cover is preserved.
func (pw PwQPoly) CoalescePieces() PwQPoly {
	if len(pw.Pieces) <= 1 {
		return pw
	}
	groups := map[string][]int{}
	var order []string
	for i, p := range pw.Pieces {
		k := p.Poly.String()
		if _, ok := groups[k]; !ok {
			order = append(order, k)
		}
		groups[k] = append(groups[k], i)
	}
	if len(order) == len(pw.Pieces) {
		return pw
	}
	out := ZeroPw(pw.Space)
	for _, k := range order {
		idxs := groups[k]
		if len(idxs) == 1 {
			out.Pieces = append(out.Pieces, pw.Pieces[idxs[0]])
			continue
		}
		basics := make([]presburger.BasicSet, 0, len(idxs))
		for _, i := range idxs {
			basics = append(basics, pw.Pieces[i].Domain)
		}
		merged := presburger.SetFromBasics(basics...).Coalesce()
		for _, bs := range merged.Basics() {
			if bs.DefinitelyEmpty() {
				continue
			}
			presburger.DebugAssertBasicSet(bs, "qpoly piece coalesce")
			out.Pieces = append(out.Pieces, Piece{Domain: bs, Poly: pw.Pieces[idxs[0]].Poly})
		}
	}
	return out
}

// Scale multiplies every piece by a constant.
func (pw PwQPoly) Scale(c ints.Rat) PwQPoly {
	out := PwQPoly{Space: pw.Space}
	for _, p := range pw.Pieces {
		out.Pieces = append(out.Pieces, Piece{Domain: p.Domain, Poly: p.Poly.Scale(c)})
	}
	return out
}

// MaxDegree returns the maximum degree over all pieces.
func (pw PwQPoly) MaxDegree() int {
	deg := 0
	for _, p := range pw.Pieces {
		if d := p.Poly.Degree(); d > deg {
			deg = d
		}
	}
	return deg
}

// String renders the piecewise quasi-polynomial.
func (pw PwQPoly) String() string {
	if len(pw.Pieces) == 0 {
		return fmt.Sprintf("{ %s -> 0 }", pw.Space)
	}
	parts := make([]string, len(pw.Pieces))
	for i, p := range pw.Pieces {
		parts[i] = fmt.Sprintf("[%s on %s]", p.Poly.StringWithNames(pw.Space.Dims), p.Domain)
	}
	return strings.Join(parts, "; ")
}
