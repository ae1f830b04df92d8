package qpoly

import (
	"math"

	"haystack/internal/ints"
	"haystack/internal/presburger"
)

// Bag evaluates the pointwise sum of a collection of summand pieces at many
// points — the inner loop of set-associative miss classification, where the
// pieces are the raw cardinality summands (counting.CardSetSummands) whose
// sum is the within-set stack distance, and the parametric model's capacity
// miss counts (counting.CardBasicSetSummands). Sum semantics: every piece
// whose domain contains the point contributes; domains may overlap.
// Construction precomputes each piece's signature (BasicSet.Signature), so
// the hot path rejects most pieces by its constant box with a few integer
// comparisons instead of a full div-evaluating membership test.
type Bag struct {
	pieces []bagPiece
}

// bagPiece is one piece with its precomputed signature. A point outside the
// signature's box is provably outside the domain; a point inside still needs
// the exact membership test (the box ignores coupling and div constraints).
type bagPiece struct {
	domain presburger.BasicSet
	poly   QPoly
	sig    presburger.Signature
}

// NewBag builds the box-filtered evaluator over the summand pieces.
func NewBag(pieces []Piece) *Bag {
	b := &Bag{pieces: make([]bagPiece, len(pieces))}
	for i, p := range pieces {
		b.pieces[i] = bagPiece{domain: p.Domain, poly: p.Poly, sig: p.Domain.Signature()}
	}
	return b
}

// inBox reports whether the point can lie in the piece's domain, judging by
// every dimension but skip.
func (p *bagPiece) inBox(point []int64, skip int) bool {
	for d, v := range point {
		if lo, hi := p.sig.Bounds(d); d != skip && (v < lo || v > hi) {
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
		if !p.inBox(point, -1) || !p.domain.Contains(point) {
			continue
		}
		sum = sum.Add(p.poly.Eval(point))
	}
	return sum
}

// CountExceeding scans the integer points of dom (which lives in the pieces'
// space) and counts those at which the sum of the bag exceeds the limit. It
// calls charge once per point before classifying it and stops with the
// first error charge returns, reporting the counts up to that point.
//
// The points are classified one line at a time. A line is a run of
// consecutive scan points that differ only in the sweep dimension, the
// innermost dimension some basic of dom does not pin to a constant. Once per
// line and piece, the sweep fixes every other dimension: the box test
// runs on the fixed dimensions, the fixed part of every div numerator and
// constraint is computed, and the constraints without a div that depends on
// the sweep coordinate are intersected into an interval of it. A point then
// only finishes the divs and constraints of the pieces whose interval covers
// it. All arithmetic is overflow-checked; a piece whose line setup or point
// evaluation would overflow takes the exact BasicSet.Contains test instead,
// so the counts are those of the per-point evaluation.
//
// The partial sum at a point is compared with the limit after each
// containing piece, in bag order, and the point counts as soon as it
// exceeds. That early exit is sound only because every summand is a chamber
// cardinality — nonnegative at every point of its domain — so the partial
// sums are monotone; a bag whose pieces can go negative must be summed with
// EvalSum.
func (b *Bag) CountExceeding(dom presburger.Set, limit ints.Rat, charge func() error) (exceeding, points int64, err error) {
	sw := b.newSweep(dom)
	err = dom.Scan(func(pt []int64) error {
		if err := charge(); err != nil {
			return err
		}
		points++
		if sw.exceeds(pt, limit) {
			exceeding++
		}
		return nil
	})
	return exceeding, points, err
}

// sweepDim returns the sweep dimension of dom: the innermost dimension that
// at least one basic does not pin to a constant (the last dimension when
// every basic pins every dimension, -1 for a zero-dimensional space). Every
// dimension after it is pinned in every basic, so the points of one line
// are consecutive in the scan of each basic.
func sweepDim(dom presburger.Set) int {
	n := dom.Space().Dim()
	free := make([]bool, n)
	for _, bs := range dom.Basics() {
		sig := bs.Signature()
		for d := range free {
			lo, hi := sig.Bounds(d)
			free[d] = free[d] || lo != hi
		}
	}
	for d := n - 1; d >= 0; d-- {
		if free[d] {
			return d
		}
	}
	return n - 1
}

// Line states of a piece.
const (
	lineOut   = iota // no point of the line lies in the domain
	lineSwept        // the interval and the fixed parts are set up
	lineExact        // setup overflowed: every point takes Contains
)

// sweep is the state of one CountExceeding call.
type sweep struct {
	bag *Bag
	dim int // the sweep dimension, -1 when there is none
	col int // its column, 1+dim
	// cols holds the column values fixed on the current line, [1, dims...,
	// divs...] with zero at the sweep dimension and at the swept divs; the
	// div entries belong to the piece being set up.
	cols []int64
	open bool // cols holds a line
	// live lists, in bag order, the pieces not ruled out for the current
	// line.
	live   []int32
	pieces []pieceSweep
	// Scratch of the point evaluation.
	divVals  []int64
	atomVals []int64
}

// pieceSweep is the sweep state of one piece: what depends on the sweep
// coordinate (fixed for the call) and the line setup.
type pieceSweep struct {
	// The domain's divs and constraints, every row NCols wide over the
	// columns [const, dims..., divs...].
	divs []presburger.Div
	cons []presburger.Constraint
	// swept[i] reports whether div i depends on the sweep coordinate,
	// directly or through an earlier div.
	swept []bool
	// lineCons are the constraints that reference no swept div: affine in
	// the sweep coordinate once the line is fixed. pointCons are the rest.
	lineCons, pointCons []int32

	state  int
	lo, hi int64 // the sweep coordinate's interval on the line
	// divBase[i] is div i's value when it is not swept, else the fixed part
	// of its numerator; conBase[j] is the fixed part of pointCons[j].
	divBase, conBase []int64
}

func (b *Bag) newSweep(dom presburger.Set) *sweep {
	ndim := dom.Space().Dim()
	dim := sweepDim(dom)
	sw := &sweep{
		bag:    b,
		dim:    dim,
		col:    1 + dim,
		live:   make([]int32, 0, len(b.pieces)),
		pieces: make([]pieceSweep, len(b.pieces)),
	}
	nd, nc, maxDivs, maxAtoms := 0, 0, 0, 0
	for i := range b.pieces {
		p, ps := &b.pieces[i], &sw.pieces[i]
		if p.domain.NDim() != ndim {
			panic("qpoly: bag and domain differ in dimension")
		}
		ps.divs, ps.cons = p.domain.Divs(), p.domain.Constraints()
		n := p.domain.NCols()
		for j, c := range ps.cons {
			if len(c.C) != n {
				ps.cons[j].C = c.C.Resized(n)
			}
		}
		nd += len(ps.divs)
		nc += len(ps.cons)
		maxDivs = max(maxDivs, len(ps.divs))
		maxAtoms = max(maxAtoms, len(p.poly.Atoms))
	}
	sw.cols = make([]int64, 1+ndim+maxDivs)
	sw.divVals = make([]int64, maxDivs)
	sw.atomVals = make([]int64, maxAtoms)
	// One backing array each for the per-piece slices.
	swept := make([]bool, nd)
	ints64 := make([]int64, nd+nc)
	idx := make([]int32, nc)
	divCol := 1 + ndim
	for i := range sw.pieces {
		ps := &sw.pieces[i]
		k, m := len(ps.divs), len(ps.cons)
		ps.swept, swept = swept[:k:k], swept[k:]
		ps.divBase, ints64 = ints64[:k:k], ints64[k:]
		for j, d := range ps.divs {
			ps.swept[j] = dim >= 0 && d.Num[sw.col] != 0
			for k := 0; k < j && !ps.swept[j]; k++ {
				ps.swept[j] = ps.swept[k] && d.Num[divCol+k] != 0
			}
		}
		// lineCons fill the piece's indices from the front, pointCons from
		// the back.
		cons := idx[:m:m]
		idx = idx[m:]
		front, back := 0, m
		for j, c := range ps.cons {
			if ps.referencesSwept(c.C, divCol) {
				back--
				cons[back] = int32(j)
			} else {
				cons[front] = int32(j)
				front++
			}
		}
		ps.lineCons, ps.pointCons = cons[:front], cons[front:]
		ps.conBase, ints64 = ints64[:m-front:m-front], ints64[m-front:]
	}
	return sw
}

// referencesSwept reports whether the row has a non-zero coefficient at a
// swept div.
func (ps *pieceSweep) referencesSwept(row presburger.Vec, divCol int) bool {
	for k, s := range ps.swept {
		if s && row[divCol+k] != 0 {
			return true
		}
	}
	return false
}

// exceeds reports whether the bag's sum at pt exceeds the limit, setting up
// a new line first when pt leaves the current one.
func (sw *sweep) exceeds(pt []int64, limit ints.Rat) bool {
	if !sw.onLine(pt) {
		sw.startLine(pt)
	}
	var x int64
	if sw.dim >= 0 {
		x = pt[sw.dim]
	}
	var sum ints.Rat
	for _, i := range sw.live {
		ps := &sw.pieces[i]
		if x < ps.lo || x > ps.hi {
			continue
		}
		p := &sw.bag.pieces[i]
		var in bool
		if ps.state == lineExact {
			in = p.inBox(pt, -1) && p.domain.Contains(pt)
		} else {
			var ok bool
			if in, ok = ps.containsAt(p, sw.col, x, sw.divVals); !ok {
				in = p.domain.Contains(pt)
			}
		}
		if !in {
			continue
		}
		sum = sum.Add(p.poly.evalInto(pt, sw.atomVals))
		if sum.Cmp(limit) > 0 {
			return true
		}
	}
	return false
}

// onLine reports whether pt agrees with the current line off the sweep
// dimension.
func (sw *sweep) onLine(pt []int64) bool {
	if !sw.open {
		return false
	}
	for d, v := range pt {
		if d != sw.dim && v != sw.cols[1+d] {
			return false
		}
	}
	return true
}

// startLine sets up every piece for the line through pt and collects the
// ones that may contain a point of it.
func (sw *sweep) startLine(pt []int64) {
	sw.open = true
	sw.cols[0] = 1
	copy(sw.cols[1:], pt)
	if sw.dim >= 0 {
		sw.cols[sw.col] = 0
	}
	sw.live = sw.live[:0]
	for i := range sw.pieces {
		ps := &sw.pieces[i]
		ps.setup(&sw.bag.pieces[i], sw.dim, sw.cols)
		if ps.state != lineOut {
			sw.live = append(sw.live, int32(i))
		}
	}
}

// setup prepares the piece for the line whose column values cols holds.
func (ps *pieceSweep) setup(p *bagPiece, dim int, cols []int64) {
	ndim := p.domain.NDim()
	ps.state = lineOut
	if !p.inBox(cols[1:1+ndim], dim) {
		return
	}
	ps.state, ps.lo, ps.hi = lineExact, math.MinInt64, math.MaxInt64
	if dim < 0 {
		return
	}
	divCol := 1 + ndim
	for i, d := range ps.divs {
		// The numerator reads only the columns before the div's own.
		s, ok := dot(d.Num, cols)
		if !ok {
			return
		}
		if ps.swept[i] {
			ps.divBase[i], cols[divCol+i] = s, 0
		} else {
			ps.divBase[i] = ints.FloorDiv(s, d.Den)
			cols[divCol+i] = ps.divBase[i]
		}
	}
	lo, hi := int64(math.MinInt64), int64(math.MaxInt64)
	for _, j := range ps.lineCons {
		c := ps.cons[j]
		base, ok := dot(c.C, cols)
		// base and the coefficient are negated below.
		if !ok || base == math.MinInt64 || c.C[1+dim] == math.MinInt64 {
			return
		}
		switch a := c.C[1+dim]; {
		case a == 0:
			if base < 0 || c.Eq && base != 0 {
				ps.state = lineOut
				return
			}
		case c.Eq:
			if base%a != 0 {
				ps.state = lineOut
				return
			}
			lo, hi = max(lo, -base/a), min(hi, -base/a)
		case a > 0:
			lo = max(lo, ints.CeilDiv(-base, a))
		default:
			hi = min(hi, ints.FloorDiv(base, -a))
		}
	}
	if lo > hi {
		ps.state = lineOut
		return
	}
	for k, j := range ps.pointCons {
		base, ok := dot(ps.cons[j].C, cols)
		if !ok {
			return
		}
		ps.conBase[k] = base
	}
	ps.state, ps.lo, ps.hi = lineSwept, lo, hi
}

// dot returns row·cols, the part of the row fixed on the line when cols
// holds the line's column values, reporting false on overflow.
func dot(row presburger.Vec, cols []int64) (int64, bool) {
	var s int64
	ok := true
	for j, c := range row {
		if c != 0 {
			if s, ok = mulAdd(s, c, cols[j]); !ok {
				return 0, false
			}
		}
	}
	return s, true
}

// containsAt reports whether the point of the line at sweep coordinate x
// lies in the piece's domain, given that x is in the piece's interval.
// ok=false means the evaluation would overflow and the caller must test
// exactly.
func (ps *pieceSweep) containsAt(p *bagPiece, col int, x int64, vals []int64) (in, ok bool) {
	divCol := 1 + p.domain.NDim()
	for i, d := range ps.divs {
		if !ps.swept[i] {
			continue
		}
		s, ok := ps.sweptPart(d.Num, ps.divBase[i], col, divCol, x, vals)
		if !ok {
			return false, false
		}
		vals[i] = ints.FloorDiv(s, d.Den)
	}
	for k, j := range ps.pointCons {
		c := &ps.cons[j]
		v, ok := ps.sweptPart(c.C, ps.conBase[k], col, divCol, x, vals)
		if !ok {
			return false, false
		}
		if v < 0 || c.Eq && v != 0 {
			return false, true
		}
	}
	return true, true
}

// sweptPart finishes a row from its fixed part: it adds the sweep
// coordinate's term and the terms of the swept divs, whose values for this
// point vals holds (for the divs before the row's own, when the row is a
// div numerator).
func (ps *pieceSweep) sweptPart(row presburger.Vec, base int64, col, divCol int, x int64, vals []int64) (int64, bool) {
	s, ok := mulAdd(base, row[col], x)
	for k, swept := range ps.swept {
		if swept && ok {
			s, ok = mulAdd(s, row[divCol+k], vals[k])
		}
	}
	return s, ok
}

// mulAdd returns s + c·v, reporting false on overflow.
func mulAdd(s, c, v int64) (int64, bool) {
	p, ok := ints.TryMul(c, v)
	if !ok {
		return 0, false
	}
	return ints.TryAdd(s, p)
}
