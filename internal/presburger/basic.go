package presburger

import (
	"fmt"
	"math/big"
	"slices"
	"sort"
	"strings"

	"haystack/internal/ints"
)

// Div is a local variable defined as floor(Num·cols / Den) with Den > 0.
// Num is a vector over the columns of the owning basic set or map; the
// coefficient of the div itself and of later divs must be zero. Inside a
// basic, Num may be shorter than the column count (missing columns read as
// zero).
type Div struct {
	Num Vec
	Den int64
}

// Clone returns a deep copy of the div.
func (d Div) Clone() Div { return Div{Num: d.Num.Clone(), Den: d.Den} }

// Constraint is an affine constraint C·cols >= 0, or C·cols == 0 when Eq is
// set, over the columns of the owning basic set or map.
type Constraint struct {
	C  Vec
	Eq bool
}

// Clone returns a deep copy of the constraint.
func (c Constraint) Clone() Constraint { return Constraint{C: c.C.Clone(), Eq: c.Eq} }

// basic is the shared representation behind BasicSet and BasicMap: ndim real
// tuple dimensions (for a map, input dims followed by output dims), a list
// of local div variables, and a conjunction of constraints. The column
// layout of every Vec is [const, dim_0..dim_{ndim-1}, div_0..div_{k-1}].
//
// Rows are copy-on-write under one ownership rule: a basic exclusively owns
// every row it holds. The constructors and clone copy rows on entry, no two
// rows of a basic share memory (checkInvariants verifies it), and only a
// freshly built or cloned basic is ever mutated. So reads never copy
// (columns beyond a row's width read as zero through Vec.At), a rewrite
// copies a row at most once and only when its coefficient at the rewritten
// column is non-zero, and dropColumn compacts rows in place.
type basic struct {
	ndim int
	divs []Div
	cons []Constraint
}

func newBasic(ndim int) basic { return basic{ndim: ndim} }

// ncols returns the number of columns of vectors in b.
func (b *basic) ncols() int { return 1 + b.ndim + len(b.divs) }

// divCol returns the column index of div i.
func (b *basic) divCol(i int) int { return 1 + b.ndim + i }

// dimCol returns the column index of dim i.
func (b *basic) dimCol(i int) int { return 1 + i }

// clone deep-copies b (see newBasicFrom), padding every row to ncols.
func (b *basic) clone() basic { return newBasicFrom(nil, b.ndim, b.divs, b.cons, 0) }

// divsCopy returns a copy of the div definitions, every numerator ncols
// wide: what BasicSet.Divs and BasicMap.Divs hand out.
func (b *basic) divsCopy() []Div {
	out := make([]Div, len(b.divs))
	for i, d := range b.divs {
		out[i] = Div{Num: d.Num.Resized(b.ncols()), Den: d.Den}
	}
	return out
}

// consCopy returns a copy of the constraints.
func (b *basic) consCopy() []Constraint {
	out := make([]Constraint, len(b.cons))
	for i, c := range b.cons {
		out[i] = c.Clone()
	}
	return out
}

// fixDim returns a copy of b with dimension dim fixed to value.
func (b *basic) fixDim(dim int, value int64) basic {
	c := Constraint{C: NewVec(b.ncols()), Eq: true}
	c.C[0] = -value
	c.C[1+dim] = 1
	out := b.clone()
	out.addConstraint(c)
	return out
}

// projectOut returns a copy of b with dimensions [first, first+n)
// existentially projected out.
func (b *basic) projectOut(first, n int) (basic, error) {
	out := b.clone()
	cols := make([]int, n)
	for i := range cols {
		cols[i] = out.dimCol(first + i)
	}
	if err := out.eliminateDimCols(cols); err != nil {
		return basic{}, err
	}
	return out, nil
}

// newBasicFrom builds a basic over ndim dimensions that owns copies of the
// given rows, each padded (or truncated) to the basic's width. All rows are
// packed into a single slab allocation: the subslices are
// capacity-clamped, so a later append to any of them reallocates instead of
// growing into a neighbour, and in-place writes (simplify's tightening,
// dropColumn's compaction) stay within the row's own window. This keeps
// clone at O(1) allocations instead of one per constraint and div — by far
// the dominant allocation site of the simplify/coalesce/gist pipeline.
//
// With a non-nil s the slab and the headers are taken from the scratch
// instead, for a copy that must not outlive the predicate holding s. The
// constraint header has capacity for room more rows, so a caller appending
// that many (intersectAt) does not reallocate it.
func newBasicFrom(s *predScratch, ndim int, divs []Div, cons []Constraint, room int) basic {
	b := basic{ndim: ndim}
	n := 1 + ndim + len(divs)
	slab := s.vec(n * (len(divs) + len(cons)))
	row := func(v Vec) Vec {
		dst := slab[:n:n]
		slab = slab[n:]
		copy(dst, v)
		return dst
	}
	b.divs, b.cons = s.cloneHeaders(len(divs), len(cons)+room)
	b.cons = b.cons[:len(cons)]
	for i, d := range divs {
		b.divs[i] = Div{Num: row(d.Num), Den: d.Den}
	}
	for i, c := range cons {
		b.cons[i] = Constraint{C: row(c.C), Eq: c.Eq}
	}
	return b
}

// fit returns v at width n: v itself when it has that width already,
// otherwise a padded (or truncated) copy. The caller either owns v or only
// reads the result.
func fit(v Vec, n int) Vec {
	if len(v) == n {
		return v
	}
	return v.Resized(n)
}

// clip returns v without the (zero, by checkInvariants) columns beyond n,
// for loops that range over a row and index a per-column table.
func clip(v Vec, n int) Vec {
	if len(v) > n {
		return v[:n]
	}
	return v
}

// resize pads every constraint of b to the current ncols (after a div was
// added). Constraint rows stay full width because the elimination kernels
// (fourierMotzkin, rationalEliminate) index them column by column. Div
// numerators are not padded: a numerator only references columns before
// its own div, and every reader of a numerator goes through At or clips.
func (b *basic) resize() {
	n := b.ncols()
	for i := range b.cons {
		if len(b.cons[i].C) != n {
			b.cons[i].C = b.cons[i].C.Resized(n)
		}
	}
}

// addConstraint appends a constraint and takes ownership of its row: a row
// of the current width is kept as is, any other is copied to that width.
func (b *basic) addConstraint(c Constraint) {
	c.C = fit(c.C, b.ncols())
	b.cons = append(b.cons, c)
}

// addDiv appends a div with the given numerator (any width; padded or
// truncated checked) and denominator, returning its column index. If an
// identical div already exists its column is returned instead.
func (b *basic) addDiv(num Vec, den int64) int {
	n := b.ncols()
	col := b.appendDiv(num, den)
	if b.ncols() != n {
		b.resize()
	}
	return col
}

// appendDiv is addDiv without widening the constraint rows to the new
// column count, for callers that add several divs and widen once. num is
// only read.
func (b *basic) appendDiv(num Vec, den int64) int {
	if den <= 0 {
		panic("presburger: div with non-positive denominator")
	}
	n := b.ncols()
	// Normalize by gcd of numerator and denominator? Keep literal: floor
	// semantics change under scaling only if all terms share a factor with
	// the denominator; normalize when gcd divides everything exactly.
	for i, d := range b.divs {
		if d.Den != den {
			continue
		}
		same := true
		for j := 0; j < n; j++ {
			if d.Num.At(j) != num.At(j) {
				same = false
				break
			}
		}
		if same {
			return b.divCol(i)
		}
	}
	// The new div's row is copied once, straight to the widened layout.
	row := NewVec(n + 1)
	copy(row, clip(num, n))
	b.divs = append(b.divs, Div{Num: row, Den: den})
	return b.divCol(len(b.divs) - 1)
}

// contains reports whether the point satisfies all constraints of b.
// Evaluation is overflow-checked: when any product or sum would wrap int64
// (huge parameter values meeting huge coefficients), validation falls back
// to arbitrary-precision arithmetic instead of returning a wrapped verdict.
func (b *basic) contains(point []int64) bool { return b.satisfies(point, b.cons) }

// satisfies reports whether the point, with its div values, satisfies the
// given constraints of b.
func (b *basic) satisfies(point []int64, cons []Constraint) bool {
	buf := getCols(b.ncols())
	defer putCols(buf)
	vals := *buf
	if !b.evalColumnsIntoTry(point, vals) {
		return b.containsBig(point)
	}
	for _, c := range cons {
		v, ok := dotTry(c.C, vals)
		if !ok {
			return b.containsBig(point)
		}
		if c.Eq && v != 0 {
			return false
		}
		if !c.Eq && v < 0 {
			return false
		}
	}
	return true
}

// dotTry computes c·vals with overflow checking.
func dotTry(c Vec, vals []int64) (int64, bool) {
	var s int64
	for i, x := range c {
		if x == 0 || vals[i] == 0 {
			continue
		}
		p, ok := ints.TryMul(x, vals[i])
		if !ok {
			return 0, false
		}
		s, ok = ints.TryAdd(s, p)
		if !ok {
			return 0, false
		}
	}
	return s, true
}

// evalColumnsIntoTry computes the full column vector [1, point..., divs...]
// of a point into a caller-owned buffer of length ncols, with overflow
// checking on the div numerator sums. ok=false means some div value cannot be represented with
// 64-bit intermediates and the caller must re-evaluate exactly.
func (b *basic) evalColumnsIntoTry(point, vals []int64) bool {
	if len(point) != b.ndim {
		panic("presburger: point arity mismatch")
	}
	vals[0] = 1
	copy(vals[1:], point)
	for i := range b.divs {
		d := b.divs[i]
		s, ok := dotTry(d.Num[:min(b.divCol(i), len(d.Num))], vals)
		if !ok {
			return false
		}
		vals[b.divCol(i)] = ints.FloorDiv(s, d.Den)
	}
	return true
}

// containsBig validates a point with arbitrary-precision arithmetic. It is
// the cold path of contains, reached only when 64-bit evaluation would
// overflow.
func (b *basic) containsBig(point []int64) bool {
	vals := make([]*big.Int, b.ncols())
	vals[0] = big.NewInt(1)
	for i, p := range point {
		vals[1+i] = big.NewInt(p)
	}
	t := new(big.Int)
	for i := range b.divs {
		d := b.divs[i]
		s := new(big.Int)
		for j := 0; j < b.divCol(i) && j < len(d.Num); j++ {
			if d.Num[j] == 0 {
				continue
			}
			s.Add(s, t.Mul(big.NewInt(d.Num[j]), vals[j]))
		}
		// DivMod is Euclidean division; with Den > 0 the quotient matches
		// floor division.
		q, m := new(big.Int), new(big.Int)
		q.DivMod(s, big.NewInt(d.Den), m)
		vals[b.divCol(i)] = q
	}
	s := new(big.Int)
	for _, c := range b.cons {
		s.SetInt64(0)
		for j, x := range c.C {
			if x == 0 {
				continue
			}
			s.Add(s, t.Mul(big.NewInt(x), vals[j]))
		}
		if c.Eq && s.Sign() != 0 {
			return false
		}
		if !c.Eq && s.Sign() < 0 {
			return false
		}
	}
	return true
}

// normalizeConstraint divides a constraint by the gcd of its non-constant
// coefficients and tightens the constant term of inequalities. It rewrites
// the row in place, so the caller must own it: a row of a basic being
// simplified or projected, or a row the caller has just built.
func normalizeConstraint(c Constraint) {
	var g int64
	for _, x := range c.C[1:] {
		g = ints.GCD(g, x)
	}
	// An equality whose gcd does not divide the constant has no integer
	// solution; it stays unscaled so simplify detects the emptiness.
	if g <= 1 || c.Eq && c.C[0]%g != 0 {
		return
	}
	for i := 1; i < len(c.C); i++ {
		c.C[i] /= g
	}
	if c.Eq {
		c.C[0] /= g
	} else {
		c.C[0] = ints.FloorDiv(c.C[0], g)
	}
}

// normalizeDivs simplifies div definitions: common factors between the
// denominator and the non-constant numerator coefficients are divided out
// (floor((8i+c)/64) becomes floor((i+floor(c/8))/8)), and divs whose
// denominator divides every non-constant coefficient are resolved into
// affine expressions and removed (floor(8i/8) becomes i).
func (b *basic) normalizeDivs() {
	for i := 0; i < len(b.divs); i++ {
		d := &b.divs[i]
		num := d.Num
		// Greatest common divisor of the denominator and the non-constant
		// coefficients.
		g := d.Den
		for j := 1; j < len(num); j++ {
			g = ints.GCD(g, num[j])
		}
		if g > 1 {
			// b owns the row: divide it in place.
			for j := 1; j < len(num); j++ {
				num[j] /= g
			}
			if len(num) > 0 {
				num[0] = ints.FloorDiv(num[0], g)
			}
			d.Den = d.Den / g
		}
		if d.Den == 1 {
			// The div equals its numerator: substitute it away if the
			// numerator does not reference the div itself or later divs
			// (always true by construction) and drop the column. The
			// substitution reads the numerator without copying it; it
			// rewrites only rows that reference col, which the numerator
			// does not.
			col := b.divCol(i)
			if num.At(col) == 0 && !referencesLaterDiv(num, b, i) {
				b.substituteDivColumn(col, num)
				b.dropColumn(col)
				i--
			}
		}
	}
}

func referencesLaterDiv(v Vec, b *basic, i int) bool {
	for j := i; j < len(b.divs); j++ {
		if v.At(b.divCol(j)) != 0 {
			return true
		}
	}
	return false
}

// substituteDivColumn replaces every reference to the div column col by the
// affine expression expr (which must not reference col or any later div).
// Only rows with a non-zero coefficient at col are rewritten, each into one
// fresh row; expr is only read, so it may be a row of b that does not
// reference col. A coefficient that would wrap int64 panics, like
// ints.MulChecked.
func (b *basic) substituteDivColumn(col int, expr Vec) {
	n := b.ncols()
	apply := func(v Vec) Vec {
		k := v.At(col)
		if k == 0 {
			return v
		}
		out := NewVec(n)
		for j := range out {
			out[j] = combineOrPanic(1, v.At(j), k, expr.At(j))
		}
		out[col] = 0
		return out
	}
	for i := range b.cons {
		b.cons[i].C = apply(b.cons[i].C)
	}
	for i := range b.divs {
		b.divs[i].Num = apply(b.divs[i].Num)
	}
}

// simplify performs cheap normalization: constraint normalization, removal
// of duplicate, dominated, and trivially satisfied constraints, div
// normalization, and detection of a trivially false constant constraint.
// Constraints are deduplicated by FNV hash of their coefficient vector
// (verified structurally, so collisions cannot merge distinct constraints);
// parallel inequalities keep only the tightest constant, and inequalities
// pinned by a parallel equality are dropped (or detected infeasible). It
// returns false if the basic set/map is detected to be empty.
func (b *basic) simplify() bool {
	b.normalizeDivs()
	ix := getDedup(len(b.cons))
	ok := b.dedupConstraints(ix)
	putDedup(ix)
	if !ok || b.hasConflictingBounds() {
		return false
	}
	b.debugAssert("simplify", true)
	return true
}

// dedupConstraints is simplify's constraint pass. ix.eq and ix.ineq index
// the equalities and inequalities kept so far (by position in out) under
// the hash of their non-constant coefficients. It returns false when a
// constraint contradicts the others.
func (b *basic) dedupConstraints(ix *dedupScratch) bool {
	eqs, ineqs := &ix.eq, &ix.ineq
	out := b.cons[:0]
	for _, c := range b.cons {
		normalizeConstraint(c)
		nonconst := false
		for _, x := range c.C[1:] {
			if x != 0 {
				nonconst = true
				break
			}
		}
		if !nonconst {
			// Constant constraint.
			if c.Eq && c.C[0] != 0 {
				return false
			}
			if !c.Eq && c.C[0] < 0 {
				return false
			}
			continue
		}
		if c.Eq {
			// Integer divisibility: g*f + c0 == 0 with g not dividing c0 has
			// no integer solution (normalizeConstraint left the constraint
			// unscaled exactly in this case). Rational feasibility cannot see
			// this, and residue splitting in the counting layer produces such
			// systems wholesale.
			var g int64
			for _, x := range c.C[1:] {
				g = ints.GCD(g, x)
			}
			if g > 1 && c.C[0]%g != 0 {
				return false
			}
		}
		h := coeffHash(c.C, false)
		// The negated-coefficient hash looks up stored constraints of the
		// opposite sign: equalities for every constraint, inequalities for
		// an inequality. It is skipped while there are none to look up.
		var nh uint64
		if eqs.live > 0 || (!c.Eq && ineqs.live > 0) {
			nh = coeffHash(c.C, true)
		}
		if c.Eq {
			dup := false
			for e := eqs.first(h); e >= 0; e = eqs.following(e) {
				if o := out[eqs.pos[e]].C; coeffsMatch(o, c.C, false) {
					// Parallel equalities: identical or contradictory.
					if o[0] != c.C[0] {
						return false
					}
					dup = true
					break
				}
			}
			for e := eqs.first(nh); !dup && e >= 0; e = eqs.following(e) {
				if o := out[eqs.pos[e]].C; coeffsMatch(o, c.C, true) {
					// f+k0 == 0 stored and -f+k == 0 incoming: equal
					// exactly when k == -k0.
					if o[0] != -c.C[0] {
						return false
					}
					dup = true
				}
			}
			if dup {
				continue
			}
			out = append(out, c)
			eqs.insert(h, len(out)-1)
			continue
		}
		// Inequality f + k >= 0: an equality on f (either sign) pins it.
		pinned := false
		for e := eqs.first(h); e >= 0; e = eqs.following(e) {
			if o := out[eqs.pos[e]].C; coeffsMatch(o, c.C, false) {
				// f == -k0, so f + k >= 0 iff k >= k0.
				if c.C[0] < o[0] {
					return false
				}
				pinned = true
				break
			}
		}
		for e := eqs.first(nh); !pinned && e >= 0; e = eqs.following(e) {
			if o := out[eqs.pos[e]].C; coeffsMatch(o, c.C, true) {
				// -f + k0 == 0, so f == k0 and f + k >= 0 iff k0 + k >= 0.
				if c.C[0]+o[0] < 0 {
					return false
				}
				pinned = true
			}
		}
		if pinned {
			continue
		}
		// Opposite parallel inequality: f+k >= 0 against -f+k0 >= 0 bounds
		// f to [-k, k0]. An empty interval is infeasible; a singleton turns
		// the stored constraint into an equality (canonicalizing the
		// two-inequality encoding of a hyperplane, which the coalescer's
		// adjacency rules rely on).
		closed := false
		for e := ineqs.first(nh); e >= 0; e = ineqs.following(e) {
			idx := int(ineqs.pos[e])
			if !coeffsMatch(out[idx].C, c.C, true) {
				continue
			}
			if c.C[0]+out[idx].C[0] < 0 {
				return false
			}
			if c.C[0]+out[idx].C[0] == 0 {
				out[idx].Eq = true
				ineqs.unlink(e)
				eqs.insert(nh, idx)
				closed = true
			}
			break
		}
		if closed {
			continue
		}
		// Parallel inequalities: keep the tighter (smaller) constant.
		dominated := false
		for e := ineqs.first(h); e >= 0; e = ineqs.following(e) {
			if o := out[ineqs.pos[e]].C; coeffsMatch(o, c.C, false) {
				o[0] = min(o[0], c.C[0])
				dominated = true
				break
			}
		}
		if dominated {
			continue
		}
		out = append(out, c)
		ineqs.insert(h, len(out)-1)
	}
	// The forward pass cannot drop an inequality stored before a parallel
	// equality arrived (the pinned check only looks backwards). Sweep such
	// inequalities out now so pinned-by-equality holds regardless of the
	// order constraints were added in.
	if eqs.live > 0 && ineqs.live > 0 {
		var ok bool
		if out, ok = sweepPinned(ix, out); !ok {
			return false
		}
	}
	b.cons = out
	return true
}

// sweepPinned drops every inequality of cons pinned by a parallel equality
// and returns what is kept, or false when an equality contradicts an
// inequality. The compaction overwrites cons in place, so the equalities
// are indexed on a copy.
func sweepPinned(ix *dedupScratch, cons []Constraint) ([]Constraint, bool) {
	eqs := &ix.eq
	eqs.reset(len(eqs.head))
	ix.eqs = ix.eqs[:0]
	for _, c := range cons {
		if c.Eq {
			eqs.insert(coeffHash(c.C, false), len(ix.eqs))
			ix.eqs = append(ix.eqs, c)
		}
	}
	kept := cons[:0]
	for _, c := range cons {
		if !c.Eq {
			pinned := false
			for e := eqs.first(coeffHash(c.C, false)); e >= 0; e = eqs.following(e) {
				if o := ix.eqs[eqs.pos[e]].C; coeffsMatch(o, c.C, false) {
					// f == -k0 and f + k >= 0: feasible iff k >= k0.
					if c.C[0] < o[0] {
						return nil, false
					}
					pinned = true
					break
				}
			}
			if !pinned {
				for e := eqs.first(coeffHash(c.C, true)); e >= 0; e = eqs.following(e) {
					if o := ix.eqs[eqs.pos[e]].C; coeffsMatch(o, c.C, true) {
						// -f + k0 == 0 and f + k >= 0: f == k0, so
						// feasible iff k0 + k >= 0.
						if c.C[0]+o[0] < 0 {
							return nil, false
						}
						pinned = true
						break
					}
				}
			}
			if pinned {
				continue
			}
		}
		kept = append(kept, c)
	}
	return kept, true
}

// coeffHash hashes the non-constant coefficients of a constraint vector
// (optionally negated), ignoring trailing zero columns.
func coeffHash(v Vec, neg bool) uint64 {
	vv := v[1:]
	for len(vv) > 0 && vv[len(vv)-1] == 0 {
		vv = vv[:len(vv)-1]
	}
	h := uint64(fnvOffset)
	for _, x := range vv {
		if neg {
			x = -x
		}
		h = fnvMix(h, uint64(x))
	}
	return h
}

// coeffsMatch compares the non-constant coefficients of two constraint
// vectors (b optionally negated), ignoring trailing zero columns.
func coeffsMatch(a, b Vec, neg bool) bool {
	n := len(a)
	if len(b) > n {
		n = len(b)
	}
	for i := 1; i < n; i++ {
		var x, y int64
		if i < len(a) {
			x = a[i]
		}
		if i < len(b) {
			y = b[i]
		}
		if neg {
			y = -y
		}
		if x != y {
			return false
		}
	}
	return true
}

// hasConflictingBounds detects single-variable contradictions such as
// x >= 3 together with x <= 2 (over the same single column), a cheap but
// effective emptiness filter. The per-column bound tracking comes from the
// arena free list — four map allocations per simplify otherwise.
func (b *basic) hasConflictingBounds() bool {
	s := getBounds(b.ncols())
	defer putBounds(s)
	lo, hi, haveLo, haveHi := s.lo, s.hi, s.haveLo, s.haveHi
	for _, c := range b.cons {
		col, cnt := -1, 0
		for j := 1; j < len(c.C); j++ {
			if c.C[j] != 0 {
				col = j
				cnt++
			}
		}
		if cnt != 1 {
			continue
		}
		a := c.C[col]
		k := c.C[0]
		if c.Eq {
			// a*x + k == 0
			if k%a != 0 {
				return true
			}
			v := -k / a
			if haveLo[col] && v < lo[col] {
				return true
			}
			if haveHi[col] && v > hi[col] {
				return true
			}
			lo[col], hi[col] = v, v
			haveLo[col], haveHi[col] = true, true
			continue
		}
		if a > 0 {
			v := ints.CeilDiv(-k, a)
			if !haveLo[col] || v > lo[col] {
				lo[col] = v
				haveLo[col] = true
			}
		} else {
			v := ints.FloorDiv(k, -a)
			if !haveHi[col] || v < hi[col] {
				hi[col] = v
				haveHi[col] = true
			}
		}
		if haveLo[col] && haveHi[col] && lo[col] > hi[col] {
			return true
		}
	}
	return false
}

// embed copies the divs and constraints of src into b, mapping src dimension
// i to b dimension dimMap[i]. Div definitions are deduplicated against
// existing divs of b. This is the workhorse behind intersection and
// composition. The divs go first, so the column count is final before any
// constraint row is written: b's rows are widened once, and they and the
// transferred rows are carved from one slab, capacity-clamped as in
// newBasicFrom.
func (b *basic) embed(src *basic, dimMap []int) {
	if len(dimMap) != src.ndim {
		panic("presburger: embed dimension map arity mismatch")
	}
	w := b.ncols()
	colMap := b.transferDivs(src, dimMap)
	n := b.ncols()
	rows := len(src.cons)
	if n != w {
		for _, c := range b.cons {
			if len(c.C) != n {
				rows++
			}
		}
	}
	slab := make([]int64, n*rows)
	carve := func() Vec {
		v := slab[:n:n]
		slab = slab[n:]
		return v
	}
	if n != w {
		for i := range b.cons {
			if len(b.cons[i].C) != n {
				v := carve()
				copy(v, b.cons[i].C)
				b.cons[i].C = v
			}
		}
	}
	b.cons = slices.Grow(b.cons, len(src.cons))
	for _, c := range src.cons {
		v := carve()
		for j, x := range c.C {
			if x != 0 {
				v[colMap[j]] += x
			}
		}
		b.cons = append(b.cons, Constraint{C: v, Eq: c.Eq})
	}
}

// substituteColumn replaces every occurrence of column col by the affine
// expression expr/den (den > 0, exact integer value), i.e. it rewrites the
// system under the assumption col*den == expr·cols. Constraints are scaled
// by den (sign-preserving); div numerators that reference col are rewritten
// to a*expr + den*rest with their denominator scaled by den, which preserves
// floor semantics. expr must not reference col itself, and col must be a
// tuple dimension column (not a div column). Only rows with a non-zero
// coefficient at col are rewritten, each into one fresh row; a coefficient
// that would wrap int64 panics, like ints.MulChecked.
func (b *basic) substituteColumn(col int, expr Vec, den int64) {
	if den <= 0 {
		panic("presburger: substituteColumn with non-positive denominator")
	}
	if expr.At(col) != 0 {
		panic("presburger: substitution expression references substituted column")
	}
	n := b.ncols()
	rewrite := func(v Vec, a int64) Vec {
		out := NewVec(n)
		for j := range out {
			out[j] = combineOrPanic(den, v.At(j), a, expr.At(j))
		}
		out[col] = 0
		return out
	}
	for i := range b.cons {
		if a := b.cons[i].C.At(col); a != 0 {
			b.cons[i].C = rewrite(b.cons[i].C, a)
		}
	}
	for i := range b.divs {
		if a := b.divs[i].Num.At(col); a != 0 {
			b.divs[i].Num = rewrite(b.divs[i].Num, a)
			b.divs[i].Den = ints.MulChecked(b.divs[i].Den, den)
		}
	}
}

// combineOrPanic returns s*x + f*y, panicking like ints.MulChecked when a
// product or the sum wraps int64. The substitution kernels use it: a
// wrapped coefficient would silently change the set.
func combineOrPanic(s, x, f, y int64) int64 {
	v, ok := combineTry(s, x, f, y)
	if !ok {
		panic(fmt.Sprintf("presburger: int64 overflow in %d*%d + %d*%d", s, x, f, y))
	}
	return v
}

// dropColumn removes a column (which must be unused: zero coefficient in all
// constraints and div numerators) and renumbers the remaining columns.
// If the column is a div column the div definition is removed as well.
// Every row is compacted in place (b owns its rows), so nothing allocates.
func (b *basic) dropColumn(col int) {
	for i := range b.cons {
		if b.cons[i].C.At(col) != 0 {
			panic("presburger: dropColumn of used column")
		}
		b.cons[i].C = dropEntry(b.cons[i].C, col)
	}
	for i := range b.divs {
		if b.divs[i].Num.At(col) != 0 {
			panic("presburger: dropColumn referenced by div")
		}
		b.divs[i].Num = dropEntry(b.divs[i].Num, col)
	}
	if col <= b.ndim {
		b.ndim--
	} else {
		di := col - b.ndim - 1
		b.divs = append(b.divs[:di], b.divs[di+1:]...)
	}
}

// dropEntry removes entry j of v in place: the tail shifts left and the
// result is resliced with its capacity clamped to its length, so a later
// append reallocates instead of reusing the vacated slot. A row too short
// to have entry j is returned unchanged.
func dropEntry(v Vec, j int) Vec {
	if j >= len(v) {
		return v
	}
	copy(v[j:], v[j+1:])
	n := len(v) - 1
	return v[:n:n]
}

// usesColumn reports whether any constraint or div numerator has a non-zero
// coefficient at col.
func (b *basic) usesColumn(col int) bool {
	for _, c := range b.cons {
		if c.C.At(col) != 0 {
			return true
		}
	}
	return b.divUsesColumn(col)
}

// divUsesColumn reports whether any div numerator references col.
func (b *basic) divUsesColumn(col int) bool {
	for _, d := range b.divs {
		if d.Num.At(col) != 0 {
			return true
		}
	}
	return false
}

// String renders the basic set/map constraints for debugging.
func (b *basic) render(dimNames []string) string {
	names := make([]string, b.ncols())
	names[0] = "1"
	for i := 0; i < b.ndim; i++ {
		if i < len(dimNames) {
			names[1+i] = dimNames[i]
		} else {
			names[1+i] = fmt.Sprintf("d%d", i)
		}
	}
	for i := range b.divs {
		names[b.divCol(i)] = fmt.Sprintf("e%d", i)
	}
	var parts []string
	for i, d := range b.divs {
		parts = append(parts, fmt.Sprintf("%s = floor((%s)/%d)", names[b.divCol(i)], renderExpr(d.Num, names), d.Den))
	}
	for _, c := range b.cons {
		op := ">="
		if c.Eq {
			op = "="
		}
		parts = append(parts, fmt.Sprintf("%s %s 0", renderExpr(c.C, names), op))
	}
	sort.Strings(parts[len(b.divs):])
	return strings.Join(parts, " and ")
}

func renderExpr(v Vec, names []string) string {
	var terms []string
	for i, c := range v {
		if c == 0 {
			continue
		}
		switch {
		case i == 0:
			terms = append(terms, fmt.Sprintf("%d", c))
		case c == 1:
			terms = append(terms, names[i])
		case c == -1:
			terms = append(terms, "-"+names[i])
		default:
			terms = append(terms, fmt.Sprintf("%d%s", c, names[i]))
		}
	}
	if len(terms) == 0 {
		return "0"
	}
	return strings.Join(terms, " + ")
}
