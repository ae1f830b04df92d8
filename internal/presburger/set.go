package presburger

import (
	"fmt"
	"strconv"
	"strings"

	"haystack/internal/ints"
)

// BasicSet is a conjunction of quasi-affine constraints over the dimensions
// of a named space.
type BasicSet struct {
	space Space
	b     basic
}

// UniverseBasicSet returns the unconstrained basic set of the space.
func UniverseBasicSet(sp Space) BasicSet {
	return BasicSet{space: sp, b: newBasic(sp.Dim())}
}

// NewBasicSet builds a basic set from explicit divs and constraints. The
// column layout of the vectors is [const, dims..., divs...].
func NewBasicSet(sp Space, divs []Div, cons []Constraint) BasicSet {
	return BasicSet{space: sp, b: newBasicFrom(nil, sp.Dim(), divs, cons)}
}

// Space returns the space of the basic set.
func (bs BasicSet) Space() Space { return bs.space }

// NDim returns the number of dimensions.
func (bs BasicSet) NDim() int { return bs.b.ndim }

// Divs returns a copy of the div definitions, every numerator NCols wide.
func (bs BasicSet) Divs() []Div {
	out := make([]Div, len(bs.b.divs))
	for i, d := range bs.b.divs {
		out[i] = Div{Num: d.Num.Resized(bs.b.ncols()), Den: d.Den}
	}
	return out
}

// Constraints returns a copy of the constraints.
func (bs BasicSet) Constraints() []Constraint {
	out := make([]Constraint, len(bs.b.cons))
	for i, c := range bs.b.cons {
		out[i] = c.Clone()
	}
	return out
}

// NCols returns the width of constraint vectors: 1 + NDim + number of divs.
func (bs BasicSet) NCols() int { return bs.b.ncols() }

func (bs BasicSet) clone() BasicSet {
	return BasicSet{space: bs.space, b: bs.b.clone()}
}

// AddConstraint returns the basic set with an additional constraint. The
// constraint vector may be shorter than NCols; missing columns are zero.
func (bs BasicSet) AddConstraint(c Constraint) BasicSet {
	out := bs.clone()
	out.b.addConstraint(c.Clone())
	return out
}

// AddDiv returns the basic set extended with the div floor(num/den) and the
// column index of the new (or existing identical) div.
func (bs BasicSet) AddDiv(num Vec, den int64) (BasicSet, int) {
	out := bs.clone()
	col := out.b.addDiv(num, den)
	return out, col
}

// Intersect returns the intersection with another basic set in the same
// space.
func (bs BasicSet) Intersect(o BasicSet) BasicSet {
	if !bs.space.Equal(o.space) {
		panic(fmt.Sprintf("presburger: intersect of %v and %v", bs.space, o.space))
	}
	out := bs.clone()
	out.b.embed(&o.b, identityDimMap(o.b.ndim))
	return out
}

// FixDim returns the basic set with dimension dim fixed to value.
func (bs BasicSet) FixDim(dim int, value int64) BasicSet {
	c := Constraint{C: NewVec(bs.b.ncols()), Eq: true}
	c.C[0] = -value
	c.C[1+dim] = 1
	return bs.AddConstraint(c)
}

// ProjectOut returns the basic set with dimensions [first, first+n)
// existentially projected out. The space of the result is anonymous with
// the surviving dimension names.
func (bs BasicSet) ProjectOut(first, n int) (BasicSet, error) {
	out := bs.clone()
	cols := make([]int, n)
	for i := 0; i < n; i++ {
		cols[i] = out.b.dimCol(first + i)
	}
	if err := out.b.eliminateDimCols(cols); err != nil {
		return BasicSet{}, err
	}
	dims := append(append([]string(nil), bs.space.Dims[:first]...), bs.space.Dims[first+n:]...)
	out.space = Space{Name: bs.space.Name, Dims: dims}
	return out, nil
}

// RemoveRedundancies normalizes the basic set and drops inequality
// constraints implied by the remaining ones (budgeted rational implication,
// the same rule the coalescer applies per basic). Fewer bounds per dimension
// directly shrink the fan-out of parametric counting, which splits on every
// (lower, upper) bound pair. Returns ok=false when the set is detected
// empty.
func (bs BasicSet) RemoveRedundancies() (BasicSet, bool) {
	out := bs.clone()
	if !out.b.simplify() {
		return out, false
	}
	out.b.removeRedundantCons()
	// Dropped constraints can orphan div definitions; unused divs are not
	// harmless for counting, which residue-splits every dimension any div
	// references.
	out.b.dropUnusedDivs()
	return out, true
}

// SubstituteLeadingDims fixes the first len(vals) dimensions to the given
// constants and removes them: every constraint and div numerator folds the
// bound columns into its constant term. Unlike FixDim+ProjectOut this is a
// single O(size) pass with no elimination machinery — the specialization
// used to instantiate parametric piece domains at one parameter point.
// Returns ok=false when the result is detectably empty.
func (bs BasicSet) SubstituteLeadingDims(vals []int64) (BasicSet, bool) {
	n := len(vals)
	if n == 0 {
		return bs, !bs.DefinitelyEmpty()
	}
	if n > bs.NDim() {
		panic("presburger: substituting more dimensions than the set has")
	}
	oldCols := bs.b.ncols()
	fold := func(v Vec) Vec {
		out := NewVec(oldCols - n)
		c0 := v.At(0)
		for i := 0; i < n; i++ {
			c0 += v.At(1+i) * vals[i]
		}
		out[0] = c0
		if len(v) > 1+n {
			copy(out[1:], v[1+n:])
		}
		return out
	}
	nb := newBasic(bs.b.ndim - n)
	for _, d := range bs.b.divs {
		nb.divs = append(nb.divs, Div{Num: fold(d.Num), Den: d.Den})
	}
	for _, c := range bs.b.cons {
		nb.cons = append(nb.cons, Constraint{C: fold(c.C), Eq: c.Eq})
	}
	ok := nb.simplify()
	out := BasicSet{space: Space{Name: bs.space.Name, Dims: append([]string(nil), bs.space.Dims[n:]...)}, b: nb}
	return out, ok
}

// ProjectOutApprox is ProjectOut without a failure mode: dimensions the
// exact strategies cannot eliminate are projected by dropping the div
// definitions that reference them and combining the remaining bounds with
// rational Fourier–Motzkin. The result is a superset of the exact
// projection, suitable for generating candidate points that are validated
// against the exact set afterwards (partial enumeration).
func (bs BasicSet) ProjectOutApprox(first, n int) BasicSet {
	out := bs.clone()
	for i := n - 1; i >= 0; i-- {
		out.b.eliminateDimColApprox(out.b.dimCol(first + i))
	}
	dims := append(append([]string(nil), bs.space.Dims[:first]...), bs.space.Dims[first+n:]...)
	out.space = Space{Name: bs.space.Name, Dims: dims}
	return out
}

// StructurallyEqual reports whether the two basic sets have identical
// dimension counts, div lists, and constraint multisets. Structural equality
// implies set equality; the converse does not hold.
func (bs BasicSet) StructurallyEqual(o BasicSet) bool {
	return basicsEqual(&bs.b, &o.b)
}

// PinnedDims returns, per dimension, whether an equality constraint pins it
// to a single constant, together with that constant. Two basic sets that pin
// the same dimension to different constants are disjoint — the cheap
// separation test behind the domain-partitioned folds of the pipeline.
func (bs BasicSet) PinnedDims() (pinned []bool, vals []int64) {
	return pinnedFromCons(bs.b.cons, bs.b.ndim)
}

// ConstBounds returns, per dimension, the tightest constant lower and upper
// bounds derivable from single-dimension constraints (equalities pin both
// sides). Dimensions without such a bound report has=false. Two basic sets
// whose constant intervals on some dimension do not intersect are disjoint —
// a free separation test for the piecewise folds.
func (bs BasicSet) ConstBounds() (lo, hi []int64, hasLo, hasHi []bool) {
	n := bs.b.ndim
	lo, hi = make([]int64, n), make([]int64, n)
	hasLo, hasHi = make([]bool, n), make([]bool, n)
	for _, c := range bs.b.cons {
		col, cnt := -1, 0
		for j := 1; j < len(c.C); j++ {
			if c.C[j] != 0 {
				col = j
				cnt++
			}
		}
		if cnt != 1 || col > n {
			continue
		}
		d := col - 1
		a, k := c.C[col], c.C[0]
		if c.Eq {
			if k%a != 0 {
				continue // infeasible; emptiness is detected elsewhere
			}
			v := -k / a
			if !hasLo[d] || v > lo[d] {
				lo[d], hasLo[d] = v, true
			}
			if !hasHi[d] || v < hi[d] {
				hi[d], hasHi[d] = v, true
			}
			continue
		}
		if a > 0 {
			v := ints.CeilDiv(-k, a)
			if !hasLo[d] || v > lo[d] {
				lo[d], hasLo[d] = v, true
			}
		} else {
			v := ints.FloorDiv(k, -a)
			if !hasHi[d] || v < hi[d] {
				hi[d], hasHi[d] = v, true
			}
		}
	}
	return lo, hi, hasLo, hasHi
}

// Simplify normalizes constraints and returns ok=false when the basic set is
// detected to be empty.
func (bs BasicSet) Simplify() (BasicSet, bool) {
	out := bs.clone()
	ok := out.b.simplify()
	return out, ok
}

// DefinitelyEmpty reports whether the basic set can cheaply be shown empty
// (constant contradiction or rational infeasibility). A false result does
// not guarantee the set contains an integer point.
func (bs BasicSet) DefinitelyEmpty() bool { return bs.b.isObviouslyEmpty() }

// Contains reports whether the point lies in the basic set.
func (bs BasicSet) Contains(point []int64) bool { return bs.b.contains(point) }

// Scan enumerates the integer points of the basic set in lexicographic
// order; the point slice passed to fn is reused between calls.
func (bs BasicSet) Scan(fn func(point []int64) error) error { return bs.b.scanPoints(fn) }

// CountByScan counts the integer points by enumeration.
func (bs BasicSet) CountByScan() (int64, error) { return bs.b.countPoints() }

// Sample returns a point of the basic set, or ok=false when it is empty.
func (bs BasicSet) Sample() ([]int64, bool) { return bs.b.samplePoint() }

// String renders the basic set.
func (bs BasicSet) String() string {
	return fmt.Sprintf("{ %s : %s }", bs.space, bs.b.render(bs.space.Dims))
}

// Set is a union of basic sets in the same space. The zero value is not
// valid; use EmptySet or SetFromBasic.
type Set struct {
	space  Space
	basics []BasicSet
}

// EmptySet returns the empty set of the space.
func EmptySet(sp Space) Set { return Set{space: sp} }

// SetFromBasic returns the set containing exactly the given basic set.
func SetFromBasic(bs BasicSet) Set {
	return Set{space: bs.space, basics: []BasicSet{bs}}
}

// SetFromBasics returns the union of the given basic sets, which must share
// a space.
func SetFromBasics(bss ...BasicSet) Set {
	if len(bss) == 0 {
		panic("presburger: SetFromBasics needs at least one basic set")
	}
	s := Set{space: bss[0].space}
	for _, bs := range bss {
		if !bs.space.Equal(s.space) {
			panic("presburger: SetFromBasics space mismatch")
		}
		s.basics = append(s.basics, bs)
	}
	return s
}

// Space returns the space of the set.
func (s Set) Space() Space { return s.space }

// Basics returns the basic sets whose union is s.
func (s Set) Basics() []BasicSet { return append([]BasicSet(nil), s.basics...) }

// Union returns the union with another set in the same space.
func (s Set) Union(o Set) Set {
	if !s.space.Equal(o.space) {
		panic(fmt.Sprintf("presburger: union of %v and %v", s.space, o.space))
	}
	return Set{space: s.space, basics: append(append([]BasicSet(nil), s.basics...), o.basics...)}
}

// Intersect returns the intersection with another set in the same space.
func (s Set) Intersect(o Set) Set {
	out := Set{space: s.space}
	for _, a := range s.basics {
		for _, b := range o.basics {
			bs := a.Intersect(b)
			if !bs.DefinitelyEmpty() {
				out.basics = append(out.basics, bs)
			}
		}
	}
	return out.coalesce(false)
}

// DefinitelyEmpty reports whether every basic set is detectably empty.
func (s Set) DefinitelyEmpty() bool {
	for _, b := range s.basics {
		if !b.DefinitelyEmpty() {
			return false
		}
	}
	return true
}

// Contains reports whether the point lies in any basic set.
func (s Set) Contains(point []int64) bool {
	for _, b := range s.basics {
		if b.Contains(point) {
			return true
		}
	}
	return false
}

// Scan enumerates the distinct integer points of the set (union semantics:
// points in several basic sets are reported once). Enumeration order is the
// lexicographic order within each basic set, deduplicated globally.
func (s Set) Scan(fn func(point []int64) error) error {
	if len(s.basics) == 1 {
		return s.basics[0].Scan(fn)
	}
	seen := make(map[string]bool)
	for i, b := range s.basics {
		i := i
		err := b.Scan(func(p []int64) error {
			if i > 0 || len(s.basics) > 1 {
				key := pointKey(p)
				if seen[key] {
					return nil
				}
				seen[key] = true
			}
			return fn(p)
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// CountByScan counts the distinct integer points of the set by enumeration.
func (s Set) CountByScan() (int64, error) {
	var n int64
	err := s.Scan(func([]int64) error { n++; return nil })
	return n, err
}

// String renders the set.
func (s Set) String() string {
	if len(s.basics) == 0 {
		return fmt.Sprintf("{ %s : false }", s.space)
	}
	parts := make([]string, len(s.basics))
	for i, b := range s.basics {
		parts[i] = b.String()
	}
	return strings.Join(parts, " union ")
}

func pointKey(p []int64) string {
	buf := make([]byte, 0, 8*len(p))
	for _, v := range p {
		buf = strconv.AppendInt(buf, v, 10)
		buf = append(buf, ',')
	}
	return string(buf)
}

func identityDimMap(n int) []int {
	m := make([]int, n)
	for i := range m {
		m[i] = i
	}
	return m
}
