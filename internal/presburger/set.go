package presburger

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
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
	return BasicSet{space: sp, b: newBasicFrom(nil, sp.Dim(), divs, cons, 0)}
}

// Space returns the space of the basic set.
func (bs BasicSet) Space() Space { return bs.space }

// NDim returns the number of dimensions.
func (bs BasicSet) NDim() int { return bs.b.ndim }

// Divs returns a copy of the div definitions, every numerator NCols wide.
func (bs BasicSet) Divs() []Div { return bs.b.divsCopy() }

// Constraints returns a copy of the constraints.
func (bs BasicSet) Constraints() []Constraint { return bs.b.consCopy() }

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
	return BasicSet{space: bs.space, b: intersectAt(&bs.b, &o.b, 0)}
}

// FixDim returns the basic set with dimension dim fixed to value.
func (bs BasicSet) FixDim(dim int, value int64) BasicSet {
	return BasicSet{space: bs.space, b: bs.b.fixDim(dim, value)}
}

// ProjectOut returns the basic set with dimensions [first, first+n)
// existentially projected out. The space of the result is anonymous with
// the surviving dimension names.
func (bs BasicSet) ProjectOut(first, n int) (BasicSet, error) {
	b, err := bs.b.projectOut(first, n)
	if err != nil {
		return BasicSet{}, err
	}
	dims := append(append([]string(nil), bs.space.Dims[:first]...), bs.space.Dims[first+n:]...)
	return BasicSet{space: Space{Name: bs.space.Name, Dims: dims}, b: b}, nil
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
// exact strategies cannot eliminate (including an exact Fourier–Motzkin
// step that would overflow) are projected by dropping the div definitions
// that reference them and taking the rational shadow of the rest. The
// result is a superset of the exact
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
func (bs BasicSet) CountByScan() (int64, error) { return union{bs.b}.countByScan() }

// Sample returns a point of the basic set, or ok=false when it is empty.
func (bs BasicSet) Sample() ([]int64, bool) { return bs.b.samplePoint() }

// String renders the basic set.
func (bs BasicSet) String() string { return SetFromBasic(bs).String() }

// Set is a union of basic sets in the same space. The zero value is not
// valid; use EmptySet or SetFromBasic.
type Set struct {
	space  Space
	basics union
}

// EmptySet returns the empty set of the space.
func EmptySet(sp Space) Set { return Set{space: sp} }

// SetFromBasic returns the set containing exactly the given basic set.
func SetFromBasic(bs BasicSet) Set {
	return Set{space: bs.space, basics: union{bs.b}}
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
		s.basics = append(s.basics, bs.b)
	}
	return s
}

// Space returns the space of the set.
func (s Set) Space() Space { return s.space }

// Basics returns the basic sets whose union is s.
func (s Set) Basics() []BasicSet {
	out := make([]BasicSet, len(s.basics))
	for i, b := range s.basics {
		out[i] = BasicSet{space: s.space, b: b}
	}
	return out
}

// Union returns the union with another set in the same space.
func (s Set) Union(o Set) Set {
	s.mustMatch(o, "union")
	return Set{space: s.space, basics: s.basics.concat(o.basics)}
}

// Intersect returns the intersection with another set in the same space.
func (s Set) Intersect(o Set) Set {
	s.mustMatch(o, "intersect")
	out, _ := s.basics.combine(o.basics, meet)
	return Set{space: s.space, basics: out}
}

// Subtract returns the set difference s \ o (see union.subtract).
func (s Set) Subtract(o Set) Set {
	s.mustMatch(o, "subtract")
	return Set{space: s.space, basics: s.basics.subtract(o.basics)}
}

// Coalesce returns a set covering exactly the same integer points with a
// (weakly) smaller number of basic sets. It runs the full rule stack,
// including the budgeted Fourier–Motzkin redundancy elimination and
// semantic subsumption checks; the cheaper syntactic subset of the rules
// runs automatically inside Subtract, Intersect, and ApplyRange.
func (s Set) Coalesce() Set { return Set{space: s.space, basics: s.basics.coalesce(true)} }

func (s Set) mustMatch(o Set, op string) {
	if !s.space.Equal(o.space) {
		panic(fmt.Sprintf("presburger: %s of %v and %v", op, s.space, o.space))
	}
}

// DefinitelyEmpty reports whether every basic set is detectably empty.
func (s Set) DefinitelyEmpty() bool { return s.basics.definitelyEmpty() }

// Contains reports whether the point lies in any basic set.
func (s Set) Contains(point []int64) bool { return s.basics.contains(point) }

// Scan enumerates the distinct integer points of the set (union semantics:
// points in several basic sets are reported once). Enumeration order is the
// lexicographic order within each basic set, deduplicated globally.
func (s Set) Scan(fn func(point []int64) error) error { return s.basics.scan(fn) }

// CountByScan counts the distinct integer points of the set by enumeration.
func (s Set) CountByScan() (int64, error) { return s.basics.countByScan() }

// String renders the set.
func (s Set) String() string { return s.basics.render(s.space.String(), s.space.Dims) }

// union is the storage of a Set and of a Map: a list of basics over one
// column layout, whose space the owner keeps. A map is combined, coalesced,
// subtracted and scanned as its wrapped set, so every union-level algorithm
// is written once, here and in subtract.go and coalesce.go.
type union []basic

// concat returns a fresh union holding u's basics followed by o's.
func (u union) concat(o union) union {
	return append(append(union(nil), u...), o...)
}

// combine applies f to every pair of u × o, u-major, keeps the results that
// are not detectably empty and runs the syntactic coalescing rules over
// them: the pairwise loop behind Intersect, IntersectDomain, IntersectRange
// and ApplyRange. The first error of f is returned.
func (u union) combine(o union, f func(a, b *basic) (basic, error)) (union, error) {
	var out union
	for i := range u {
		for j := range o {
			c, err := f(&u[i], &o[j])
			if err != nil {
				return nil, err
			}
			if !c.isObviouslyEmpty() {
				out = append(out, c)
			}
		}
	}
	return out.coalesce(false), nil
}

// intersectAt returns a copy of a constrained by b, whose dimension i is
// a's dimension at+i.
func intersectAt(a, b *basic, at int) basic {
	dimMap := identityDimMap(b.ndim)
	for i := range dimMap {
		dimMap[i] += at
	}
	out := newBasicFrom(nil, a.ndim, a.divs, a.cons, len(b.cons))
	out.embed(b, dimMap)
	return out
}

// meet is the intersection of basics over the same dimensions, in the form
// combine takes. It never fails, so combine's error is dropped wherever meet
// is the combining function.
func meet(a, b *basic) (basic, error) { return intersectAt(a, b, 0), nil }

// definitelyEmpty reports whether every basic is detectably empty.
func (u union) definitelyEmpty() bool {
	for i := range u {
		if !u[i].isObviouslyEmpty() {
			return false
		}
	}
	return true
}

// contains reports whether the point lies in any basic.
func (u union) contains(point []int64) bool {
	for i := range u {
		if u[i].contains(point) {
			return true
		}
	}
	return false
}

// scan enumerates the distinct integer points of the union, each basic in
// lexicographic order, deduplicated across basics. Basics that are pinned
// apart share no point and are scanned without the deduplication.
func (u union) scan(fn func(point []int64) error) error {
	if len(u) == 1 || u.pinnedApart() {
		for i := range u {
			if err := u[i].scanPoints(fn); err != nil {
				return err
			}
		}
		return nil
	}
	seen := make(map[string]bool)
	for i := range u {
		err := u[i].scanPoints(func(p []int64) error {
			key := pointKey(p)
			if seen[key] {
				return nil
			}
			seen[key] = true
			return fn(p)
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// pinnedApart reports whether some dimension is pinned to a constant by
// every basic, to pairwise distinct constants: such basics are disjoint (the
// per-access basics of a statement's set domain, apart on the access
// index). The check reads each basic's box once and sorts one value list
// per commonly pinned dimension.
func (u union) pinnedApart() bool {
	if len(u) == 0 {
		return true
	}
	ndim := u[0].ndim
	common := make([]bool, ndim)
	vals := make([][]int64, ndim)
	for d := range common {
		common[d] = true
		vals[d] = make([]int64, 0, len(u))
	}
	for i := range u {
		lo, hi := u[i].box(ndim)
		for d := range common {
			common[d] = common[d] && lo[d] == hi[d]
			vals[d] = append(vals[d], lo[d])
		}
	}
	for d, c := range common {
		if !c {
			continue
		}
		slices.Sort(vals[d])
		if len(slices.Compact(vals[d])) == len(u) {
			return true
		}
	}
	return false
}

// render renders the union as "{ head : constraints }" terms joined by
// "union", naming the dimensions by names.
func (u union) render(head string, names []string) string {
	if len(u) == 0 {
		return fmt.Sprintf("{ %s : false }", head)
	}
	parts := make([]string, len(u))
	for i := range u {
		parts[i] = fmt.Sprintf("{ %s : %s }", head, u[i].render(names))
	}
	return strings.Join(parts, " union ")
}

// projectOut projects dimensions [first, first+n) out of every basic and
// drops the detectably empty results.
func (u union) projectOut(first, n int) (union, error) {
	var out union
	for i := range u {
		p, err := u[i].projectOut(first, n)
		if err != nil {
			return nil, err
		}
		if !p.isObviouslyEmpty() {
			out = append(out, p)
		}
	}
	return out, nil
}

// countByScan counts the distinct integer points of the union.
func (u union) countByScan() (int64, error) {
	var n int64
	err := u.scan(func([]int64) error { n++; return nil })
	return n, err
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
