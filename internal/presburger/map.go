package presburger

import (
	"fmt"
	"strings"
)

// BasicMap is a conjunction of quasi-affine constraints relating the
// dimensions of an input space to the dimensions of an output space. The
// column layout of constraint vectors is [const, in..., out..., divs...].
type BasicMap struct {
	in, out Space
	b       basic
}

// UniverseBasicMap returns the unconstrained relation between two spaces.
func UniverseBasicMap(in, out Space) BasicMap {
	return BasicMap{in: in, out: out, b: newBasic(in.Dim() + out.Dim())}
}

// NewBasicMap builds a basic map from explicit divs and constraints with
// column layout [const, in..., out..., divs...].
func NewBasicMap(in, out Space, divs []Div, cons []Constraint) BasicMap {
	return BasicMap{in: in, out: out, b: newBasicFrom(nil, in.Dim()+out.Dim(), divs, cons)}
}

// InSpace returns the input space.
func (bm BasicMap) InSpace() Space { return bm.in }

// OutSpace returns the output space.
func (bm BasicMap) OutSpace() Space { return bm.out }

// NIn returns the number of input dimensions.
func (bm BasicMap) NIn() int { return bm.in.Dim() }

// NOut returns the number of output dimensions.
func (bm BasicMap) NOut() int { return bm.out.Dim() }

// Divs returns a copy of the div definitions, every numerator NCols wide.
func (bm BasicMap) Divs() []Div {
	out := make([]Div, len(bm.b.divs))
	for i, d := range bm.b.divs {
		out[i] = Div{Num: d.Num.Resized(bm.b.ncols()), Den: d.Den}
	}
	return out
}

// Constraints returns a copy of the constraints.
func (bm BasicMap) Constraints() []Constraint {
	out := make([]Constraint, len(bm.b.cons))
	for i, c := range bm.b.cons {
		out[i] = c.Clone()
	}
	return out
}

// NCols returns the constraint vector width: 1 + NIn + NOut + number of divs.
func (bm BasicMap) NCols() int { return bm.b.ncols() }

func (bm BasicMap) clone() BasicMap {
	return BasicMap{in: bm.in, out: bm.out, b: bm.b.clone()}
}

// AddConstraint returns the basic map with an additional constraint.
func (bm BasicMap) AddConstraint(c Constraint) BasicMap {
	out := bm.clone()
	out.b.addConstraint(c.Clone())
	return out
}

// AddDiv returns the basic map extended with the div floor(num/den) and the
// column index of the new (or existing identical) div.
func (bm BasicMap) AddDiv(num Vec, den int64) (BasicMap, int) {
	out := bm.clone()
	col := out.b.addDiv(num, den)
	return out, col
}

// Intersect returns the intersection with another basic map between the same
// spaces.
func (bm BasicMap) Intersect(o BasicMap) BasicMap {
	if !bm.in.Equal(o.in) || !bm.out.Equal(o.out) {
		panic(fmt.Sprintf("presburger: intersect of %v->%v and %v->%v", bm.in, bm.out, o.in, o.out))
	}
	out := bm.clone()
	out.b.embed(&o.b, identityDimMap(o.b.ndim))
	return out
}

// Reverse swaps input and output dimensions.
func (bm BasicMap) Reverse() BasicMap {
	nIn, nOut := bm.NIn(), bm.NOut()
	out := UniverseBasicMap(bm.out, bm.in)
	dimMap := make([]int, nIn+nOut)
	for i := 0; i < nIn; i++ {
		dimMap[i] = nOut + i // old input dims become outputs
	}
	for j := 0; j < nOut; j++ {
		dimMap[nIn+j] = j // old output dims become inputs
	}
	out.b.embed(&bm.b, dimMap)
	return out
}

// IntersectDomain restricts the relation to inputs in the given set.
func (bm BasicMap) IntersectDomain(s BasicSet) BasicMap {
	if !bm.in.Equal(s.space) {
		panic(fmt.Sprintf("presburger: domain space mismatch %v vs %v", bm.in, s.space))
	}
	out := bm.clone()
	dimMap := make([]int, s.b.ndim)
	for i := range dimMap {
		dimMap[i] = i
	}
	out.b.embed(&s.b, dimMap)
	return out
}

// IntersectRange restricts the relation to outputs in the given set.
func (bm BasicMap) IntersectRange(s BasicSet) BasicMap {
	if !bm.out.Equal(s.space) {
		panic(fmt.Sprintf("presburger: range space mismatch %v vs %v", bm.out, s.space))
	}
	out := bm.clone()
	dimMap := make([]int, s.b.ndim)
	for i := range dimMap {
		dimMap[i] = bm.NIn() + i
	}
	out.b.embed(&s.b, dimMap)
	return out
}

// Domain projects the relation onto its input dimensions.
func (bm BasicMap) Domain() (BasicSet, error) {
	cl := bm.b.clone()
	cols := make([]int, bm.NOut())
	for i := range cols {
		cols[i] = cl.dimCol(bm.NIn() + i)
	}
	if err := cl.eliminateDimCols(cols); err != nil {
		return BasicSet{}, err
	}
	return BasicSet{space: bm.in, b: cl}, nil
}

// Range projects the relation onto its output dimensions.
func (bm BasicMap) Range() (BasicSet, error) {
	cl := bm.b.clone()
	cols := make([]int, bm.NIn())
	for i := range cols {
		cols[i] = cl.dimCol(i)
	}
	if err := cl.eliminateDimCols(cols); err != nil {
		return BasicSet{}, err
	}
	return BasicSet{space: bm.out, b: cl}, nil
}

// ApplyRange composes bm with o: the result relates x to z whenever bm
// relates x to some y and o relates y to z (i.e. o ∘ bm).
func (bm BasicMap) ApplyRange(o BasicMap) (BasicMap, error) {
	if !bm.out.Equal(o.in) {
		panic(fmt.Sprintf("presburger: compose range %v with domain %v", bm.out, o.in))
	}
	nIn, nMid, nOut := bm.NIn(), bm.NOut(), o.NOut()
	// Build a basic with dims [in, out, mid] so the mid columns are last and
	// can be eliminated without disturbing the result layout.
	res := basic{ndim: nIn + nOut + nMid}
	dimMapA := make([]int, nIn+nMid)
	for i := 0; i < nIn; i++ {
		dimMapA[i] = i
	}
	for i := 0; i < nMid; i++ {
		dimMapA[nIn+i] = nIn + nOut + i
	}
	res.embed(&bm.b, dimMapA)
	dimMapB := make([]int, nMid+nOut)
	for i := 0; i < nMid; i++ {
		dimMapB[i] = nIn + nOut + i
	}
	for i := 0; i < nOut; i++ {
		dimMapB[nMid+i] = nIn + i
	}
	res.embed(&o.b, dimMapB)
	cols := make([]int, nMid)
	for i := range cols {
		cols[i] = res.dimCol(nIn + nOut + i)
	}
	if err := res.eliminateDimCols(cols); err != nil {
		return BasicMap{}, err
	}
	return BasicMap{in: bm.in, out: o.out, b: res}, nil
}

// FixInputDim returns the basic map with input dimension dim fixed to value.
func (bm BasicMap) FixInputDim(dim int, value int64) BasicMap {
	c := Constraint{C: NewVec(bm.b.ncols()), Eq: true}
	c.C[0] = -value
	c.C[1+dim] = 1
	return bm.AddConstraint(c)
}

// PinnedInputDims returns, per input dimension, whether an equality
// constraint pins it to a single constant, together with that constant
// (see BasicSet.PinnedDims). Two basic maps pinning the same input
// dimension to different constants have disjoint domains.
func (bm BasicMap) PinnedInputDims() (pinned []bool, vals []int64) {
	return pinnedFromCons(bm.b.cons, bm.NIn())
}

// DefinitelyEmpty reports whether the basic map can cheaply be shown empty.
func (bm BasicMap) DefinitelyEmpty() bool { return bm.b.isObviouslyEmpty() }

// Simplify normalizes constraints and reports emptiness detected on the way.
func (bm BasicMap) Simplify() (BasicMap, bool) {
	out := bm.clone()
	ok := out.b.simplify()
	return out, ok
}

// Contains reports whether the concatenated point (in dims then out dims)
// satisfies the relation.
func (bm BasicMap) Contains(point []int64) bool { return bm.b.contains(point) }

// Scan enumerates the integer points (input dims followed by output dims).
func (bm BasicMap) Scan(fn func(point []int64) error) error { return bm.b.scanPoints(fn) }

// CountByScan counts the relation pairs by enumeration.
func (bm BasicMap) CountByScan() (int64, error) { return bm.b.countPoints() }

// AsSet reinterprets the basic map as a basic set over the concatenated
// input and output dimensions (a "wrapped" relation).
func (bm BasicMap) AsSet() BasicSet {
	dims := append(append([]string(nil), bm.in.Dims...), bm.out.Dims...)
	sp := Space{Name: bm.in.Name + "->" + bm.out.Name, Dims: dims}
	return BasicSet{space: sp, b: bm.b.clone()}
}

// String renders the basic map.
func (bm BasicMap) String() string {
	names := append(append([]string(nil), bm.in.Dims...), bm.out.Dims...)
	return fmt.Sprintf("{ %s -> %s : %s }", bm.in, bm.out, bm.b.render(names))
}

// Map is a union of basic maps between the same pair of spaces.
type Map struct {
	in, out Space
	basics  []BasicMap
}

// EmptyMap returns the empty relation between two spaces.
func EmptyMap(in, out Space) Map { return Map{in: in, out: out} }

// MapFromBasic returns the map containing exactly the given basic map.
func MapFromBasic(bm BasicMap) Map {
	return Map{in: bm.in, out: bm.out, basics: []BasicMap{bm}}
}

// MapFromBasics returns the union of the given basic maps, which must share
// spaces.
func MapFromBasics(bms ...BasicMap) Map {
	if len(bms) == 0 {
		panic("presburger: MapFromBasics needs at least one basic map")
	}
	m := Map{in: bms[0].in, out: bms[0].out}
	for _, bm := range bms {
		if !bm.in.Equal(m.in) || !bm.out.Equal(m.out) {
			panic("presburger: MapFromBasics space mismatch")
		}
		m.basics = append(m.basics, bm)
	}
	return m
}

// InSpace returns the input space.
func (m Map) InSpace() Space { return m.in }

// OutSpace returns the output space.
func (m Map) OutSpace() Space { return m.out }

// Basics returns the basic maps whose union is m.
func (m Map) Basics() []BasicMap { return append([]BasicMap(nil), m.basics...) }

// DefinitelyEmpty reports whether every basic map is detectably empty.
func (m Map) DefinitelyEmpty() bool {
	for _, b := range m.basics {
		if !b.DefinitelyEmpty() {
			return false
		}
	}
	return true
}

// Union returns the union with another map between the same spaces.
func (m Map) Union(o Map) Map {
	if !m.in.Equal(o.in) || !m.out.Equal(o.out) {
		panic("presburger: map union space mismatch")
	}
	return Map{in: m.in, out: m.out, basics: append(append([]BasicMap(nil), m.basics...), o.basics...)}
}

// Intersect returns the intersection with another map between the same
// spaces.
func (m Map) Intersect(o Map) Map {
	out := Map{in: m.in, out: m.out}
	for _, a := range m.basics {
		for _, b := range o.basics {
			bm := a.Intersect(b)
			if !bm.DefinitelyEmpty() {
				out.basics = append(out.basics, bm)
			}
		}
	}
	return out.coalesce(false)
}

// Reverse swaps inputs and outputs.
func (m Map) Reverse() Map {
	out := Map{in: m.out, out: m.in}
	for _, b := range m.basics {
		out.basics = append(out.basics, b.Reverse())
	}
	return out
}

// IntersectDomain restricts the relation to inputs in the given set.
func (m Map) IntersectDomain(s Set) Map {
	out := Map{in: m.in, out: m.out}
	for _, b := range m.basics {
		for _, bs := range s.basics {
			bm := b.IntersectDomain(bs)
			if !bm.DefinitelyEmpty() {
				out.basics = append(out.basics, bm)
			}
		}
	}
	return out.coalesce(false)
}

// IntersectRange restricts the relation to outputs in the given set.
func (m Map) IntersectRange(s Set) Map {
	out := Map{in: m.in, out: m.out}
	for _, b := range m.basics {
		for _, bs := range s.basics {
			bm := b.IntersectRange(bs)
			if !bm.DefinitelyEmpty() {
				out.basics = append(out.basics, bm)
			}
		}
	}
	return out.coalesce(false)
}

// Domain projects the relation onto its input space.
func (m Map) Domain() (Set, error) {
	out := EmptySet(m.in)
	for _, b := range m.basics {
		d, err := b.Domain()
		if err != nil {
			return Set{}, err
		}
		if !d.DefinitelyEmpty() {
			out.basics = append(out.basics, d)
		}
	}
	return out, nil
}

// Range projects the relation onto its output space.
func (m Map) Range() (Set, error) {
	out := EmptySet(m.out)
	for _, b := range m.basics {
		r, err := b.Range()
		if err != nil {
			return Set{}, err
		}
		if !r.DefinitelyEmpty() {
			out.basics = append(out.basics, r)
		}
	}
	return out, nil
}

// ApplyRange composes m with o (o ∘ m): x relates to z when m relates x to
// some y and o relates y to z. The pairwise composition multiplies the
// basic-map counts, so the result is coalesced before it is returned.
func (m Map) ApplyRange(o Map) (Map, error) {
	out := Map{in: m.in, out: o.out}
	for _, a := range m.basics {
		for _, b := range o.basics {
			bm, err := a.ApplyRange(b)
			if err != nil {
				return Map{}, err
			}
			if !bm.DefinitelyEmpty() {
				out.basics = append(out.basics, bm)
			}
		}
	}
	return out.coalesce(false), nil
}

// Contains reports whether the concatenated point satisfies the relation.
func (m Map) Contains(point []int64) bool {
	for _, b := range m.basics {
		if b.Contains(point) {
			return true
		}
	}
	return false
}

// Scan enumerates the distinct relation pairs (deduplicated across basic
// maps).
func (m Map) Scan(fn func(point []int64) error) error {
	if len(m.basics) == 1 {
		return m.basics[0].Scan(fn)
	}
	seen := make(map[string]bool)
	for _, b := range m.basics {
		err := b.Scan(func(p []int64) error {
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

// CountByScan counts the distinct relation pairs by enumeration.
func (m Map) CountByScan() (int64, error) {
	var n int64
	err := m.Scan(func([]int64) error { n++; return nil })
	return n, err
}

// String renders the map.
func (m Map) String() string {
	if len(m.basics) == 0 {
		return fmt.Sprintf("{ %s -> %s : false }", m.in, m.out)
	}
	parts := make([]string, len(m.basics))
	for i, b := range m.basics {
		parts[i] = b.String()
	}
	return strings.Join(parts, " union ")
}
