package presburger

import "fmt"

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
	return BasicMap{in: in, out: out, b: newBasicFrom(nil, in.Dim()+out.Dim(), divs, cons, 0)}
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
func (bm BasicMap) Divs() []Div { return bm.b.divsCopy() }

// Constraints returns a copy of the constraints.
func (bm BasicMap) Constraints() []Constraint { return bm.b.consCopy() }

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
	return BasicMap{in: bm.in, out: bm.out, b: intersectAt(&bm.b, &o.b, 0)}
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
	return BasicMap{in: bm.in, out: bm.out, b: intersectAt(&bm.b, &s.b, 0)}
}

// IntersectRange restricts the relation to outputs in the given set.
func (bm BasicMap) IntersectRange(s BasicSet) BasicMap {
	if !bm.out.Equal(s.space) {
		panic(fmt.Sprintf("presburger: range space mismatch %v vs %v", bm.out, s.space))
	}
	return BasicMap{in: bm.in, out: bm.out, b: intersectAt(&bm.b, &s.b, bm.NIn())}
}

// Domain projects the relation onto its input dimensions.
func (bm BasicMap) Domain() (BasicSet, error) {
	b, err := bm.b.projectOut(bm.NIn(), bm.NOut())
	if err != nil {
		return BasicSet{}, err
	}
	return BasicSet{space: bm.in, b: b}, nil
}

// Range projects the relation onto its output dimensions.
func (bm BasicMap) Range() (BasicSet, error) {
	b, err := bm.b.projectOut(0, bm.NIn())
	if err != nil {
		return BasicSet{}, err
	}
	return BasicSet{space: bm.out, b: b}, nil
}

// ApplyRange composes bm with o: the result relates x to z whenever bm
// relates x to some y and o relates y to z (i.e. o ∘ bm).
func (bm BasicMap) ApplyRange(o BasicMap) (BasicMap, error) {
	if !bm.out.Equal(o.in) {
		panic(fmt.Sprintf("presburger: compose range %v with domain %v", bm.out, o.in))
	}
	res, err := applyRange(&bm.b, &o.b, bm.NIn(), bm.NOut(), o.NOut())
	if err != nil {
		return BasicMap{}, err
	}
	return BasicMap{in: bm.in, out: o.out, b: res}, nil
}

// applyRange composes the basic a (nIn inputs, nMid outputs) with the basic
// o (nMid inputs, nOut outputs).
func applyRange(a, o *basic, nIn, nMid, nOut int) (basic, error) {
	// Build a basic with dims [in, out, mid] so the mid columns are last and
	// can be eliminated without disturbing the result layout.
	res := basic{ndim: nIn + nOut + nMid, cons: make([]Constraint, 0, len(a.cons)+len(o.cons))}
	dimMapA := make([]int, nIn+nMid)
	for i := 0; i < nIn; i++ {
		dimMapA[i] = i
	}
	for i := 0; i < nMid; i++ {
		dimMapA[nIn+i] = nIn + nOut + i
	}
	res.embed(a, dimMapA)
	dimMapB := make([]int, nMid+nOut)
	for i := 0; i < nMid; i++ {
		dimMapB[i] = nIn + nOut + i
	}
	for i := 0; i < nOut; i++ {
		dimMapB[nMid+i] = nIn + i
	}
	res.embed(o, dimMapB)
	cols := make([]int, nMid)
	for i := range cols {
		cols[i] = res.dimCol(nIn + nOut + i)
	}
	if err := res.eliminateDimCols(cols); err != nil {
		return basic{}, err
	}
	return res, nil
}

// FixInputDim returns the basic map with input dimension dim fixed to value.
func (bm BasicMap) FixInputDim(dim int, value int64) BasicMap {
	return BasicMap{in: bm.in, out: bm.out, b: bm.b.fixDim(dim, value)}
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
func (bm BasicMap) CountByScan() (int64, error) { return union{bm.b}.countByScan() }

// AsSet reinterprets the basic map as a basic set over the concatenated
// input and output dimensions (a "wrapped" relation).
func (bm BasicMap) AsSet() BasicSet {
	return BasicSet{space: wrapSpace(bm.in, bm.out), b: bm.b.clone()}
}

// wrapSpace is the space of a wrapped relation: the input dimensions
// followed by the output dimensions.
func wrapSpace(in, out Space) Space {
	dims := append(append([]string(nil), in.Dims...), out.Dims...)
	return Space{Name: in.Name + "->" + out.Name, Dims: dims}
}

// String renders the basic map.
func (bm BasicMap) String() string { return MapFromBasic(bm).String() }

// Map is a union of basic maps between the same pair of spaces. It is
// stored, combined and counted as its wrapped set (see AsSet).
type Map struct {
	in, out Space
	basics  union
}

// EmptyMap returns the empty relation between two spaces.
func EmptyMap(in, out Space) Map { return Map{in: in, out: out} }

// MapFromBasic returns the map containing exactly the given basic map.
func MapFromBasic(bm BasicMap) Map {
	return Map{in: bm.in, out: bm.out, basics: union{bm.b}}
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
		m.basics = append(m.basics, bm.b)
	}
	return m
}

// InSpace returns the input space.
func (m Map) InSpace() Space { return m.in }

// OutSpace returns the output space.
func (m Map) OutSpace() Space { return m.out }

// Basics returns the basic maps whose union is m.
func (m Map) Basics() []BasicMap {
	out := make([]BasicMap, len(m.basics))
	for i, b := range m.basics {
		out[i] = BasicMap{in: m.in, out: m.out, b: b}
	}
	return out
}

// AsSet reinterprets the map as a set over the concatenated input and
// output dimensions, the union form of BasicMap.AsSet. The basics share
// their rows with m, the way Basics does.
func (m Map) AsSet() Set {
	return Set{space: wrapSpace(m.in, m.out), basics: m.basics.concat(nil)}
}

// DefinitelyEmpty reports whether every basic map is detectably empty.
func (m Map) DefinitelyEmpty() bool { return m.basics.definitelyEmpty() }

// Union returns the union with another map between the same spaces.
func (m Map) Union(o Map) Map {
	m.mustMatch(o, "union")
	return Map{in: m.in, out: m.out, basics: m.basics.concat(o.basics)}
}

// Intersect returns the intersection with another map between the same
// spaces.
func (m Map) Intersect(o Map) Map {
	m.mustMatch(o, "intersect")
	out, _ := m.basics.combine(o.basics, meet)
	return Map{in: m.in, out: m.out, basics: out}
}

// Subtract returns the map difference m \ o (see union.subtract).
func (m Map) Subtract(o Map) Map {
	m.mustMatch(o, "subtract")
	return Map{in: m.in, out: m.out, basics: m.basics.subtract(o.basics)}
}

// Coalesce returns a map covering exactly the same relation pairs with a
// (weakly) smaller number of basic maps. See Set.Coalesce for the
// full/quick rule split.
func (m Map) Coalesce() Map { return Map{in: m.in, out: m.out, basics: m.basics.coalesce(true)} }

// CoalesceQuick runs only the syntactic coalescing rules (dedup, subset
// subsumption, adjacency) — the subset cheap enough for hot inner loops.
func (m Map) CoalesceQuick() Map { return Map{in: m.in, out: m.out, basics: m.basics.coalesce(false)} }

func (m Map) mustMatch(o Map, op string) {
	if !m.in.Equal(o.in) || !m.out.Equal(o.out) {
		panic(fmt.Sprintf("presburger: %s of %v->%v and %v->%v", op, m.in, m.out, o.in, o.out))
	}
}

// Reverse swaps inputs and outputs.
func (m Map) Reverse() Map {
	out := Map{in: m.out, out: m.in}
	for _, b := range m.Basics() {
		out.basics = append(out.basics, b.Reverse().b)
	}
	return out
}

// IntersectDomain restricts the relation to inputs in the given set.
func (m Map) IntersectDomain(s Set) Map {
	if !m.in.Equal(s.space) {
		panic(fmt.Sprintf("presburger: domain space mismatch %v vs %v", m.in, s.space))
	}
	out, _ := m.basics.combine(s.basics, meet)
	return Map{in: m.in, out: m.out, basics: out}
}

// IntersectRange restricts the relation to outputs in the given set.
func (m Map) IntersectRange(s Set) Map {
	if !m.out.Equal(s.space) {
		panic(fmt.Sprintf("presburger: range space mismatch %v vs %v", m.out, s.space))
	}
	nIn := m.in.Dim()
	out, _ := m.basics.combine(s.basics, func(a, b *basic) (basic, error) { return intersectAt(a, b, nIn), nil })
	return Map{in: m.in, out: m.out, basics: out}
}

// Domain projects the relation onto its input space.
func (m Map) Domain() (Set, error) {
	d, err := m.basics.projectOut(m.in.Dim(), m.out.Dim())
	if err != nil {
		return Set{}, err
	}
	return Set{space: m.in, basics: d}, nil
}

// Range projects the relation onto its output space.
func (m Map) Range() (Set, error) {
	r, err := m.basics.projectOut(0, m.in.Dim())
	if err != nil {
		return Set{}, err
	}
	return Set{space: m.out, basics: r}, nil
}

// ApplyRange composes m with o (o ∘ m): x relates to z when m relates x to
// some y and o relates y to z. The pairwise composition multiplies the
// basic-map counts, so the result is coalesced before it is returned.
func (m Map) ApplyRange(o Map) (Map, error) {
	if !m.out.Equal(o.in) {
		panic(fmt.Sprintf("presburger: compose range %v with domain %v", m.out, o.in))
	}
	nIn, nMid, nOut := m.in.Dim(), m.out.Dim(), o.out.Dim()
	out, err := m.basics.combine(o.basics, func(a, b *basic) (basic, error) { return applyRange(a, b, nIn, nMid, nOut) })
	if err != nil {
		return Map{}, err
	}
	return Map{in: m.in, out: o.out, basics: out}, nil
}

// Contains reports whether the concatenated point satisfies the relation.
func (m Map) Contains(point []int64) bool { return m.basics.contains(point) }

// Scan enumerates the distinct relation pairs (deduplicated across basic
// maps).
func (m Map) Scan(fn func(point []int64) error) error { return m.basics.scan(fn) }

// CountByScan counts the distinct relation pairs by enumeration.
func (m Map) CountByScan() (int64, error) { return m.basics.countByScan() }

// String renders the map.
func (m Map) String() string {
	return m.basics.render(fmt.Sprintf("%s -> %s", m.in, m.out), wrapSpace(m.in, m.out).Dims)
}
