package presburger

import (
	"cmp"
	"fmt"
	"slices"
	"unsafe"

	"haystack/internal/ints"
)

// This file implements the IR invariant checker. The representation behind
// BasicSet/BasicMap has invariants the algorithms silently rely on — div
// definitions acyclic and well-ordered (a div numerator may only reference
// strictly earlier columns), vector widths consistent with the column
// layout, arities matching the Space — and silent violations are the
// costliest failure mode of the engine: the circular-div projection bug
// (fixed in the eliminate layer, guarded by substitutionBreaksDivs)
// produced plausible-looking sets whose point semantics had quietly
// changed.
//
// CheckInvariants is always compiled and public, so tests and external
// tooling can validate IR they construct. The debugAssert* helpers wired
// into the mutation frontiers (simplify, coalesce, gist, projection, lexmin
// combine) compile to no-ops unless the haystackdebug build tag is set; a
// tagged test run turns the whole suite into a self-checking harness.

// checkInvariants validates the structural invariants of the
// representation. It returns the first violation found, nil if none.
func (b *basic) checkInvariants() error {
	if b.ndim < 0 {
		return fmt.Errorf("presburger: negative dimension count %d", b.ndim)
	}
	ncols := b.ncols()
	// Vectors may be shorter than ncols (missing columns read as zero), but
	// a vector longer than ncols is clipped by every reader: any non-zero
	// coefficient beyond ncols is latent corruption.
	checkWidth := func(v Vec, what string) error {
		for j := ncols; j < len(v); j++ {
			if v[j] != 0 {
				return fmt.Errorf("presburger: %s has non-zero coefficient %d at column %d beyond ncols %d", what, v[j], j, ncols)
			}
		}
		return nil
	}
	for i, d := range b.divs {
		if d.Den <= 0 {
			return fmt.Errorf("presburger: div %d has non-positive denominator %d", i, d.Den)
		}
		if err := checkWidth(d.Num, fmt.Sprintf("div %d numerator", i)); err != nil {
			return err
		}
		// Well-ordering: the numerator may reference constants, dimensions,
		// and strictly earlier divs only. A self reference makes the div
		// definition circular (the PR 3 projection bug class); a forward
		// reference breaks every evaluator that computes div values left to
		// right (evalColumnsIntoTry, the scanner).
		selfCol := b.divCol(i)
		for j := selfCol; j < len(d.Num) && j < ncols; j++ {
			if d.Num[j] != 0 {
				which := "later div"
				if j == selfCol {
					which = "itself"
				}
				return fmt.Errorf("presburger: div %d (column %d) references %s (column %d): div definitions must be acyclic and well-ordered", i, selfCol, which, j)
			}
		}
	}
	for i, c := range b.cons {
		if err := checkWidth(c.C, fmt.Sprintf("constraint %d", i)); err != nil {
			return err
		}
	}
	return b.checkOwnership()
}

// checkOwnership validates the ownership rule the in-place row operations
// rely on (see basic): no two rows of the basic share backing memory. Each
// row is taken as the address range of its full capacity; the rows of a
// clone's slab are adjacent but disjoint, because clone clamps their
// capacities.
func (b *basic) checkOwnership() error {
	type span struct {
		lo, hi uintptr
		row    int // index into divs, then cons
	}
	spans := make([]span, 0, len(b.divs)+len(b.cons))
	add := func(v Vec, row int) {
		if cap(v) == 0 {
			return
		}
		lo := uintptr(unsafe.Pointer(unsafe.SliceData(v)))
		spans = append(spans, span{lo: lo, hi: lo + uintptr(cap(v))*unsafe.Sizeof(v[0]), row: row})
	}
	for i, d := range b.divs {
		add(d.Num, i)
	}
	for i, c := range b.cons {
		add(c.C, len(b.divs)+i)
	}
	slices.SortFunc(spans, func(x, y span) int { return cmp.Compare(x.lo, y.lo) })
	name := func(row int) string {
		if row < len(b.divs) {
			return fmt.Sprintf("div %d numerator", row)
		}
		return fmt.Sprintf("constraint %d", row-len(b.divs))
	}
	for i := 1; i < len(spans); i++ {
		if spans[i].lo < spans[i-1].hi {
			return fmt.Errorf("presburger: %s and %s share backing memory: a basic must own each of its rows", name(spans[i-1].row), name(spans[i].row))
		}
	}
	return nil
}

// checkCanonical validates the canonical-form properties simplify
// establishes when it returns ok: no constant constraints, every constraint
// normalized by the gcd of its coefficients, no duplicate or dominated
// parallel constraints, and no opposite inequality pair that pins a
// hyperplane (simplify turns those into an equality) or contradicts. It is
// meaningful only on the result of a successful simplify.
func (b *basic) checkCanonical() error {
	type seen struct {
		idx int
		c   Constraint
	}
	byHash := map[uint64][]seen{}
	for i, c := range b.cons {
		nonconst := false
		for _, x := range c.C[1:] {
			if x != 0 {
				nonconst = true
				break
			}
		}
		if !nonconst {
			return fmt.Errorf("presburger: constant constraint %d survived simplify", i)
		}
		var g int64
		for _, x := range c.C[1:] {
			g = ints.GCD(g, x)
		}
		if g > 1 {
			return fmt.Errorf("presburger: constraint %d not gcd-normalized (gcd %d)", i, g)
		}
		h := coeffHash(c.C, false)
		for _, s := range byHash[h] {
			if coeffsMatch(s.c.C, c.C, false) {
				return fmt.Errorf("presburger: constraints %d and %d are parallel with identical coefficients (duplicate or dominated pair survived simplify)", s.idx, i)
			}
		}
		nh := coeffHash(c.C, true)
		for _, s := range byHash[nh] {
			if !coeffsMatch(s.c.C, c.C, true) {
				continue
			}
			if s.c.Eq || c.Eq {
				return fmt.Errorf("presburger: constraints %d and %d are opposite-parallel with an equality (pinned pair survived simplify)", s.idx, i)
			}
			if s.c.C[0]+c.C[0] <= 0 {
				return fmt.Errorf("presburger: opposite inequalities %d and %d bound an empty or singleton interval (simplify should have detected it)", s.idx, i)
			}
		}
		byHash[h] = append(byHash[h], seen{idx: i, c: c})
	}
	return nil
}

// CheckInvariants validates the structural invariants of the basic set:
// arity consistent with its space, div definitions acyclic and well-ordered
// (numerators reference strictly earlier columns only, denominators
// positive), vector widths consistent with the column layout, and no two
// rows sharing memory.
func (bs BasicSet) CheckInvariants() error {
	if bs.b.ndim != bs.space.Dim() {
		return fmt.Errorf("presburger: basic set has %d dimensions, space %v has %d", bs.b.ndim, bs.space, bs.space.Dim())
	}
	return bs.b.checkInvariants()
}

// CheckInvariants validates the structural invariants of the basic map (see
// BasicSet.CheckInvariants); the dimension count must equal the sum of the
// input and output space arities.
func (bm BasicMap) CheckInvariants() error {
	if want := bm.in.Dim() + bm.out.Dim(); bm.b.ndim != want {
		return fmt.Errorf("presburger: basic map has %d dimensions, spaces %v -> %v have %d", bm.b.ndim, bm.in, bm.out, want)
	}
	return bm.b.checkInvariants()
}

// CheckInvariants validates every basic set of the union in the set's
// space.
func (s Set) CheckInvariants() error {
	for i, bs := range s.Basics() {
		if err := bs.CheckInvariants(); err != nil {
			return fmt.Errorf("basic set %d: %w", i, err)
		}
	}
	return nil
}

// CheckInvariants validates every basic map of the union between the map's
// spaces.
func (m Map) CheckInvariants() error {
	for i, bm := range m.Basics() {
		if err := bm.CheckInvariants(); err != nil {
			return fmt.Errorf("basic map %d: %w", i, err)
		}
	}
	return nil
}

// DebugInvariantsEnabled reports whether the build carries the
// haystackdebug tag, i.e. whether the debugAssert* hooks at the mutation
// frontiers actually check.
func DebugInvariantsEnabled() bool { return debugInvariants }

// debugAssert panics if the basic violates its structural invariants;
// canonical additionally requires the canonical form simplify establishes.
// Compiled away (debugInvariants is a build-tag constant) in normal builds.
func (b *basic) debugAssert(context string, canonical bool) {
	if !debugInvariants {
		return
	}
	if err := b.checkInvariants(); err != nil {
		panic(fmt.Sprintf("presburger: invariant violation after %s: %v\n%s", context, err, b.render(nil)))
	}
	if canonical {
		if err := b.checkCanonical(); err != nil {
			panic(fmt.Sprintf("presburger: canonical-form violation after %s: %v\n%s", context, err, b.render(nil)))
		}
	}
}

// DebugAssertBasicSet panics on invariant violations when the haystackdebug
// build tag is set, and is a no-op otherwise. Exported so other layers
// (lexmin, counting, qpoly) can assert at their own mutation frontiers.
func DebugAssertBasicSet(bs BasicSet, context string) {
	if !debugInvariants {
		return
	}
	if err := bs.CheckInvariants(); err != nil {
		panic(fmt.Sprintf("presburger: invariant violation after %s: %v\n%s", context, err, bs))
	}
}

// DebugAssertBasicMap is DebugAssertBasicSet for basic maps.
func DebugAssertBasicMap(bm BasicMap, context string) {
	if !debugInvariants {
		return
	}
	if err := bm.CheckInvariants(); err != nil {
		panic(fmt.Sprintf("presburger: invariant violation after %s: %v\n%s", context, err, bm))
	}
}

// DebugAssertMap is DebugAssertBasicSet for unions of basic maps.
func DebugAssertMap(m Map, context string) {
	if !debugInvariants {
		return
	}
	if err := m.CheckInvariants(); err != nil {
		panic(fmt.Sprintf("presburger: invariant violation after %s: %v\n%s", context, err, m))
	}
}
