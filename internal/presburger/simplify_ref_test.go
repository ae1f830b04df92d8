package presburger

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"haystack/internal/ints"
)

// refSimplify is simplify as it was with a map-backed dedup index: one
// map[uint64][]int per constraint kind, closures for lookup and insertion,
// and a map of equality copies for the final sweep. It is kept as the
// specification of the pooled index (dedupIndex): simplify must give the
// same verdict and leave the same rows, in the same order, with the same
// Eq flags.
func refSimplify(b *basic) bool {
	b.normalizeDivs()
	// eqByCoeff and ineqByCoeff index the constraints kept so far (by
	// position in out) under the hash of their non-constant coefficients.
	var eqByCoeff, ineqByCoeff map[uint64][]int
	lookup := func(m map[uint64][]int, h uint64) []int {
		if m == nil {
			return nil
		}
		return m[h]
	}
	insert := func(m *map[uint64][]int, h uint64, idx int) {
		if *m == nil {
			*m = make(map[uint64][]int, len(b.cons))
		}
		(*m)[h] = append((*m)[h], idx)
	}
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
		// The negated-coefficient hash is only needed to compare against
		// stored equalities; computing it lazily keeps the common
		// inequality-only path at one hash per constraint.
		nh := uint64(0)
		haveNH := false
		negHash := func() uint64 {
			if !haveNH {
				nh = coeffHash(c.C, true)
				haveNH = true
			}
			return nh
		}
		if c.Eq {
			dup := false
			for _, idx := range lookup(eqByCoeff, h) {
				if coeffsMatch(out[idx].C, c.C, false) {
					// Parallel equalities: identical or contradictory.
					if out[idx].C[0] != c.C[0] {
						return false
					}
					dup = true
					break
				}
			}
			if !dup && eqByCoeff != nil {
				for _, idx := range lookup(eqByCoeff, negHash()) {
					if coeffsMatch(out[idx].C, c.C, true) {
						// f+k0 == 0 stored and -f+k == 0 incoming: equal
						// exactly when k == -k0.
						if out[idx].C[0] != -c.C[0] {
							return false
						}
						dup = true
						break
					}
				}
			}
			if dup {
				continue
			}
			out = append(out, c)
			insert(&eqByCoeff, h, len(out)-1)
			continue
		}
		// Inequality f + k >= 0: an equality on f (either sign) pins it.
		pinned := false
		for _, idx := range lookup(eqByCoeff, h) {
			if coeffsMatch(out[idx].C, c.C, false) {
				// f == -k0, so f + k >= 0 iff k >= k0.
				if c.C[0] < out[idx].C[0] {
					return false
				}
				pinned = true
				break
			}
		}
		if !pinned && eqByCoeff != nil {
			for _, idx := range lookup(eqByCoeff, negHash()) {
				if coeffsMatch(out[idx].C, c.C, true) {
					// -f + k0 == 0, so f == k0 and f + k >= 0 iff k0 + k >= 0.
					if c.C[0]+out[idx].C[0] < 0 {
						return false
					}
					pinned = true
					break
				}
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
		if ineqByCoeff != nil {
			for pos, idx := range lookup(ineqByCoeff, negHash()) {
				if coeffsMatch(out[idx].C, c.C, true) {
					if c.C[0]+out[idx].C[0] < 0 {
						return false
					}
					if c.C[0]+out[idx].C[0] == 0 {
						out[idx].Eq = true
						lst := ineqByCoeff[nh]
						ineqByCoeff[nh] = append(lst[:pos], lst[pos+1:]...)
						insert(&eqByCoeff, nh, idx)
						closed = true
					}
					break
				}
			}
		}
		if closed {
			continue
		}
		// Parallel inequalities: keep the tighter (smaller) constant.
		dominated := false
		for _, idx := range lookup(ineqByCoeff, h) {
			if coeffsMatch(out[idx].C, c.C, false) {
				if c.C[0] < out[idx].C[0] {
					out[idx].C[0] = c.C[0]
				}
				dominated = true
				break
			}
		}
		if dominated {
			continue
		}
		out = append(out, c)
		insert(&ineqByCoeff, h, len(out)-1)
	}
	// The forward pass cannot drop an inequality stored before a parallel
	// equality arrived (the pinned check only looks backwards). Sweep such
	// inequalities out now so pinned-by-equality holds regardless of the
	// order constraints were added in.
	if eqByCoeff != nil && ineqByCoeff != nil {
		eqIdx := make(map[uint64][]Constraint, len(eqByCoeff))
		for _, c := range out {
			if c.Eq {
				h := coeffHash(c.C, false)
				eqIdx[h] = append(eqIdx[h], c)
			}
		}
		kept := out[:0]
		for _, c := range out {
			if !c.Eq {
				pinned := false
				for _, e := range eqIdx[coeffHash(c.C, false)] {
					if coeffsMatch(e.C, c.C, false) {
						// f == -k0 and f + k >= 0: feasible iff k >= k0.
						if c.C[0] < e.C[0] {
							return false
						}
						pinned = true
						break
					}
				}
				if !pinned {
					for _, e := range eqIdx[coeffHash(c.C, true)] {
						if coeffsMatch(e.C, c.C, true) {
							// -f + k0 == 0 and f + k >= 0: f == k0, so
							// feasible iff k0 + k >= 0.
							if c.C[0]+e.C[0] < 0 {
								return false
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
		out = kept
	}
	b.cons = out
	if b.hasConflictingBounds() {
		return false
	}
	b.debugAssert("simplify", true)
	return true
}

// diffSimplify runs simplify and refSimplify on copies of b and reports the
// first difference: the verdict, or any row, row width, order or Eq flag of
// what they leave behind. A false verdict is compared too, because the
// public Simplify returns the basic along with it.
func diffSimplify(b *basic) error {
	got, want := copyRows(b), copyRows(b)
	gotOK, wantOK := got.simplify(), refSimplify(want)
	if gotOK != wantOK {
		return fmt.Errorf("simplify = %v, reference %v\nin: %s", gotOK, wantOK, b.render(nil))
	}
	if !sameExactly(got, want) {
		return fmt.Errorf("simplify (%v) left\n%s\nreference\n%s\nin: %s",
			gotOK, got.render(nil), want.render(nil), b.render(nil))
	}
	return nil
}

// withParallels appends up to eight rows derived from b's own constraints:
// each a copy with its coefficients optionally negated or doubled, a fresh
// constant and a random kind. The dedup index then sees duplicates,
// parallel and opposite pairs, pins and closings that independent random
// rows almost never produce.
func withParallels(rng *rand.Rand, b *basic) *basic {
	for i, n := 0, rng.Intn(9); i < n && len(b.cons) > 0; i++ {
		c := b.cons[rng.Intn(len(b.cons))].C.Clone()
		switch rng.Intn(3) {
		case 0:
			c = c.Neg()
		case 1:
			for j := range c {
				c[j] *= 2
			}
		}
		c[0] = int64(rng.Intn(7)) - 3
		b.cons = append(b.cons, Constraint{C: c, Eq: rng.Intn(4) == 0})
	}
	return b
}

// parallelDivBasics returns n div-bearing random basics with parallel rows
// mixed in (see withParallels).
func parallelDivBasics(seed int64, n int) []*basic {
	rng := rand.New(rand.NewSource(seed))
	out := randomDivBasics(seed, n)
	for _, b := range out {
		withParallels(rng, b)
	}
	return out
}

func TestSimplifyMatchesReferenceOnRandomDivBasics(t *testing.T) {
	empty, dropped := 0, 0
	for trial, b := range parallelDivBasics(21, 2000) {
		if err := diffSimplify(b); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		cl := copyRows(b)
		if !cl.simplify() {
			empty++
		} else if len(cl.cons) < len(b.cons) {
			dropped++
		}
	}
	// Both verdicts must occur, and the dedup rules must fire on the
	// feasible ones, or the comparison proves little.
	if empty == 0 || empty == 2000 || dropped == 0 {
		t.Fatalf("%d of 2000 basics empty, %d with dropped rows; the generator needs every outcome", empty, dropped)
	}
}

// TestSimplifyEdgeCases pins the index moves that random systems reach
// rarely: an inequality stored before its parallel equality arrives (left
// to the final sweep), and an opposite inequality pair closing into an
// equality, before or after a parallel equality with another constant.
func TestSimplifyEdgeCases(t *testing.T) {
	row := func(eq bool, c ...int64) Constraint { return Constraint{C: Vec(c), Eq: eq} }
	cases := []struct {
		name string
		cons []Constraint
		ok   bool
		kept int
	}{
		{"inequality before its equality", []Constraint{
			row(false, -1, 1, 0), row(false, 0, 0, 1), row(true, -3, 1, 0)}, true, 2},
		{"inequality before its negated equality", []Constraint{
			row(false, -1, 1, 0), row(true, 3, -1, 0)}, true, 1},
		{"inequality contradicting a later equality", []Constraint{
			row(false, -5, 1, 0), row(true, -3, 1, 0)}, false, 0},
		{"negated inequality contradicting a later equality", []Constraint{
			row(false, 2, -1, 0), row(true, -3, 1, 0)}, false, 0},
		{"closing after a parallel equality with another constant", []Constraint{
			row(false, -2, 1, 1), row(true, -5, 1, 1), row(false, 2, -1, -1)}, false, 0},
		{"closing, then a parallel equality with another constant", []Constraint{
			row(false, -2, 1, 1), row(false, 2, -1, -1), row(true, -5, 1, 1)}, false, 0},
		{"closing, then the same equality negated", []Constraint{
			row(false, -2, 1, 1), row(false, 2, -1, -1), row(true, 2, -1, -1)}, true, 1},
		{"closing, then a pinned inequality", []Constraint{
			row(false, -2, 1, 1), row(false, 2, -1, -1), row(false, -1, 1, 1), row(false, 0, 1, 0)}, true, 2},
		{"closing, then a contradicting inequality", []Constraint{
			row(false, -2, 1, 1), row(false, 2, -1, -1), row(false, -3, 1, 1)}, false, 0},
		{"two closings", []Constraint{
			row(false, -2, 1, 1), row(false, -1, 1, 0), row(false, 2, -1, -1),
			row(false, 1, -1, 0), row(false, -4, 2, 2)}, true, 2},
	}
	for _, tc := range cases {
		b := &basic{ndim: 2, cons: tc.cons}
		if err := diffSimplify(b); err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		cl := copyRows(b)
		ok := cl.simplify()
		if ok != tc.ok || (ok && len(cl.cons) != tc.kept) {
			t.Errorf("%s: simplify = %v with %d rows, want %v with %d:\n%s",
				tc.name, ok, len(cl.cons), tc.ok, tc.kept, cl.render(nil))
		}
	}
}

// TestSimplifyConcurrent simplifies clones of shared basics from several
// goroutines at once: the pooled dedup index must never be shared between
// two calls, and every result must match the reference.
func TestSimplifyConcurrent(t *testing.T) {
	basics := parallelDivBasics(22, 64)
	type result struct {
		ok bool
		b  *basic
	}
	want := make([]result, len(basics))
	for i, b := range basics {
		w := copyRows(b)
		want[i] = result{refSimplify(w), w}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 4; round++ {
				for k := range basics {
					i := (k + g*7) % len(basics)
					cl := basics[i].clone()
					if ok := cl.simplify(); ok != want[i].ok || (ok && sameRows(&cl, want[i].b) != nil) {
						t.Errorf("goroutine %d: basic %d simplify = %v, reference %v", g, i, ok, want[i].ok)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// walk returns the positions linked under hash h, in index order.
func (x *dedupIndex) walk(h uint64) []int {
	var out []int
	for e := x.first(h); e >= 0; e = x.following(e) {
		out = append(out, int(x.pos[e]))
	}
	return out
}

// TestDedupIndexOrder drives the index directly, with hashes that share a
// bucket: a walk over one hash visits its positions in insertion order,
// skips the other hashes of the bucket, and an unlink (of the head, the
// middle or the tail) keeps the order of the rest and lets later inserts
// link behind the new tail.
func TestDedupIndexOrder(t *testing.T) {
	var x dedupIndex
	x.reset(8)
	const a, b = 3, 3 + 8 // same bucket, different hashes
	for p, h := range []uint64{a, b, a, a, b, a} {
		x.insert(h, p)
	}
	check := func(what string, h uint64, want ...int) {
		t.Helper()
		if got := x.walk(h); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%s: walk(%d) = %v, want %v", what, h, got, want)
		}
	}
	check("inserted", a, 0, 2, 3, 5)
	check("inserted", b, 1, 4)
	x.unlink(x.first(b))              // head of the bucket's b run (position 1)
	x.unlink(x.following(x.first(a))) // middle (position 2)
	check("unlinked", a, 0, 3, 5)
	check("unlinked", b, 4)
	for e := x.first(a); e >= 0; e = x.following(e) {
		if x.pos[e] == 5 {
			x.unlink(e) // the bucket's tail
			break
		}
	}
	x.insert(a, 6)
	x.insert(b, 7)
	check("after the tail's unlink", a, 0, 3, 6)
	check("after the tail's unlink", b, 4, 7)
	if x.live != 5 {
		t.Fatalf("live = %d, want 5", x.live)
	}
	x.reset(8)
	check("reset", a)
}
