package presburger

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"haystack/internal/ints"
)

// Heap oracle for the yes/no predicates that run in pooled scratch
// (isObviouslyEmpty, rationalFeasible, impliedIneq). The ref*
// functions are the implementations the scratch versions replaced: a heap
// clone, simplify, and Fourier–Motzkin rounds that allocate every header
// and row and normalize each derived row on a copy. They are kept as the
// specification: the scratch predicates must give the same answers and
// must leave the rows they read untouched.

func refNormalizeConstraint(c Constraint) Constraint {
	var g int64
	for _, x := range c.C[1:] {
		g = ints.GCD(g, x)
	}
	if g <= 1 || c.Eq && c.C[0]%g != 0 {
		return c
	}
	out := c.Clone()
	for i := 1; i < len(out.C); i++ {
		out.C[i] /= g
	}
	if c.Eq {
		out.C[0] = c.C[0] / g
	} else {
		out.C[0] = ints.FloorDiv(c.C[0], g)
	}
	return out
}

func refCombineChecked(s int64, x Vec, f int64, y Vec) (Vec, bool) {
	nc := NewVec(len(x))
	for k := range nc {
		v, ok := combineTry(s, x[k], f, y[k])
		if !ok {
			return nil, false
		}
		nc[k] = v
	}
	return nc, true
}

func refMaterialized(b *basic) []Constraint {
	n := b.ncols()
	out := make([]Constraint, 0, len(b.cons)+2*len(b.divs))
	for _, c := range b.cons {
		out = append(out, Constraint{C: c.C.Resized(n), Eq: c.Eq})
	}
	for i, d := range b.divs {
		col := b.divCol(i)
		num := d.Num.Resized(n)
		lower := num.Clone()
		lower[col] -= d.Den
		upper := num.Neg()
		upper[col] += d.Den
		upper[0] += d.Den - 1
		out = append(out, Constraint{C: lower}, Constraint{C: upper})
	}
	return out
}

func refRationalEliminate(cons []Constraint, col int) []Constraint {
	for i, c := range cons {
		if c.Eq && c.C[col] != 0 && c.C[col] != math.MinInt64 {
			pivot := c
			out := make([]Constraint, 0, len(cons)-1)
			for j, o := range cons {
				if j == i {
					continue
				}
				a := o.C[col]
				if a == 0 {
					out = append(out, o)
					continue
				}
				p := pivot.C[col]
				scale := ints.Abs(p)
				f := -a
				if p < 0 {
					f = a
				}
				if a == math.MinInt64 {
					continue
				}
				nc, ok := refCombineChecked(scale, o.C, f, pivot.C)
				if !ok {
					continue
				}
				nc[col] = 0
				out = append(out, refNormalizeConstraint(Constraint{C: nc, Eq: o.Eq}))
			}
			return out
		}
	}
	var rest []Constraint
	for _, c := range cons {
		if c.C[col] == 0 {
			rest = append(rest, c)
		}
	}
	for _, lo := range cons {
		if lo.C[col] <= 0 {
			continue
		}
		for _, up := range cons {
			if up.C[col] >= 0 || up.C[col] == math.MinInt64 {
				continue
			}
			nc, ok := refCombineChecked(lo.C[col], up.C, -up.C[col], lo.C)
			if !ok {
				continue
			}
			nc[col] = 0
			rest = append(rest, refNormalizeConstraint(Constraint{C: nc}))
		}
	}
	if len(rest) > maxFMConstraints {
		rest = rest[:maxFMConstraints]
	}
	return rest
}

func refFMInfeasible(cons []Constraint, ncols, budget int) bool {
	if hasDivisibilityContradiction(cons) {
		return true
	}
	for col := ncols - 1; col >= 1; col-- {
		cons = refRationalEliminate(cons, col)
		if hasDivisibilityContradiction(cons) {
			return true
		}
		if len(cons) > budget {
			return false
		}
	}
	for _, c := range cons {
		if c.Eq && c.C[0] != 0 || !c.Eq && c.C[0] < 0 {
			return true
		}
	}
	return false
}

func refIsObviouslyEmpty(b *basic) bool {
	cl := b.clone()
	if !cl.simplify() {
		return true
	}
	return refFMInfeasible(refMaterialized(&cl), cl.ncols(), math.MaxInt)
}

// copyCons deep-copies a constraint header and its rows.
func copyCons(cons []Constraint) []Constraint {
	out := make([]Constraint, len(cons))
	for i, c := range cons {
		out[i] = c.Clone()
	}
	return out
}

// diffPredicates runs the scratch predicates and their references on b and
// reports the first disagreement, or a change to the rows they read. The
// implication test runs on b's materialized system against each of its
// rows, both ways round, the tests the coalescer makes.
func diffPredicates(b *basic) error {
	orig := copyRows(b)
	if got, want := b.isObviouslyEmpty(), refIsObviouslyEmpty(b); got != want {
		return fmt.Errorf("isObviouslyEmpty = %v, reference %v\nin: %s", got, want, b.render(nil))
	}
	if got, want := b.rationalFeasible(), !refFMInfeasible(refMaterialized(b), b.ncols(), math.MaxInt); got != want {
		return fmt.Errorf("rationalFeasible = %v, reference %v\nin: %s", got, want, b.render(nil))
	}
	base := refMaterialized(b)
	before := copyCons(base)
	for i := range base {
		for _, sign := range []int64{1, -1} {
			// The system the implication test refutes: base and the
			// integer negation of sign·base[i] >= 0.
			neg := NewVec(len(base[i].C))
			for j, x := range base[i].C {
				neg[j] = -sign * x
			}
			neg[0]--
			test := append(append([]Constraint(nil), base...), Constraint{C: neg})
			got, want := impliedIneq(base, base[i].C, sign, b.ncols()), refFMInfeasible(test, b.ncols(), implicationBudget)
			if got != want {
				return fmt.Errorf("impliedIneq (constraint %d, sign %d) = %v, reference %v\nin: %s", i, sign, got, want, b.render(nil))
			}
		}
	}
	for j := range base {
		if base[j].Eq != before[j].Eq || fmt.Sprint(base[j].C) != fmt.Sprint(before[j].C) {
			return fmt.Errorf("impliedIneq changed input row %d: %v, was %v", j, base[j].C, before[j].C)
		}
	}
	if !sameExactly(b, orig) {
		return fmt.Errorf("predicates changed their input:\nnow: %s\nwas: %s", b.render(nil), orig.render(nil))
	}
	return nil
}

// randomDivBasics returns n basics from randomShortBasic that carry at least
// one div, the shape the previous-access lexmax and the counting engine
// feed the emptiness checks.
func randomDivBasics(seed int64, n int) []*basic {
	rng := rand.New(rand.NewSource(seed))
	var out []*basic
	for len(out) < n {
		if b := randomShortBasic(rng); len(b.divs) > 0 {
			out = append(out, b)
		}
	}
	return out
}

func TestPredicatesMatchReferenceOnRandomDivBasics(t *testing.T) {
	empty := 0
	for trial, b := range randomDivBasics(11, 2000) {
		if err := diffPredicates(b); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if b.isObviouslyEmpty() {
			empty++
		}
	}
	// Both answers must occur, or the comparison proves little.
	if empty == 0 || empty == 2000 {
		t.Fatalf("%d of 2000 basics detected empty; the generator needs both outcomes", empty)
	}
}

// TestDefinitelyEmptyConcurrent calls DefinitelyEmpty on shared basics from
// several goroutines at once: the pooled scratch must never be shared
// between two calls, and the shared inputs must stay unchanged.
func TestDefinitelyEmptyConcurrent(t *testing.T) {
	basics := randomDivBasics(12, 64)
	sets := make([]BasicSet, len(basics))
	want := make([]bool, len(basics))
	origs := make([]*basic, len(basics))
	for i, b := range basics {
		dims := make([]string, b.ndim)
		for d := range dims {
			dims[d] = fmt.Sprintf("d%d", d)
		}
		sets[i] = BasicSet{space: NewSpace("S", dims...), b: *b}
		want[i] = refIsObviouslyEmpty(b)
		origs[i] = copyRows(b)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 4; round++ {
				for k := range sets {
					i := (k + g*7) % len(sets)
					if got := sets[i].DefinitelyEmpty(); got != want[i] {
						t.Errorf("goroutine %d: basic %d DefinitelyEmpty = %v, want %v", g, i, got, want[i])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	for i, bs := range sets {
		if !sameExactly(&bs.b, origs[i]) {
			t.Errorf("basic %d changed under concurrent DefinitelyEmpty", i)
		}
	}
}
