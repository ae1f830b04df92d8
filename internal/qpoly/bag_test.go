package qpoly

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"haystack/internal/ints"
	"haystack/internal/presburger"
)

// The line sweep of Bag.CountExceeding is checked against the per-point
// reference below: scan the domain and compare EvalSum with the limit at
// every point, charging before each classification.

// refCountExceeding is the per-point classification CountExceeding
// replaces.
func refCountExceeding(b *Bag, dom presburger.Set, limit ints.Rat, charge func() error) (exceeding, points int64, err error) {
	err = dom.Scan(func(pt []int64) error {
		if err := charge(); err != nil {
			return err
		}
		points++
		if b.EvalSum(pt).Cmp(limit) > 0 {
			exceeding++
		}
		return nil
	})
	return exceeding, points, err
}

// bagCase is a random bag over a statement-like space (loop dimensions and a
// trailing access index) with the domain it classifies.
type bagCase struct {
	pieces []Piece
	dom    presburger.Set
	limit  ints.Rat
}

func (c bagCase) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "limit %v, domain %v\n", c.limit, c.dom)
	for i, p := range c.pieces {
		fmt.Fprintf(&sb, "piece %d: %v -> %v\n", i, presburger.SetFromBasic(p.Domain), p.Poly)
	}
	return sb.String()
}

// bagSpace returns the space of nloop loop dimensions and the access index.
func bagSpace(nloop int) presburger.Space {
	dims := make([]string, nloop+1)
	for i := range nloop {
		dims[i] = fmt.Sprintf("i%d", i)
	}
	dims[nloop] = "a"
	return presburger.NewSpace("S", dims...)
}

// bagDomain builds the union of one basic per access: the loop box, the
// access index pinned to the basic's number (or, when overlap is set, left
// to range over [0, 1] so the basics share points), and a cache-set residue
// over one div, the shape of scop.SetPartition.StatementSetDomain.
func bagDomain(rng *rand.Rand, sp presburger.Space, overlap bool) presburger.Set {
	n := sp.Dim()
	dom := presburger.EmptySet(sp)
	for acc := range 1 + rng.Intn(3) {
		var cons []presburger.Constraint
		for d := range n - 1 {
			lo, hi := presburger.NewVec(n+1), presburger.NewVec(n+1)
			lo[1+d] = 1
			lo[0] = int64(rng.Intn(2))
			hi[1+d] = -1
			hi[0] = int64(3 + rng.Intn(6))
			cons = append(cons, presburger.Constraint{C: lo}, presburger.Constraint{C: hi})
		}
		a := presburger.NewVec(n + 1)
		a[n] = 1
		if overlap {
			b := presburger.NewVec(n + 1)
			b[n], b[0] = -1, 1
			cons = append(cons, presburger.Constraint{C: a}, presburger.Constraint{C: b})
		} else {
			a[0] = -int64(acc)
			cons = append(cons, presburger.Constraint{C: a, Eq: true})
		}
		var divs []presburger.Div
		if rng.Intn(3) > 0 {
			// u = floor(F / (sets·line)), set s: s·line <= F - sets·line·u <= (s+1)·line - 1.
			line, sets := int64(1+rng.Intn(3)), int64(2)
			f := presburger.NewVec(n + 2)
			for d := range n - 1 {
				f[1+d] = int64(rng.Intn(4))
			}
			f[0] = int64(rng.Intn(5))
			divs = []presburger.Div{{Num: f, Den: sets * line}}
			s := int64(rng.Intn(2))
			lo, hi := f.Resized(n+2), f.Neg()
			lo[n+1] -= sets * line
			hi[n+1] += sets * line
			lo[0] -= s * line
			hi[0] += (s+1)*line - 1
			cons = append(cons, presburger.Constraint{C: lo}, presburger.Constraint{C: hi})
		}
		dom = dom.Union(presburger.SetFromBasic(presburger.NewBasicSet(sp, divs, cons)))
	}
	return dom
}

// bagPieceDomain builds a random piece domain: per-dimension bounds with
// some sides left open, a coupling constraint, up to two divs (the second
// may reference the first) with constraints over them, an optionally pinned
// access index, and, when huge is set, a constraint and a div whose 2^62
// coefficients overflow int64 during evaluation.
func bagPieceDomain(rng *rand.Rand, sp presburger.Space, huge bool) presburger.BasicSet {
	n := sp.Dim()
	var divs []presburger.Div
	ndiv := rng.Intn(3)
	if huge {
		ndiv = max(ndiv, 1)
	}
	w := 1 + n + ndiv
	row := func() presburger.Vec { return presburger.NewVec(w) }
	for k := range ndiv {
		num := row()
		for d := range n - 1 {
			num[1+d] = int64(rng.Intn(5) - 2)
		}
		num[0] = int64(rng.Intn(4))
		if k == 1 && rng.Intn(2) == 0 {
			num[1+n] = int64(1 + rng.Intn(2))
		}
		den := int64(2 + rng.Intn(3))
		if huge && k == 0 {
			// floor(2^62·i / 2^62) is i, but its numerator overflows at
			// i >= 2. i is the innermost loop dimension (a swept div) or
			// the outermost (fixed on a line when there are two loops).
			num = row()
			num[[]int{1, n - 1}[rng.Intn(2)]] = 1 << 62
			den = 1 << 62
		}
		divs = append(divs, presburger.Div{Num: num, Den: den})
	}
	var cons []presburger.Constraint
	for d := range n - 1 {
		if rng.Intn(4) > 0 {
			c := row()
			c[1+d], c[0] = 1, -int64(rng.Intn(3))
			cons = append(cons, presburger.Constraint{C: c})
		}
		if rng.Intn(4) > 0 {
			c := row()
			c[1+d], c[0] = -1, int64(2+rng.Intn(6))
			cons = append(cons, presburger.Constraint{C: c})
		}
	}
	if rng.Intn(2) == 0 {
		c := row()
		for d := range n - 1 {
			c[1+d] = int64(rng.Intn(5) - 2)
		}
		c[0] = int64(rng.Intn(8))
		cons = append(cons, presburger.Constraint{C: c})
	}
	for k := range ndiv {
		c := row()
		c[1+n+k] = int64(rng.Intn(5) - 2)
		if c[1+n+k] == 0 {
			c[1+n+k] = -1
		}
		d := rng.Intn(n - 1)
		c[1+d] = int64(rng.Intn(5) - 2)
		c[0] = int64(rng.Intn(6))
		cons = append(cons, presburger.Constraint{C: c, Eq: rng.Intn(5) == 0})
	}
	if rng.Intn(2) == 0 {
		c := row()
		c[n], c[0] = 1, -int64(rng.Intn(2))
		cons = append(cons, presburger.Constraint{C: c, Eq: true})
	}
	if huge && rng.Intn(2) == 0 {
		// 2^62·(i_0 - i_last) + 2^62·4 >= 0: i_0 + 4 >= i_last, evaluated
		// with products that wrap int64.
		c := row()
		c[1] += 1 << 62
		c[n-1] -= 1 << 62
		c[0] = 1 << 62
		cons = append(cons, presburger.Constraint{C: c})
	}
	if huge && rng.Intn(2) == 0 {
		// The huge div, bounded: i <= 5 through the div.
		c := row()
		c[1+n], c[0] = -1, 5
		cons = append(cons, presburger.Constraint{C: c})
	}
	if huge && rng.Intn(2) == 0 {
		// 2^62·(i_0 - q + 1) >= 0, or 2^62·(1 - q) >= 0, over the huge div
		// q.
		c := row()
		c[1+n], c[0] = -1<<62, 1<<62
		if rng.Intn(2) == 0 {
			c[1] = 1 << 62
		}
		cons = append(cons, presburger.Constraint{C: c})
	}
	if rng.Intn(8) == 0 {
		// An equality with a non-unit coefficient on a loop dimension:
		// 2·i_d == i_e + r, empty on the lines of the wrong parity.
		c := row()
		c[1+rng.Intn(n-1)] += 2
		c[1+rng.Intn(n-1)]--
		c[0] = -int64(rng.Intn(2))
		cons = append(cons, presburger.Constraint{C: c, Eq: true})
	}
	return presburger.NewBasicSet(sp, divs, cons)
}

// nonnegPoly returns a random quasi-polynomial that is nonnegative at every
// integer point: a square plus a nonnegative constant.
func nonnegPoly(rng *rand.Rand, nvar int) QPoly {
	q := randomQPoly(rng, nvar)
	return q.Mul(q).Add(ConstInt(nvar, int64(rng.Intn(3))))
}

func randomBagCase(rng *rand.Rand) bagCase {
	sp := bagSpace(1 + rng.Intn(3))
	c := bagCase{dom: bagDomain(rng, sp, rng.Intn(4) == 0), limit: ints.NewRat(int64(rng.Intn(40)), int64(1+rng.Intn(2)))}
	for range 1 + rng.Intn(8) {
		c.pieces = append(c.pieces, Piece{Domain: bagPieceDomain(rng, sp, rng.Intn(6) == 0), Poly: nonnegPoly(rng, sp.Dim())})
	}
	return c
}

func noCharge() error { return nil }

// TestCountExceedingMatchesPerPoint is the differential test of the line
// sweep on random bags: div-bearing pieces (nested divs, divs over the
// sweep dimension), pinned trailing dimensions, pieces with open box sides,
// coefficients whose line setup or point evaluation overflows int64 (the
// exact Contains fallback), and domains whose basics overlap.
func TestCountExceedingMatchesPerPoint(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var exceeded, classified int64
	for iter := range 600 {
		c := randomBagCase(rng)
		b := NewBag(c.pieces)
		gotX, gotP, err := b.CountExceeding(c.dom, c.limit, noCharge)
		if err != nil {
			t.Fatalf("case %d: %v\n%v", iter, err, c)
		}
		wantX, wantP, err := refCountExceeding(b, c.dom, c.limit, noCharge)
		if err != nil {
			t.Fatalf("case %d: reference: %v", iter, err)
		}
		if gotX != wantX || gotP != wantP {
			t.Fatalf("case %d: CountExceeding = (%d, %d), per-point reference (%d, %d)\n%v", iter, gotX, gotP, wantX, wantP, c)
		}
		exceeded += gotX
		classified += gotP
	}
	// The generator must exercise both outcomes.
	if exceeded == 0 || exceeded == classified {
		t.Fatalf("%d of %d points exceeded: the cases do not discriminate", exceeded, classified)
	}
}

// TestCountExceedingDegenerateDomains covers the domains without a line to
// sweep: a zero-dimensional space, and a union whose basics pin every
// dimension (each line is one point).
func TestCountExceedingDegenerateDomains(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	zero := presburger.NewSpace("S")
	universe := presburger.SetFromBasic(presburger.UniverseBasicSet(zero))
	pieces := []Piece{
		{Domain: presburger.UniverseBasicSet(zero), Poly: ConstInt(0, 2)},
		{Domain: presburger.UniverseBasicSet(zero), Poly: ConstInt(0, 3)},
	}
	sp := bagSpace(2)
	pinned := presburger.EmptySet(sp)
	for a := range int64(3) {
		pinned = pinned.Union(presburger.SetFromBasic(presburger.NewBasicSet(sp, nil, []presburger.Constraint{
			{C: presburger.Vec{-a, 1, 0, 0}, Eq: true},
			{C: presburger.Vec{-2, 0, 1, 0}, Eq: true},
			{C: presburger.Vec{-a, 0, 0, 1}, Eq: true},
		})))
	}
	var random []Piece
	for range 8 {
		random = append(random, Piece{Domain: bagPieceDomain(rng, sp, false), Poly: nonnegPoly(rng, sp.Dim())})
	}
	for _, c := range []bagCase{
		{pieces: pieces, dom: universe, limit: ints.RatInt(4)},
		{pieces: pieces, dom: universe, limit: ints.RatInt(5)},
		{pieces: random, dom: pinned, limit: ints.RatInt(3)},
	} {
		b := NewBag(c.pieces)
		gotX, gotP, err := b.CountExceeding(c.dom, c.limit, noCharge)
		if err != nil {
			t.Fatal(err)
		}
		wantX, wantP, _ := refCountExceeding(b, c.dom, c.limit, noCharge)
		if gotX != wantX || gotP != wantP {
			t.Fatalf("CountExceeding = (%d, %d), per-point (%d, %d)\n%v", gotX, gotP, wantX, wantP, c)
		}
	}
}

// TestCountExceedingOverflowFallback pins the overflow paths: a piece whose
// fixed part wraps int64 during the line setup, and one whose swept div
// numerator wraps at the point, must both be classified exactly.
func TestCountExceedingOverflowFallback(t *testing.T) {
	sp := bagSpace(2)
	dom := presburger.SetFromBasic(presburger.NewBasicSet(sp, nil, []presburger.Constraint{
		{C: presburger.Vec{0, 1, 0, 0}}, {C: presburger.Vec{6, -1, 0, 0}},
		{C: presburger.Vec{0, 0, 1, 0}}, {C: presburger.Vec{6, 0, -1, 0}},
		{C: presburger.Vec{0, 0, 0, 1}, Eq: true},
	}))
	const big = 1 << 62
	// Setup overflow: 2^62·(i0 - 1) >= 0 is i0 >= 1, over the fixed i0.
	setup := presburger.NewBasicSet(sp, nil, []presburger.Constraint{{C: presburger.Vec{-big, big, 0, 0}}})
	// Point overflow: floor(2^62·i1 / 2^62) <= 2 is i1 <= 2, over the swept i1.
	point := presburger.NewBasicSet(sp, []presburger.Div{{Num: presburger.Vec{0, 0, big, 0, 0}, Den: big}},
		[]presburger.Constraint{{C: presburger.Vec{2, 0, 0, 0, -1}}})
	b := NewBag([]Piece{{Domain: setup, Poly: ConstInt(3, 1)}, {Domain: point, Poly: ConstInt(3, 1)}})
	for _, limit := range []int64{0, 1} {
		got, _, err := b.CountExceeding(dom, ints.RatInt(limit), noCharge)
		if err != nil {
			t.Fatal(err)
		}
		want, _, _ := refCountExceeding(b, dom, ints.RatInt(limit), noCharge)
		if got != want {
			t.Fatalf("limit %d: CountExceeding = %d, per-point %d", limit, got, want)
		}
	}
}

// TestCountExceedingBudgetMidLine: a charge that fails partway through a
// line stops the sweep after the same number of charges, with the same
// error and the same counts, as the per-point classification.
func TestCountExceedingBudgetMidLine(t *testing.T) {
	errBudget := errors.New("budget exhausted")
	limited := func(n int) (func() error, *int) {
		calls := 0
		return func() error {
			calls++
			if calls > n {
				return errBudget
			}
			return nil
		}, &calls
	}
	rng := rand.New(rand.NewSource(5))
	for iter := range 100 {
		c := randomBagCase(rng)
		b := NewBag(c.pieces)
		_, total, _ := refCountExceeding(b, c.dom, c.limit, noCharge)
		if total < 2 {
			continue
		}
		n := 1 + rng.Intn(int(total-1))
		charge, calls := limited(n)
		gotX, gotP, gotErr := b.CountExceeding(c.dom, c.limit, charge)
		gotCalls := *calls
		charge, calls = limited(n)
		wantX, wantP, wantErr := refCountExceeding(b, c.dom, c.limit, charge)
		if !errors.Is(gotErr, errBudget) || !errors.Is(wantErr, errBudget) {
			t.Fatalf("case %d: errors %v and %v, want the budget error from both", iter, gotErr, wantErr)
		}
		if gotX != wantX || gotP != wantP || gotCalls != *calls {
			t.Fatalf("case %d: stopped at (%d exceeding, %d points, %d charges), per-point at (%d, %d, %d)",
				iter, gotX, gotP, gotCalls, wantX, wantP, *calls)
		}
	}
}

// TestCountExceedingConcurrent runs independent classifiers, and several
// sweeps of one shared bag, from concurrent goroutines: the sweep state is
// per call, so every answer must match its sequential one.
func TestCountExceedingConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	cases := make([]bagCase, 16)
	want := make([]int64, len(cases))
	for i := range cases {
		cases[i] = randomBagCase(rng)
		want[i], _, _ = refCountExceeding(NewBag(cases[i].pieces), cases[i].dom, cases[i].limit, noCharge)
	}
	shared := NewBag(cases[0].pieces)
	var wg sync.WaitGroup
	errs := make(chan error, 2*len(cases))
	for i := range cases {
		wg.Add(2)
		go func() {
			defer wg.Done()
			got, _, err := NewBag(cases[i].pieces).CountExceeding(cases[i].dom, cases[i].limit, noCharge)
			if err != nil || got != want[i] {
				errs <- fmt.Errorf("case %d: %d (%v), want %d", i, got, err, want[i])
			}
		}()
		go func() {
			defer wg.Done()
			got, _, err := shared.CountExceeding(cases[0].dom, cases[0].limit, noCharge)
			if err != nil || got != want[0] {
				errs <- fmt.Errorf("shared bag: %d (%v), want %d", got, err, want[0])
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestEvalAtomOverflowPanics: an atom numerator that wraps int64 must not
// evaluate silently. floor(2^62·x / 2^62) is x, but at x = 4 the numerator
// 2^64 wraps to 0.
func TestEvalAtomOverflowPanics(t *testing.T) {
	p := QPoly{NVar: 1, Atoms: []Atom{{Num: []int64{0, 1 << 62}, Den: 1 << 62}},
		Terms: []Term{{Coef: ints.RatInt(1), Pow: []int{0, 1}}}}
	if got := p.EvalInt([]int64{1}); got != 1 {
		t.Fatalf("eval at 1 = %d, want 1", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("eval at 4 returned instead of panicking on the wrapped numerator")
		}
	}()
	got := p.Eval([]int64{4})
	t.Fatalf("eval at 4 = %v, want an overflow panic", got)
}

// BenchmarkBagCountExceeding classifies the points of a set-domain-shaped
// union (three accesses pinned apart, a residue div) against a bag of
// div-bearing pieces.
func BenchmarkBagCountExceeding(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	sp := bagSpace(2)
	var dom presburger.Set
	for dom.Space().Dim() == 0 || len(dom.Basics()) < 3 {
		dom = bagDomain(rng, sp, false)
	}
	var pieces []Piece
	for range 64 {
		pieces = append(pieces, Piece{Domain: bagPieceDomain(rng, sp, false), Poly: nonnegPoly(rng, sp.Dim())})
	}
	bag := NewBag(pieces)
	limit := ints.RatInt(8)
	b.ReportAllocs()
	for b.Loop() {
		if _, _, err := bag.CountExceeding(dom, limit, noCharge); err != nil {
			b.Fatal(err)
		}
	}
}
