package presburger

import (
	"fmt"
	"math/rand"
	"testing"
)

func gistIneq(ncols int, c0 int64, coeffs ...int64) Constraint {
	c := Constraint{C: NewVec(ncols)}
	c.C[0] = c0
	for i, v := range coeffs {
		c.C[1+i] = v
	}
	return c
}

func TestGistDropsImpliedConstraints(t *testing.T) {
	sp := NewSpace("S", "i", "j")
	ctx := UniverseBasicSet(sp)
	w := ctx.NCols()
	ctx = ctx.AddConstraint(gistIneq(w, 0, 1, 0))  // i >= 0
	ctx = ctx.AddConstraint(gistIneq(w, 9, -1, 0)) // i <= 9
	ctx = ctx.AddConstraint(gistIneq(w, 0, 0, 1))  // j >= 0
	ctx = ctx.AddConstraint(gistIneq(w, 9, 0, -1)) // j <= 9
	bs := UniverseBasicSet(sp)
	bs = bs.AddConstraint(gistIneq(w, 0, 1, 0))    // i >= 0: implied by ctx
	bs = bs.AddConstraint(gistIneq(w, 20, -1, -1)) // i + j <= 20: implied by ctx
	bs = bs.AddConstraint(gistIneq(w, -1, -1, 1))  // j >= i+1: not implied
	g := bs.Gist(ctx)
	if got := len(g.Constraints()); got != 1 {
		t.Fatalf("gist kept %d constraints, want 1: %v", got, g)
	}
	// Within the context nothing changed.
	for i := int64(0); i < 10; i++ {
		for j := int64(0); j < 10; j++ {
			p := []int64{i, j}
			if bs.Contains(p) != g.Contains(p) {
				t.Fatalf("gist changed membership of %v inside the context", p)
			}
		}
	}
}

func TestGistKeepsUnimpliedConstraints(t *testing.T) {
	sp := NewSpace("S", "i")
	ctx := UniverseBasicSet(sp)
	w := ctx.NCols()
	ctx = ctx.AddConstraint(gistIneq(w, 0, 1)) // i >= 0
	bs := UniverseBasicSet(sp)
	bs = bs.AddConstraint(gistIneq(w, 5, -1)) // i <= 5: not implied
	g := bs.Gist(ctx)
	if got := len(g.Constraints()); got != 1 {
		t.Fatalf("gist dropped an unimplied constraint: %v", g)
	}
}

// TestGistRandomizedContextIdentity fuzzes the defining identity
// g ∩ ctx == b ∩ ctx over random systems with and without divs.
func TestGistRandomizedContextIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	sp := NewSpace("S", "x", "y")
	for trial := 0; trial < 80; trial++ {
		mk := func(n int) BasicSet {
			bs := UniverseBasicSet(sp)
			w := bs.NCols()
			bs = bs.AddConstraint(gistIneq(w, 0, 1, 0))
			bs = bs.AddConstraint(gistIneq(w, 7, -1, 0))
			bs = bs.AddConstraint(gistIneq(w, 0, 0, 1))
			bs = bs.AddConstraint(gistIneq(w, 7, 0, -1))
			for k := 0; k < n; k++ {
				bs = bs.AddConstraint(gistIneq(w, int64(rng.Intn(9)-2),
					int64(rng.Intn(3)-1), int64(rng.Intn(3)-1)))
			}
			if rng.Intn(3) == 0 {
				den := int64(2 + rng.Intn(3))
				var col int
				bs, col = bs.AddDiv(Vec{0, 1, 0}, den)
				c := NewVec(bs.NCols())
				c[1], c[col] = 1, -den
				bs = bs.AddConstraint(Constraint{C: c})
			}
			return bs
		}
		bs := mk(1 + rng.Intn(2))
		ctx := mk(rng.Intn(2))
		g := bs.Gist(ctx)
		for x := int64(0); x < 8; x++ {
			for y := int64(0); y < 8; y++ {
				p := []int64{x, y}
				if !ctx.Contains(p) {
					continue
				}
				if bs.Contains(p) != g.Contains(p) {
					t.Fatalf("trial %d: membership of %v differs inside context\nbs=%v\nctx=%v\ngist=%v",
						trial, p, bs, ctx, g)
				}
			}
		}
	}
}

// TestSubtractMatchesScanWithSharedContext exercises the gist path inside
// subtraction: operands share most constraints (the shape the pipeline
// produces), and the difference must stay exact.
func TestSubtractMatchesScanWithSharedContext(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	sp := NewSpace("S", "x", "y")
	for trial := 0; trial < 60; trial++ {
		base := UniverseBasicSet(sp)
		w := base.NCols()
		base = base.AddConstraint(gistIneq(w, 0, 1, 0))
		base = base.AddConstraint(gistIneq(w, 7, -1, 0))
		base = base.AddConstraint(gistIneq(w, 0, 0, 1))
		base = base.AddConstraint(gistIneq(w, 7, 0, -1))
		a := base.AddConstraint(gistIneq(w, int64(rng.Intn(7)), int64(rng.Intn(3)-1), 1))
		o := a
		for k := 0; k < 1+rng.Intn(2); k++ {
			o = o.AddConstraint(gistIneq(w, int64(rng.Intn(9)-2),
				int64(rng.Intn(3)-1), int64(rng.Intn(3)-1)))
		}
		diff := a.Subtract(o)
		for x := int64(0); x < 8; x++ {
			for y := int64(0); y < 8; y++ {
				p := []int64{x, y}
				want := a.Contains(p) && !o.Contains(p)
				if got := diff.Contains(p); got != want {
					t.Fatalf("trial %d: (a\\o).Contains(%v) = %v, want %v\na=%v\no=%v\ndiff=%v",
						trial, p, got, want, a, o, diff)
				}
			}
		}
	}
}

func ExampleBasicSet_Gist() {
	sp := NewSpace("S", "i")
	ctx := UniverseBasicSet(sp)
	ctx = ctx.AddConstraint(Constraint{C: Vec{0, 1}})  // i >= 0
	ctx = ctx.AddConstraint(Constraint{C: Vec{9, -1}}) // i <= 9
	bs := UniverseBasicSet(sp)
	bs = bs.AddConstraint(Constraint{C: Vec{0, 1}})  // i >= 0 (implied)
	bs = bs.AddConstraint(Constraint{C: Vec{5, -1}}) // i <= 5 (kept)
	fmt.Println(bs.Gist(ctx))
	// Output: { S(i) : 5 + -i >= 0 }
}

// Gist returns a basic set g with g ∩ ctx == bs ∩ ctx, obtained by dropping
// constraints of bs implied by ctx together with the constraints of bs kept
// so far. Both operands must share a space. Typical use: simplify a set
// before an operation that will re-impose the context anyway.
func (bs BasicSet) Gist(ctx BasicSet) BasicSet {
	if !bs.space.Equal(ctx.space) {
		panic("presburger: gist space mismatch")
	}
	out := bs.clone()
	gistBasic(&out.b, &ctx.b)
	out.b.debugAssert("gist", false)
	return out
}

// gistBasic drops constraints of b implied by ctx ∧ (constraints of b kept
// so far), in place. The two basics must have the same dimension count; the
// context is embedded into b's column space (divs dedup against b's).
func gistBasic(b, ctx *basic) {
	if len(b.cons) == 0 {
		return
	}
	// Build the combined system: b's layout extended with ctx's divs, and
	// the implication base of ctx constraints plus every div's defining
	// bounds.
	work := b.clone()
	nOwn := len(work.cons)
	work.embed(ctx, identityDimMap(ctx.ndim))
	if len(work.cons) > gistMaxCons || work.ncols() > gistMaxCols {
		return
	}
	base := make([]Constraint, 0, len(work.cons)-nOwn+2*len(work.divs))
	for _, c := range work.cons[nOwn:] {
		base = append(base, Constraint{C: fit(c.C, work.ncols()), Eq: c.Eq})
	}
	base = work.appendDivBounds(base, nil)
	ncols := work.ncols()
	cands := make([]Constraint, nOwn)
	for i, c := range b.cons {
		cands[i] = Constraint{C: fit(work.cons[i].C, ncols), Eq: c.Eq}
	}
	keep := gistFilter(base, ncols, cands)
	kept := b.cons[:0]
	for i, c := range b.cons {
		if keep[i] {
			kept = append(kept, c)
		}
	}
	b.cons = kept
}
