package counting

import (
	"fmt"
	"math/rand"
	"testing"

	"haystack/internal/presburger"
	"haystack/internal/qpoly"
)

// helpers ------------------------------------------------------------------

func boxSet(name string, bounds ...int64) presburger.BasicSet {
	dims := make([]string, len(bounds))
	for i := range dims {
		dims[i] = fmt.Sprintf("i%d", i)
	}
	bs := presburger.UniverseBasicSet(presburger.NewSpace(name, dims...))
	for i, b := range bounds {
		lo := presburger.Constraint{C: presburger.NewVec(bs.NCols())}
		lo.C[1+i] = 1
		bs = bs.AddConstraint(lo)
		hi := presburger.Constraint{C: presburger.NewVec(bs.NCols())}
		hi.C[1+i] = -1
		hi.C[0] = b - 1
		bs = bs.AddConstraint(hi)
	}
	return bs
}

func ineq(ncols int, c0 int64, coeffs ...int64) presburger.Constraint {
	c := presburger.Constraint{C: presburger.NewVec(ncols)}
	c.C[0] = c0
	for i, v := range coeffs {
		c.C[1+i] = v
	}
	return c
}

func eq(ncols int, c0 int64, coeffs ...int64) presburger.Constraint {
	c := ineq(ncols, c0, coeffs...)
	c.Eq = true
	return c
}

// tests ----------------------------------------------------------------------

func TestCountBox(t *testing.T) {
	for _, bounds := range [][]int64{{5}, {3, 4}, {2, 3, 4}, {7, 1, 2, 3}} {
		bs := boxSet("S", bounds...)
		want, err := bs.CountByScan()
		if err != nil {
			t.Fatal(err)
		}
		got, err := countBasicSet(bs, nil)
		if err != nil {
			t.Fatalf("bounds %v: %v", bounds, err)
		}
		if got != want {
			t.Fatalf("bounds %v: symbolic %d, scan %d", bounds, got, want)
		}
	}
}

func TestCountTriangleAndTetrahedron(t *testing.T) {
	// Triangle 0 <= j <= i < 20.
	tri := boxSet("S", 20, 20).AddConstraint(ineq(boxSet("S", 20, 20).NCols(), 0, 1, -1))
	got, err := countBasicSet(tri, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got != 210 {
		t.Fatalf("triangle count = %d, want 210", got)
	}
	// Tetrahedron 0 <= k <= j <= i < 12.
	tet := boxSet("S", 12, 12, 12)
	tet = tet.AddConstraint(ineq(tet.NCols(), 0, 1, -1, 0))
	tet = tet.AddConstraint(ineq(tet.NCols(), 0, 0, 1, -1))
	got, err = countBasicSet(tet, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := tet.CountByScan()
	if got != want {
		t.Fatalf("tetrahedron count = %d, want %d", got, want)
	}
}

func TestCountWithEqualityAndDivisibility(t *testing.T) {
	// { (i,j) : 0<=i<30, j == 2i, 0<=j<30 }  -> i in [0,14] -> 15 points.
	bs := boxSet("S", 30, 30).AddConstraint(eq(boxSet("S", 30, 30).NCols(), 0, 2, -1))
	got, err := countBasicSet(bs, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := bs.CountByScan()
	if got != want {
		t.Fatalf("count = %d, want %d", got, want)
	}

	// { i : 0 <= i < 40, i == 4*floor(i/4) }  -> multiples of 4 -> 10 points.
	m4 := boxSet("S", 40)
	m4, col := m4.AddDiv(presburger.Vec{0, 1}, 4)
	c := presburger.Constraint{C: presburger.NewVec(m4.NCols()), Eq: true}
	c.C[1] = 1
	c.C[col] = -4
	m4 = m4.AddConstraint(c)
	got, err = countBasicSet(m4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got != 10 {
		t.Fatalf("multiples of 4 count = %d, want 10", got)
	}
}

func TestCardBasicMapTriangular(t *testing.T) {
	// { S(i) -> T(j) : 0 <= j <= i } restricted to 0 <= i < 50: card = i+1.
	s := presburger.NewSpace("S", "i")
	o := presburger.NewSpace("T", "j")
	bm := presburger.UniverseBasicMap(s, o)
	bm = bm.AddConstraint(ineq(bm.NCols(), 0, 1, 0))
	bm = bm.AddConstraint(ineq(bm.NCols(), 49, -1, 0))
	bm = bm.AddConstraint(ineq(bm.NCols(), 0, 0, 1))
	bm = bm.AddConstraint(ineq(bm.NCols(), 0, 1, -1))

	card, err := cardBasicSet(bm.AsSet(), bm.NIn(), bm.InSpace(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 50; i += 7 {
		if got := card.EvalInt([]int64{i}); got != i+1 {
			t.Fatalf("card(%d) = %d, want %d", i, got, i+1)
		}
	}
	if card.EvalInt([]int64{1000}) != 0 {
		t.Fatal("card outside the domain should be 0")
	}
}

func TestCardBasicMapWithCacheLines(t *testing.T) {
	// { S(i) -> L(c) : 4c <= j <= 4c+3, 0 <= j <= i, 0 <= i < 64 }:
	// the number of distinct 4-element lines touched by elements 0..i, which
	// is floor(i/4)+1.
	s := presburger.NewSpace("S", "i")
	l := presburger.NewSpace("L", "c")
	// Build via an intermediate j dimension: use a map S(i) -> (j) -> lines.
	// Simpler: directly express lines c such that exists j <= i in line c:
	// 4c <= i and c >= 0 (every line up to the one containing i).
	bm := presburger.UniverseBasicMap(s, l)
	bm = bm.AddConstraint(ineq(bm.NCols(), 0, 1, 0))
	bm = bm.AddConstraint(ineq(bm.NCols(), 63, -1, 0))
	bm = bm.AddConstraint(ineq(bm.NCols(), 0, 0, 1))
	bm = bm.AddConstraint(ineq(bm.NCols(), 0, 1, -4))

	card, err := cardBasicSet(bm.AsSet(), bm.NIn(), bm.InSpace(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 64; i++ {
		want := i/4 + 1
		if got := card.EvalInt([]int64{i}); got != want {
			t.Fatalf("card(%d) = %d, want %d", i, got, want)
		}
	}
}

// TestCardSetDeduplicatesWrappedUnion counts a union map as its wrapped
// set: an output related through both basic maps is counted once.
func TestCardSetDeduplicatesWrappedUnion(t *testing.T) {
	// Two overlapping relations to the same range: {S(i)->T(j): 0<=j<=i} and
	// {S(i)->T(j): 0<=j<5}, for 0<=i<20. Distinct outputs = max(i+1, 5)... no:
	// union of [0,i] and [0,4] = [0, max(i,4)] -> max(i,4)+1.
	s := presburger.NewSpace("S", "i")
	o := presburger.NewSpace("T", "j")
	mk := func(f func(bm presburger.BasicMap) presburger.BasicMap) presburger.BasicMap {
		bm := presburger.UniverseBasicMap(s, o)
		bm = bm.AddConstraint(ineq(bm.NCols(), 0, 1, 0))
		bm = bm.AddConstraint(ineq(bm.NCols(), 19, -1, 0))
		bm = bm.AddConstraint(ineq(bm.NCols(), 0, 0, 1))
		return f(bm)
	}
	a := mk(func(bm presburger.BasicMap) presburger.BasicMap {
		return bm.AddConstraint(ineq(bm.NCols(), 0, 1, -1))
	})
	b := mk(func(bm presburger.BasicMap) presburger.BasicMap {
		return bm.AddConstraint(ineq(bm.NCols(), 4, 0, -1))
	})
	m := presburger.MapFromBasics(a, b)
	card, err := CardSet(m.AsSet(), 1, s, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 20; i++ {
		want := i + 1
		if want < 5 {
			want = 5
		}
		if got := card.EvalInt([]int64{i}); got != want {
			t.Fatalf("card(%d) = %d, want %d", i, got, want)
		}
	}
}

func TestCountSetUnionDedup(t *testing.T) {
	a := boxSet("S", 10)
	b := boxSet("S", 10).AddConstraint(ineq(boxSet("S", 10).NCols(), -5, 1)) // i >= 5
	s := presburger.SetFromBasic(a).Union(presburger.SetFromBasic(b))
	got, err := CountSet(s, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got != 10 {
		t.Fatalf("union count = %d, want 10", got)
	}
}

// countMapPairs returns the exact number of distinct relation pairs of the
// map, counted symbolically as its wrapped set.
func countMapPairs(m presburger.Map) (int64, error) { return countSymbolic(m.AsSet(), nil) }

func TestCountMapPairs(t *testing.T) {
	sp := presburger.NewSpace("S", "i", "j")
	lt := presburger.LexLT(sp)
	box := presburger.SetFromBasic(boxSet("S", 4, 4))
	restricted := lt.IntersectDomain(box).IntersectRange(box)
	got, err := countMapPairs(restricted)
	if err != nil {
		t.Fatal(err)
	}
	// 16 points -> 16*15/2 strictly ordered pairs.
	if got != 120 {
		t.Fatalf("pairs = %d, want 120", got)
	}
}

func TestRandomCountsMatchScan(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 80; trial++ {
		nd := 1 + rng.Intn(3)
		bounds := make([]int64, nd)
		for i := range bounds {
			bounds[i] = int64(2 + rng.Intn(6))
		}
		bs := boxSet("S", bounds...)
		// A couple of random extra constraints with small coefficients.
		for k := 0; k < rng.Intn(3); k++ {
			coeffs := make([]int64, nd)
			for i := range coeffs {
				coeffs[i] = int64(rng.Intn(5) - 2)
			}
			bs = bs.AddConstraint(ineq(bs.NCols(), int64(rng.Intn(11)-3), coeffs...))
		}
		want, err := bs.CountByScan()
		if err != nil {
			t.Fatal(err)
		}
		got, err := countBasicSet(bs, nil)
		if err != nil {
			// The random constraints may fall outside the supported fragment
			// (e.g. produce unbounded relaxations); that is a legitimate
			// fallback path, not a failure.
			t.Logf("trial %d: fallback (%v)", trial, err)
			continue
		}
		if got != want {
			t.Fatalf("trial %d: symbolic %d, scan %d for %v", trial, got, want, bs)
		}
	}
}

func TestRandomParametricCardMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 60; trial++ {
		// Map S(i) -> T(j,k) with random constraints coupling i, j, k.
		s := presburger.NewSpace("S", "i")
		o := presburger.NewSpace("T", "j", "k")
		bm := presburger.UniverseBasicMap(s, o)
		bm = bm.AddConstraint(ineq(bm.NCols(), 0, 1, 0, 0))
		bm = bm.AddConstraint(ineq(bm.NCols(), 7, -1, 0, 0))
		bm = bm.AddConstraint(ineq(bm.NCols(), 0, 0, 1, 0))
		bm = bm.AddConstraint(ineq(bm.NCols(), int64(3+rng.Intn(5)), 0, -1, 0))
		bm = bm.AddConstraint(ineq(bm.NCols(), 0, 0, 0, 1))
		bm = bm.AddConstraint(ineq(bm.NCols(), int64(3+rng.Intn(5)), 0, 0, -1))
		for k := 0; k < 1+rng.Intn(2); k++ {
			bm = bm.AddConstraint(ineq(bm.NCols(), int64(rng.Intn(7)-1),
				int64(rng.Intn(3)-1), int64(rng.Intn(3)-1), int64(rng.Intn(3)-1)))
		}
		card, err := cardBasicSet(bm.AsSet(), bm.NIn(), bm.InSpace(), nil)
		if err != nil {
			t.Logf("trial %d: fallback (%v)", trial, err)
			continue
		}
		for i := int64(0); i < 8; i++ {
			fixed := bm.FixInputDim(0, i)
			want, err := fixed.CountByScan()
			if err != nil {
				t.Fatal(err)
			}
			if got := card.EvalInt([]int64{i}); got != want {
				t.Fatalf("trial %d i=%d: symbolic %d, scan %d\nmap=%v\ncard=%v",
					trial, i, got, want, bm, card)
			}
		}
	}
}

func TestPieceCountReported(t *testing.T) {
	bs := boxSet("S", 9, 9).AddConstraint(ineq(boxSet("S", 9, 9).NCols(), 0, 1, -1))
	pw, err := cardBasicSet(bs, 1, presburger.NewSpace("S", "i"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if pw.NumPieces() == 0 {
		t.Fatal("expected at least one piece")
	}
	if pw.MaxDegree() > 1 {
		t.Fatalf("triangular card should be affine, got degree %d (%v)", pw.MaxDegree(), pw)
	}
	_ = qpoly.ZeroPw(presburger.NewSpace("S", "i"))
}
