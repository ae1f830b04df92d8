package presburger

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// boxSet builds the basic set 0 <= d_i < bounds[i] for each dimension.
func boxSet(name string, bounds ...int64) BasicSet {
	dims := make([]string, len(bounds))
	for i := range dims {
		dims[i] = fmt.Sprintf("i%d", i)
	}
	bs := UniverseBasicSet(NewSpace(name, dims...))
	for i, b := range bounds {
		lo := Constraint{C: NewVec(bs.NCols())}
		lo.C[1+i] = 1
		bs = bs.AddConstraint(lo)
		hi := Constraint{C: NewVec(bs.NCols())}
		hi.C[1+i] = -1
		hi.C[0] = b - 1
		bs = bs.AddConstraint(hi)
	}
	return bs
}

// ineq builds an inequality constraint c0 + sum(coeffs[i]*dim_i) >= 0 over
// ncols columns.
func ineq(ncols int, c0 int64, coeffs ...int64) Constraint {
	c := Constraint{C: NewVec(ncols)}
	c.C[0] = c0
	for i, v := range coeffs {
		c.C[1+i] = v
	}
	return c
}

// eq builds an equality constraint.
func eq(ncols int, c0 int64, coeffs ...int64) Constraint {
	c := ineq(ncols, c0, coeffs...)
	c.Eq = true
	return c
}

func collectPoints(t *testing.T, scan func(func([]int64) error) error) map[string]bool {
	t.Helper()
	out := map[string]bool{}
	err := scan(func(p []int64) error {
		out[fmt.Sprint(p)] = true
		return nil
	})
	if err != nil {
		t.Fatalf("scan failed: %v", err)
	}
	return out
}

func TestBoxScanCount(t *testing.T) {
	bs := boxSet("S", 3, 4)
	n, err := bs.CountByScan()
	if err != nil {
		t.Fatal(err)
	}
	if n != 12 {
		t.Fatalf("count = %d, want 12", n)
	}
	pts := collectPoints(t, bs.Scan)
	if len(pts) != 12 {
		t.Fatalf("scan found %d points, want 12", len(pts))
	}
	if !bs.Contains([]int64{2, 3}) || bs.Contains([]int64{3, 0}) {
		t.Fatal("containment wrong")
	}
}

// TestScanDedupesUnlessPinnedApart: a union scan reports every point once.
// Basics that pin one common dimension to pairwise distinct constants are
// disjoint and skip the deduplication; overlapping basics, and basics
// pinned on a common dimension to the same value or on different
// dimensions, are deduplicated.
func TestScanDedupesUnlessPinnedApart(t *testing.T) {
	n := boxSet("S", 4, 3).NCols()
	// part returns the box 0 <= i < 4, 0 <= j < 3 restricted by extra.
	part := func(extra ...Constraint) BasicSet {
		bs := boxSet("S", 4, 3)
		for _, c := range extra {
			bs = bs.AddConstraint(c)
		}
		return bs
	}
	for _, tc := range []struct {
		name   string
		basics []BasicSet
		want   int
		apart  bool
	}{
		{"overlapping boxes", []BasicSet{part(ineq(n, 2, -1, 0)), part(ineq(n, -1, 1, 0))}, 12, false},
		{"pinned to one value", []BasicSet{part(eq(n, -1, 0, 1), ineq(n, 2, -1, 0)), part(eq(n, -1, 0, 1), ineq(n, -1, 1, 0))}, 4, false},
		{"pinned on different dimensions", []BasicSet{part(eq(n, 0, 1, 0)), part(eq(n, 0, 0, 1))}, 6, false},
		{"pinned apart on j", []BasicSet{part(eq(n, 0, 0, 1)), part(eq(n, -1, 0, 1)), part(eq(n, -2, 0, 1))}, 12, true},
		{"pinned apart on j, out of order", []BasicSet{part(eq(n, -2, 0, 1)), part(eq(n, 0, 0, 1))}, 8, true},
		{"a repeated pin", []BasicSet{part(eq(n, 0, 0, 1)), part(eq(n, -1, 0, 1)), part(eq(n, 0, 0, 1), ineq(n, -2, 1, 0))}, 8, false},
	} {
		s := SetFromBasics(tc.basics...)
		if got := s.basics.pinnedApart(); got != tc.apart {
			t.Errorf("%s: pinnedApart = %v, want %v", tc.name, got, tc.apart)
		}
		seen := map[string]int{}
		if err := s.Scan(func(p []int64) error { seen[fmt.Sprint(p)]++; return nil }); err != nil {
			t.Fatal(err)
		}
		for p, k := range seen {
			if k != 1 {
				t.Errorf("%s: point %s reported %d times", tc.name, p, k)
			}
		}
		if len(seen) != tc.want {
			t.Errorf("%s: %d distinct points, want %d", tc.name, len(seen), tc.want)
		}
	}
}

func TestTriangleCount(t *testing.T) {
	// { (i,j) : 0 <= i < 10, 0 <= j <= i }  has 55 points.
	bs := boxSet("S", 10, 10)
	bs = bs.AddConstraint(ineq(bs.NCols(), 0, 1, -1)) // i - j >= 0
	n, err := bs.CountByScan()
	if err != nil {
		t.Fatal(err)
	}
	if n != 55 {
		t.Fatalf("triangle count = %d, want 55", n)
	}
}

func TestEmptyDetection(t *testing.T) {
	bs := boxSet("S", 4)
	bs = bs.AddConstraint(ineq(bs.NCols(), -10, 1)) // i >= 10, contradiction
	if !bs.DefinitelyEmpty() {
		t.Fatal("expected definite emptiness")
	}
	n, err := bs.CountByScan()
	if err != nil || n != 0 {
		t.Fatalf("count = %d, err=%v", n, err)
	}
}

func TestFixDimAndSimplify(t *testing.T) {
	bs := boxSet("S", 5, 5).FixDim(0, 2)
	n, _ := bs.CountByScan()
	if n != 5 {
		t.Fatalf("fixed count = %d, want 5", n)
	}
	_, ok := bs.FixDim(0, 7).Simplify()
	if ok {
		t.Fatal("contradictory fix should simplify to empty")
	}
}

func TestDivConstraintScan(t *testing.T) {
	// { i : 0 <= i < 16 and i = 4*floor(i/4) }  -> multiples of 4.
	bs := boxSet("S", 16)
	bs, col := bs.AddDiv(Vec{0, 1}, 4) // floor(i/4)
	c := Constraint{C: NewVec(bs.NCols()), Eq: true}
	c.C[1] = 1
	c.C[col] = -4
	bs = bs.AddConstraint(c)
	pts := collectPoints(t, bs.Scan)
	want := map[string]bool{"[0]": true, "[4]": true, "[8]": true, "[12]": true}
	if len(pts) != len(want) {
		t.Fatalf("points = %v", pts)
	}
	for k := range want {
		if !pts[k] {
			t.Fatalf("missing point %s in %v", k, pts)
		}
	}
}

func TestSetUnionIntersectSubtract(t *testing.T) {
	a := SetFromBasic(boxSet("S", 6, 6).AddConstraint(ineq(boxSet("S", 6, 6).NCols(), 0, 1, -1))) // j <= i
	b := SetFromBasic(boxSet("S", 6, 6).AddConstraint(ineq(boxSet("S", 6, 6).NCols(), -2, 1, 0))) // i >= 2
	uni := a.Union(b)
	inter := a.Intersect(b)
	diff := a.Subtract(b)

	box := boxSet("S", 6, 6)
	brute := func(pred func(i, j int64) bool) map[string]bool {
		out := map[string]bool{}
		_ = box.Scan(func(p []int64) error {
			if pred(p[0], p[1]) {
				out[fmt.Sprint(p)] = true
			}
			return nil
		})
		return out
	}
	inA := func(i, j int64) bool { return j <= i }
	inB := func(i, j int64) bool { return i >= 2 }

	checks := []struct {
		name string
		got  map[string]bool
		want map[string]bool
	}{
		{"union", collectPoints(t, uni.Scan), brute(func(i, j int64) bool { return inA(i, j) || inB(i, j) })},
		{"intersect", collectPoints(t, inter.Scan), brute(func(i, j int64) bool { return inA(i, j) && inB(i, j) })},
		{"subtract", collectPoints(t, diff.Scan), brute(func(i, j int64) bool { return inA(i, j) && !inB(i, j) })},
	}
	for _, c := range checks {
		if len(c.got) != len(c.want) {
			t.Errorf("%s: got %d points, want %d", c.name, len(c.got), len(c.want))
			continue
		}
		for k := range c.want {
			if !c.got[k] {
				t.Errorf("%s: missing %s", c.name, k)
			}
		}
	}
}

func TestRandomSetAlgebra(t *testing.T) {
	// Randomized comparison of set algebra against brute force over a box.
	rng := rand.New(rand.NewSource(42))
	const trials = 60
	for trial := 0; trial < trials; trial++ {
		mk := func() (BasicSet, func(i, j int64) bool) {
			base := boxSet("S", 7, 7)
			type lc struct{ c0, a, b int64 }
			var cs []lc
			n := 1 + rng.Intn(2)
			for k := 0; k < n; k++ {
				c := lc{int64(rng.Intn(9) - 4), int64(rng.Intn(5) - 2), int64(rng.Intn(5) - 2)}
				cs = append(cs, c)
				base = base.AddConstraint(ineq(base.NCols(), c.c0, c.a, c.b))
			}
			pred := func(i, j int64) bool {
				if i < 0 || i >= 7 || j < 0 || j >= 7 {
					return false
				}
				for _, c := range cs {
					if c.c0+c.a*i+c.b*j < 0 {
						return false
					}
				}
				return true
			}
			return base, pred
		}
		a, predA := mk()
		b, predB := mk()
		sa, sb := SetFromBasic(a), SetFromBasic(b)

		ops := []struct {
			name string
			set  Set
			pred func(i, j int64) bool
		}{
			{"union", sa.Union(sb), func(i, j int64) bool { return predA(i, j) || predB(i, j) }},
			{"intersect", sa.Intersect(sb), func(i, j int64) bool { return predA(i, j) && predB(i, j) }},
			{"subtract", sa.Subtract(sb), func(i, j int64) bool { return predA(i, j) && !predB(i, j) }},
		}
		for _, op := range ops {
			got := map[string]bool{}
			if err := op.set.Scan(func(p []int64) error {
				got[fmt.Sprintf("%d,%d", p[0], p[1])] = true
				return nil
			}); err != nil {
				t.Fatalf("trial %d %s: scan error %v", trial, op.name, err)
			}
			for i := int64(0); i < 7; i++ {
				for j := int64(0); j < 7; j++ {
					want := op.pred(i, j)
					if got[fmt.Sprintf("%d,%d", i, j)] != want {
						t.Fatalf("trial %d %s: mismatch at (%d,%d): got %v want %v\nA=%v\nB=%v",
							trial, op.name, i, j, !want, want, sa, sb)
					}
				}
			}
		}
	}
}

func TestBasicMapReverseDomainRange(t *testing.T) {
	// { S(i) -> M(j) : j = 3 - i, 0 <= i < 4 }
	s := NewSpace("S", "i")
	m := NewSpace("M", "j")
	bm := UniverseBasicMap(s, m)
	bm = bm.AddConstraint(eq(bm.NCols(), -3, 1, 1)) // i + j - 3 == 0
	bm = bm.AddConstraint(ineq(bm.NCols(), 0, 1, 0))
	bm = bm.AddConstraint(ineq(bm.NCols(), 3, -1, 0))

	if n, _ := bm.CountByScan(); n != 4 {
		t.Fatalf("relation size = %d, want 4", n)
	}
	rev := bm.Reverse()
	if !rev.Contains([]int64{3, 0}) || rev.Contains([]int64{0, 0}) {
		t.Fatal("reverse wrong")
	}
	dom, err := bm.Domain()
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := dom.CountByScan(); n != 4 {
		t.Fatalf("domain size = %d, want 4", n)
	}
	rng, err := bm.Range()
	if err != nil {
		t.Fatal(err)
	}
	pts := collectPoints(t, rng.Scan)
	for j := int64(0); j < 4; j++ {
		if !pts[fmt.Sprint([]int64{j})] {
			t.Fatalf("range missing %d: %v", j, pts)
		}
	}
}

func TestApplyRangeComposition(t *testing.T) {
	// A: S(i) -> M(i) on 0 <= i < 8 ; B: M(j) -> T(j+1).
	s := NewSpace("S", "i")
	m := NewSpace("M", "j")
	tt := NewSpace("T", "k")
	a := UniverseBasicMap(s, m)
	a = a.AddConstraint(eq(a.NCols(), 0, 1, -1))
	a = a.AddConstraint(ineq(a.NCols(), 0, 1, 0))
	a = a.AddConstraint(ineq(a.NCols(), 7, -1, 0))
	b := UniverseBasicMap(m, tt)
	b = b.AddConstraint(eq(b.NCols(), 1, 1, -1)) // k = j + 1

	c, err := a.ApplyRange(b)
	if err != nil {
		t.Fatal(err)
	}
	if c.InSpace().Name != "S" || c.OutSpace().Name != "T" {
		t.Fatalf("composed spaces: %v -> %v", c.InSpace(), c.OutSpace())
	}
	n, err := c.CountByScan()
	if err != nil {
		t.Fatal(err)
	}
	if n != 8 {
		t.Fatalf("composition size = %d, want 8", n)
	}
	if !c.Contains([]int64{3, 4}) || c.Contains([]int64{3, 3}) {
		t.Fatal("composition relation wrong")
	}
}

func TestApplyRangeWithCacheLineFloor(t *testing.T) {
	// Access map S(i) -> L(c) with c = floor(i/4), 0 <= i < 16, composed with
	// its reverse: relates i to i' iff both share a cache line.
	s := NewSpace("S", "i")
	l := NewSpace("L", "c")
	acc := UniverseBasicMap(s, l)
	// 4c <= i <= 4c + 3
	acc = acc.AddConstraint(ineq(acc.NCols(), 0, 1, -4))
	acc = acc.AddConstraint(ineq(acc.NCols(), 3, -1, 4))
	acc = acc.AddConstraint(ineq(acc.NCols(), 0, 1, 0))
	acc = acc.AddConstraint(ineq(acc.NCols(), 15, -1, 0))

	same, err := acc.ApplyRange(acc.Reverse())
	if err != nil {
		t.Fatal(err)
	}
	count, err := MapFromBasic(same).CountByScan()
	if err != nil {
		t.Fatal(err)
	}
	// 4 lines x 4x4 pairs = 64 pairs.
	if count != 64 {
		t.Fatalf("same-line pairs = %d, want 64", count)
	}
	if !same.Contains([]int64{5, 6}) || same.Contains([]int64{3, 4}) {
		t.Fatal("same-line relation wrong")
	}
}

func TestLexMaps(t *testing.T) {
	sp := NewSpace("S", "i", "j")
	box := SetFromBasic(boxSet("S", 3, 3))
	lt := LexLT(sp)
	le := LexLE(sp)

	ltRestricted := lt.IntersectDomain(box).IntersectRange(box)
	n, err := ltRestricted.CountByScan()
	if err != nil {
		t.Fatal(err)
	}
	// 9 points -> 9*8/2 = 36 strictly ordered pairs.
	if n != 36 {
		t.Fatalf("lexLT pairs = %d, want 36", n)
	}
	leRestricted := le.IntersectDomain(box).IntersectRange(box)
	n, err = leRestricted.CountByScan()
	if err != nil {
		t.Fatal(err)
	}
	if n != 45 {
		t.Fatalf("lexLE pairs = %d, want 45", n)
	}
	if !lt.Contains([]int64{1, 2, 2, 0}) || lt.Contains([]int64{2, 0, 1, 2}) {
		t.Fatal("lex order wrong")
	}
}

func TestIdentityMap(t *testing.T) {
	sp := NewSpace("S", "i", "j")
	id := IdentityMap(sp)
	if !id.Contains([]int64{2, 5, 2, 5}) || id.Contains([]int64{2, 5, 2, 4}) {
		t.Fatal("identity map wrong")
	}
}

func TestProjectOut(t *testing.T) {
	// { (i,j) : 0<=i<5, 0<=j<=i } projected onto i is 0<=i<5;
	// projected onto j is 0<=j<5.
	bs := boxSet("S", 5, 5).AddConstraint(ineq(boxSet("S", 5, 5).NCols(), 0, 1, -1))
	onI, err := bs.ProjectOut(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := onI.CountByScan(); n != 5 {
		t.Fatalf("projection onto i has %d points, want 5", n)
	}
	onJ, err := bs.ProjectOut(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := onJ.CountByScan(); n != 5 {
		t.Fatalf("projection onto j has %d points, want 5", n)
	}
}

// TestProjectOutOverflowIsUnsupported projects y out of
// {0 <= x <= 3, 2^25·x <= y, (2^40+1)·y <= 2^62·x + 5·(2^40+1)}, whose only
// points have x = 0 (y in 0..5). The exact Fourier–Motzkin pair of the two
// bounds on y has the x coefficient 2^62 − (2^40+1)·2^25, which wraps int64
// to a positive number: an unchecked combination projected the set to
// {0 <= x <= 3}. The exact projection must report the overflow, and the
// approximate one must keep every projected point.
func TestProjectOutOverflowIsUnsupported(t *testing.T) {
	const k = int64(1)<<40 + 1
	bs := UniverseBasicSet(NewSpace("S", "x", "y"))
	w := bs.NCols()
	for _, c := range []Constraint{
		ineq(w, 0, 1, 0),          // x >= 0
		ineq(w, 3, -1, 0),         // x <= 3
		ineq(w, 0, -(1 << 25), 1), // y >= 2^25·x
		ineq(w, 5*k, 1<<62, -k),   // k·y <= 2^62·x + 5k
	} {
		bs = bs.AddConstraint(c)
	}
	if got, err := bs.ProjectOut(1, 1); !errors.Is(err, ErrUnsupported) {
		t.Fatalf("ProjectOut = %v, %v; want an error wrapping ErrUnsupported", got, err)
	}
	// Every point has 2^25·x <= y < 2^22·x + 6, so x = 0 and 0 <= y <= 5:
	// the brute force over a small window around them is exhaustive.
	approx := bs.ProjectOutApprox(1, 1)
	projected := 0
	for x := int64(-1); x <= 4; x++ {
		for y := int64(-8); y <= 64; y++ {
			if !bs.Contains([]int64{x, y}) {
				continue
			}
			projected++
			if !approx.Contains([]int64{x}) {
				t.Fatalf("ProjectOutApprox = %v misses x = %d of the point (%d, %d)", approx, x, x, y)
			}
		}
	}
	if projected != 6 {
		t.Fatalf("brute force found %d points, want 6 (x = 0, y = 0..5)", projected)
	}
}

func TestMapSubtract(t *testing.T) {
	sp := NewSpace("S", "i")
	all := UniverseBasicMap(sp, sp)
	all = all.AddConstraint(ineq(all.NCols(), 0, 1, 0))
	all = all.AddConstraint(ineq(all.NCols(), 4, -1, 0))
	all = all.AddConstraint(ineq(all.NCols(), 0, 0, 1))
	all = all.AddConstraint(ineq(all.NCols(), 4, 0, -1))
	// subtract the identity
	diff := MapFromBasic(all).Subtract(IdentityMap(sp))
	err := diff.Scan(func(p []int64) error {
		if p[0] == p[1] {
			return fmt.Errorf("identity pair %v not removed", p)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestUnionMapCompose(t *testing.T) {
	// Schedule-like composition across differently named spaces.
	s0 := NewSpace("S0", "i")
	s1 := NewSpace("S1", "j")
	sched := NewSpace("t", "t0", "t1")

	mkSched := func(stmt Space, leading int64, n int64) Map {
		bm := UniverseBasicMap(stmt, sched)
		bm = bm.AddConstraint(eq(bm.NCols(), -leading, 0, 1, 0)) // t0 = leading
		bm = bm.AddConstraint(eq(bm.NCols(), 0, 1, 0, -1))       // t1 = i
		bm = bm.AddConstraint(ineq(bm.NCols(), 0, 1, 0, 0))
		bm = bm.AddConstraint(ineq(bm.NCols(), n-1, -1, 0, 0))
		return MapFromBasic(bm)
	}
	schedule := NewUnionMap().Add(mkSched(s0, 0, 4)).Add(mkSched(s1, 1, 4))

	arr := NewSpace("M", "a")
	access := NewUnionMap()
	{
		bm := UniverseBasicMap(s0, arr)
		bm = bm.AddConstraint(eq(bm.NCols(), 0, 1, -1)) // M[i]
		access = access.Add(MapFromBasic(bm))
	}
	{
		bm := UniverseBasicMap(s1, arr)
		bm = bm.AddConstraint(eq(bm.NCols(), -3, 1, 1)) // M[3-j]
		access = access.Add(MapFromBasic(bm))
	}

	schedToElem, err := schedule.Reverse().ApplyRange(access)
	if err != nil {
		t.Fatal(err)
	}
	maps := schedToElem.Maps()
	if len(maps) != 1 {
		t.Fatalf("expected one map in the union, got %d", len(maps))
	}
	pairs := collectPoints(t, maps[0].Scan)
	// S0: (0,i) -> M(i); S1: (1,j) -> M(3-j)  -> 8 pairs.
	if len(pairs) != 8 {
		t.Fatalf("sched->elem pairs = %d, want 8: %v", len(pairs), pairs)
	}
	if !pairs[fmt.Sprint([]int64{1, 1, 2})] {
		t.Fatalf("missing S1 access pair: %v", pairs)
	}

	// equal map: sched -> sched values touching the same element.
	equal, err := schedToElem.ApplyRange(schedToElem.Reverse())
	if err != nil {
		t.Fatal(err)
	}
	eqMaps := equal.Maps()
	if len(eqMaps) != 1 {
		t.Fatalf("expected one equal map, got %d", len(eqMaps))
	}
	eqPairs := collectPoints(t, eqMaps[0].Scan)
	// Every schedule value relates to itself and to the one other access of
	// the same element: 8 self + 8 cross = 16.
	if len(eqPairs) != 16 {
		t.Fatalf("equal map pairs = %d, want 16: %v", len(eqPairs), sortedKeys(eqPairs))
	}
	if !eqPairs[fmt.Sprint([]int64{0, 1, 1, 2})] {
		t.Fatalf("equal map misses (0,1)->(1,2): %v", sortedKeys(eqPairs))
	}
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func TestDefinitelyEmptyOnFeasible(t *testing.T) {
	bs := boxSet("S", 3, 3)
	if bs.DefinitelyEmpty() {
		t.Fatal("non-empty box reported empty")
	}
}

func TestAddDivDeduplicates(t *testing.T) {
	bs := boxSet("S", 8)
	a, colA := bs.AddDiv(Vec{0, 1}, 2)
	b, colB := a.AddDiv(Vec{0, 1}, 2)
	if colA != colB {
		t.Fatalf("identical divs got different columns %d vs %d", colA, colB)
	}
	if len(b.Divs()) != 1 {
		t.Fatalf("expected a single div, got %d", len(b.Divs()))
	}
}
