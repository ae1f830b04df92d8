package lexmin

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"haystack/internal/parwork"
	"haystack/internal/presburger"
)

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

// bruteLexmin computes the lexicographic minimum per input point by scanning
// the relation.
func bruteLexmin(t *testing.T, m presburger.Map, nIn int) map[string][]int64 {
	t.Helper()
	out := map[string][]int64{}
	err := m.Scan(func(p []int64) error {
		in := fmt.Sprint(p[:nIn])
		y := append([]int64(nil), p[nIn:]...)
		cur, ok := out[in]
		if !ok || lexLess(y, cur) {
			out[in] = y
		}
		return nil
	})
	if err != nil {
		t.Fatalf("scan: %v", err)
	}
	return out
}

func lexLess(a, b []int64) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

// checkLexmin verifies that the computed lexmin matches the brute force
// result exactly (same domain, same values).
func checkLexmin(t *testing.T, m presburger.Map, nIn int) {
	t.Helper()
	got, err := MapLexmin(m)
	if err != nil {
		t.Fatalf("MapLexmin: %v", err)
	}
	want := bruteLexmin(t, m, nIn)
	gotPairs := map[string][]int64{}
	err = got.Scan(func(p []int64) error {
		in := fmt.Sprint(p[:nIn])
		y := append([]int64(nil), p[nIn:]...)
		if prev, ok := gotPairs[in]; ok && fmt.Sprint(prev) != fmt.Sprint(y) {
			return fmt.Errorf("lexmin not single-valued at %s: %v and %v", in, prev, y)
		}
		gotPairs[in] = y
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(gotPairs) != len(want) {
		t.Fatalf("domain size mismatch: got %d inputs, want %d\nmap=%v\nlexmin=%v", len(gotPairs), len(want), m, got)
	}
	for in, y := range want {
		gy, ok := gotPairs[in]
		if !ok {
			t.Fatalf("missing input %s\nlexmin=%v", in, got)
		}
		if fmt.Sprint(gy) != fmt.Sprint(y) {
			t.Fatalf("input %s: got %v want %v\nmap=%v\nlexmin=%v", in, gy, y, m, got)
		}
	}
}

func TestLexminPaperExampleNextMap(t *testing.T) {
	// Equal map restricted to forward relations of the Figure 2 example:
	// (0,i) -> (1,j) with j = 3-i. The lexmin is the relation itself.
	in := presburger.NewSpace("T", "t0", "t1")
	bm := presburger.UniverseBasicMap(in, in)
	w := bm.NCols()
	bm = bm.AddConstraint(eq(w, 0, 1, 0, 0, 0))    // t0 = 0
	bm = bm.AddConstraint(eq(w, -1, 0, 0, 1, 0))   // t0' = 1
	bm = bm.AddConstraint(eq(w, -3, 0, 1, 0, 1))   // t1 + t1' = 3
	bm = bm.AddConstraint(ineq(w, 0, 0, 1, 0, 0))  // t1 >= 0
	bm = bm.AddConstraint(ineq(w, 3, 0, -1, 0, 0)) // t1 <= 3
	checkLexmin(t, presburger.MapFromBasic(bm), 2)
}

func TestLexminTriangular(t *testing.T) {
	// { S(i) -> T(j) : i <= j < 8, 0 <= i < 8 }: lexmin is j = i.
	s := presburger.NewSpace("S", "i")
	o := presburger.NewSpace("T", "j")
	bm := presburger.UniverseBasicMap(s, o)
	w := bm.NCols()
	bm = bm.AddConstraint(ineq(w, 0, 1, 0))
	bm = bm.AddConstraint(ineq(w, 7, -1, 0))
	bm = bm.AddConstraint(ineq(w, 0, -1, 1)) // j >= i
	bm = bm.AddConstraint(ineq(w, 7, 0, -1))
	m := presburger.MapFromBasic(bm)
	checkLexmin(t, m, 1)

	// And the lexmax is j = 7.
	mx, err := MapLexmaxExec(context.Background(), m, parwork.InlineExec())
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 8; i++ {
		if !mx.Contains([]int64{i, 7}) {
			t.Fatalf("lexmax should be 7 for i=%d: %v", i, mx)
		}
		if mx.Contains([]int64{i, 6}) {
			t.Fatalf("lexmax not single valued: %v", mx)
		}
	}
}

func TestLexminUnionOfCandidates(t *testing.T) {
	// Union of two relations: the "same j, next k" candidate and the
	// "next j, first k" candidate, mimicking the next-access structure of a
	// cache line walk. For k < 7 the first candidate wins, at k == 7 only the
	// second exists.
	s := presburger.NewSpace("S", "j", "k")
	o := presburger.NewSpace("T", "j2", "k2")
	mk := func() (presburger.BasicMap, int) {
		bm := presburger.UniverseBasicMap(s, o)
		w := bm.NCols()
		for dim := 0; dim < 2; dim++ {
			lo := presburger.NewVec(w)
			lo[1+dim] = 1
			bm = bm.AddConstraint(presburger.Constraint{C: lo})
			hi := presburger.NewVec(w)
			hi[1+dim] = -1
			hi[0] = 7
			bm = bm.AddConstraint(presburger.Constraint{C: hi})
		}
		return bm, w
	}
	// Candidate 1: j2 = j, k2 = k+1 (requires k <= 6).
	c1, w := mk()
	c1 = c1.AddConstraint(eq(w, 0, 1, 0, -1, 0))
	c1 = c1.AddConstraint(eq(w, 1, 0, 1, 0, -1))
	c1 = c1.AddConstraint(ineq(w, 6, 0, -1, 0, 0))
	// Candidate 2: j2 = j+1, k2 = 0 (requires j <= 6).
	c2, _ := mk()
	c2 = c2.AddConstraint(eq(w, 1, 1, 0, -1, 0))
	c2 = c2.AddConstraint(eq(w, 0, 0, 0, 0, 1))
	c2 = c2.AddConstraint(ineq(w, 6, -1, 0, 0, 0))

	m := presburger.MapFromBasics(c1, c2)
	checkLexmin(t, m, 2)
}

func TestLexminWithCacheLineFloors(t *testing.T) {
	// Next access of the same 4-element cache line within a 1-d walk:
	// { (i) -> (i2) : floor(i/4) == floor(i2/4), i2 > i, 0 <= i,i2 < 16 }.
	// The lexmin is i2 = i+1 on i mod 4 != 3, undefined otherwise.
	s := presburger.NewSpace("S", "i")
	o := presburger.NewSpace("T", "i2")
	bm := presburger.UniverseBasicMap(s, o)
	w := bm.NCols()
	bm = bm.AddConstraint(ineq(w, 0, 1, 0))
	bm = bm.AddConstraint(ineq(w, 15, -1, 0))
	bm = bm.AddConstraint(ineq(w, 0, 0, 1))
	bm = bm.AddConstraint(ineq(w, 15, 0, -1))
	bm = bm.AddConstraint(ineq(w, -1, -1, 1)) // i2 >= i+1
	// Same line: introduce c = floor(i/4) as an output-style relation via
	// two-sided bounds on both i and i2 against a shared div.
	var col int
	bm, col = bm.AddDiv(presburger.Vec{0, 1, 0}, 4)
	// 4c <= i <= 4c+3
	lo := presburger.NewVec(bm.NCols())
	lo[1], lo[col] = 1, -4
	bm = bm.AddConstraint(presburger.Constraint{C: lo})
	hi := presburger.NewVec(bm.NCols())
	hi[1], hi[col], hi[0] = -1, 4, 3
	bm = bm.AddConstraint(presburger.Constraint{C: hi})
	// 4c <= i2 <= 4c+3
	lo2 := presburger.NewVec(bm.NCols())
	lo2[2], lo2[col] = 1, -4
	bm = bm.AddConstraint(presburger.Constraint{C: lo2})
	hi2 := presburger.NewVec(bm.NCols())
	hi2[2], hi2[col], hi2[0] = -1, 4, 3
	bm = bm.AddConstraint(presburger.Constraint{C: hi2})

	checkLexmin(t, presburger.MapFromBasic(bm), 1)
}

func TestLexminRandomRelations(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		s := presburger.NewSpace("S", "x")
		o := presburger.NewSpace("T", "y", "z")
		bm := presburger.UniverseBasicMap(s, o)
		w := bm.NCols()
		bm = bm.AddConstraint(ineq(w, 0, 1, 0, 0))
		bm = bm.AddConstraint(ineq(w, 5, -1, 0, 0))
		bm = bm.AddConstraint(ineq(w, 0, 0, 1, 0))
		bm = bm.AddConstraint(ineq(w, 5, 0, -1, 0))
		bm = bm.AddConstraint(ineq(w, 0, 0, 0, 1))
		bm = bm.AddConstraint(ineq(w, 5, 0, 0, -1))
		for k := 0; k < 1+rng.Intn(2); k++ {
			bm = bm.AddConstraint(ineq(w, int64(rng.Intn(9)-2),
				int64(rng.Intn(3)-1), int64(rng.Intn(3)-1), int64(rng.Intn(3)-1)))
		}
		m := presburger.MapFromBasic(bm)
		got, err := MapLexmin(m)
		if err != nil {
			t.Logf("trial %d: fallback (%v)", trial, err)
			continue
		}
		want := bruteLexmin(t, m, 1)
		for in, y := range want {
			var x int64
			fmt.Sscanf(in, "[%d]", &x)
			if !got.Contains(append([]int64{x}, y...)) {
				t.Fatalf("trial %d: lexmin misses %s -> %v\nmap=%v\nlexmin=%v", trial, in, y, m, got)
			}
		}
		// And no smaller output is claimed.
		err = got.Scan(func(p []int64) error {
			in := fmt.Sprint(p[:1])
			if w, ok := want[in]; !ok || fmt.Sprint(w) != fmt.Sprint(p[1:]) {
				return fmt.Errorf("claimed lexmin %v but brute force says %v", p, want[in])
			}
			return nil
		})
		if err != nil {
			t.Fatalf("trial %d: %v\nmap=%v", trial, err, m)
		}
	}
}

func TestLexminUnionRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 30; trial++ {
		s := presburger.NewSpace("S", "x")
		o := presburger.NewSpace("T", "y")
		mk := func() presburger.BasicMap {
			bm := presburger.UniverseBasicMap(s, o)
			w := bm.NCols()
			bm = bm.AddConstraint(ineq(w, 0, 1, 0))
			bm = bm.AddConstraint(ineq(w, 7, -1, 0))
			bm = bm.AddConstraint(ineq(w, int64(-rng.Intn(4)), 0, 1))
			bm = bm.AddConstraint(ineq(w, int64(4+rng.Intn(4)), 0, -1))
			bm = bm.AddConstraint(ineq(w, int64(rng.Intn(7)-3), int64(rng.Intn(3)-1), 1))
			return bm
		}
		m := presburger.MapFromBasics(mk(), mk())
		got, err := MapLexmin(m)
		if err != nil {
			t.Logf("trial %d: fallback (%v)", trial, err)
			continue
		}
		want := bruteLexmin(t, m, 1)
		gotPairs := map[string]string{}
		if err := got.Scan(func(p []int64) error {
			gotPairs[fmt.Sprint(p[:1])] = fmt.Sprint(p[1:])
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if len(gotPairs) != len(want) {
			t.Fatalf("trial %d: domain mismatch got %d want %d\nmap=%v", trial, len(gotPairs), len(want), m)
		}
		for in, y := range want {
			if gotPairs[in] != fmt.Sprint(y) {
				t.Fatalf("trial %d: at %s got %s want %v\nmap=%v", trial, in, gotPairs[in], y, m)
			}
		}
	}
}

// differentialCheck computes the lexmin of m along both the domain
// partitioned path and the flat all-pairs fold and requires both to agree
// with each other and with brute force, pair for pair.
func differentialCheck(t *testing.T, trial int, m presburger.Map, nIn int) {
	t.Helper()
	part, errP := MapLexmin(m)
	flat, errF := mapLexminFlat(m)
	if (errP == nil) != (errF == nil) {
		t.Fatalf("trial %d: partitioned err=%v, flat err=%v\nmap=%v", trial, errP, errF, m)
	}
	if errP != nil {
		t.Logf("trial %d: fallback (%v)", trial, errP)
		return
	}
	want := bruteLexmin(t, m, nIn)
	for name, got := range map[string]presburger.Map{"partitioned": part, "flat": flat} {
		pairs := map[string]string{}
		err := got.Scan(func(p []int64) error {
			in := fmt.Sprint(p[:nIn])
			y := fmt.Sprint(p[nIn:])
			if prev, ok := pairs[in]; ok && prev != y {
				return fmt.Errorf("not single-valued at %s: %s and %s", in, prev, y)
			}
			pairs[in] = y
			return nil
		})
		if err != nil {
			t.Fatalf("trial %d (%s): %v\nmap=%v", trial, name, err, m)
		}
		if len(pairs) != len(want) {
			t.Fatalf("trial %d (%s): domain size %d, brute force %d\nmap=%v\nresult=%v", trial, name, len(pairs), len(want), m, got)
		}
		for in, y := range want {
			if pairs[in] != fmt.Sprint(y) {
				t.Fatalf("trial %d (%s): at %s got %s want %v\nmap=%v", trial, name, in, pairs[in], y, m)
			}
		}
	}
}

// TestLexminPartitionedDifferentialTriangular drives the partitioned and
// flat combination paths over randomized unions of triangular relations —
// the family (pinned chamber constants, i <= j wedges) whose all-pairs fold
// motivated the domain partitioning. Candidates deliberately mix disjoint
// chambers (different pinned constants) with overlapping wedges inside a
// chamber so both the partition and the overlap machinery are exercised.
func TestLexminPartitionedDifferentialTriangular(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	s := presburger.NewSpace("S", "c", "i")
	o := presburger.NewSpace("T", "j")
	for trial := 0; trial < 60; trial++ {
		var bms []presburger.BasicMap
		nCand := 2 + rng.Intn(3)
		for c := 0; c < nCand; c++ {
			bm := presburger.UniverseBasicMap(s, o)
			w := bm.NCols()
			// Pin the chamber dimension for roughly two thirds of the
			// candidates; unpinned candidates overlap every chamber.
			if rng.Intn(3) > 0 {
				bm = bm.AddConstraint(eq(w, int64(-rng.Intn(2)), 1, 0, 0))
			} else {
				bm = bm.AddConstraint(ineq(w, 0, 1, 0, 0))
				bm = bm.AddConstraint(ineq(w, 1, -1, 0, 0))
			}
			bm = bm.AddConstraint(ineq(w, 0, 0, 1, 0))
			bm = bm.AddConstraint(ineq(w, 6, 0, -1, 0))
			// Triangular wedge: j >= i + shift, j bounded above.
			shift := int64(rng.Intn(3) - 1)
			bm = bm.AddConstraint(ineq(w, -shift, 0, -1, 1))
			bm = bm.AddConstraint(ineq(w, int64(5+rng.Intn(4)), 0, 0, -1))
			if rng.Intn(2) == 0 {
				bm = bm.AddConstraint(ineq(w, int64(rng.Intn(5)-1), int64(rng.Intn(3)-1), int64(rng.Intn(3)-1), 1))
			}
			bms = append(bms, bm)
		}
		differentialCheck(t, trial, presburger.MapFromBasics(bms...), 2)
	}
}

// TestLexminPartitionedDifferentialDivs drives both combination paths over
// randomized div-bearing relations (cache-line style floors shared between
// input and output), the family the previous-access lexmax of the cache
// model produces.
func TestLexminPartitionedDifferentialDivs(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	s := presburger.NewSpace("S", "c", "i")
	o := presburger.NewSpace("T", "i2")
	for trial := 0; trial < 40; trial++ {
		var bms []presburger.BasicMap
		nCand := 1 + rng.Intn(3)
		for c := 0; c < nCand; c++ {
			bm := presburger.UniverseBasicMap(s, o)
			w := bm.NCols()
			bm = bm.AddConstraint(eq(w, int64(-rng.Intn(2)), 1, 0, 0))
			bm = bm.AddConstraint(ineq(w, 0, 0, 1, 0))
			bm = bm.AddConstraint(ineq(w, 11, 0, -1, 0))
			bm = bm.AddConstraint(ineq(w, 0, 0, 0, 1))
			bm = bm.AddConstraint(ineq(w, 11, 0, 0, -1))
			// Same cache line of den 2, 3, or 4: den*e <= i,i2 <= den*e+den-1.
			den := int64(2 + rng.Intn(3))
			var col int
			bm, col = bm.AddDiv(presburger.Vec{0, 0, 1, 0}, den)
			lo := presburger.NewVec(bm.NCols())
			lo[2], lo[col] = 1, -den
			bm = bm.AddConstraint(presburger.Constraint{C: lo})
			hi := presburger.NewVec(bm.NCols())
			hi[2], hi[col], hi[0] = -1, den, den-1
			bm = bm.AddConstraint(presburger.Constraint{C: hi})
			lo2 := presburger.NewVec(bm.NCols())
			lo2[3], lo2[col] = 1, -den
			bm = bm.AddConstraint(presburger.Constraint{C: lo2})
			hi2 := presburger.NewVec(bm.NCols())
			hi2[3], hi2[col], hi2[0] = -1, den, den-1
			bm = bm.AddConstraint(presburger.Constraint{C: hi2})
			// Forward or backward within the line.
			if rng.Intn(2) == 0 {
				bm = bm.AddConstraint(ineq(bm.NCols(), -1, 0, -1, 1))
			} else {
				bm = bm.AddConstraint(ineq(bm.NCols(), -1, 0, 1, -1))
			}
			bms = append(bms, bm)
		}
		differentialCheck(t, trial, presburger.MapFromBasics(bms...), 2)
	}
}

func TestLexminWorkerCountDoesNotChangeResult(t *testing.T) {
	// The parallel per-basic-map fan-out must be invisible: the combined
	// relation (including its piece structure) has to match the sequential
	// computation exactly for any worker count.
	s := presburger.NewSpace("S", "j", "k")
	o := presburger.NewSpace("T", "j2", "k2")
	mk := func() (presburger.BasicMap, int) {
		bm := presburger.UniverseBasicMap(s, o)
		w := bm.NCols()
		for dim := 0; dim < 2; dim++ {
			lo := presburger.NewVec(w)
			lo[1+dim] = 1
			bm = bm.AddConstraint(presburger.Constraint{C: lo})
			hi := presburger.NewVec(w)
			hi[1+dim] = -1
			hi[0] = 7
			bm = bm.AddConstraint(presburger.Constraint{C: hi})
		}
		return bm, w
	}
	c1, w := mk()
	c1 = c1.AddConstraint(eq(w, 0, 1, 0, -1, 0))
	c1 = c1.AddConstraint(eq(w, 1, 0, 1, 0, -1))
	c1 = c1.AddConstraint(ineq(w, 6, 0, -1, 0, 0))
	c2, _ := mk()
	c2 = c2.AddConstraint(eq(w, 1, 1, 0, -1, 0))
	c2 = c2.AddConstraint(eq(w, 0, 0, 0, 0, 1))
	c2 = c2.AddConstraint(ineq(w, 6, -1, 0, 0, 0))
	c3, _ := mk()
	c3 = c3.AddConstraint(eq(w, 2, 1, 0, -1, 0))
	c3 = c3.AddConstraint(eq(w, 0, 0, 1, 0, -1))
	m := presburger.MapFromBasics(c1, c2, c3)

	seq, err := MapLexmin(m)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8} {
		ex, release := parwork.NewExec(workers)
		par, err := mapLexmin(context.Background(), m, ex, true)
		release()
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got, want := par.String(), seq.String(); got != want {
			t.Fatalf("workers=%d: result differs\nparallel:   %s\nsequential: %s", workers, got, want)
		}
	}
	ex, release := parwork.NewExec(4)
	defer release()
	mx, err := MapLexmaxExec(context.Background(), m, ex)
	if err != nil {
		t.Fatal(err)
	}
	seqMax, err := MapLexmaxExec(context.Background(), m, parwork.InlineExec())
	if err != nil {
		t.Fatal(err)
	}
	if mx.String() != seqMax.String() {
		t.Fatalf("lexmax differs between worker counts:\nparallel:   %s\nsequential: %s", mx.String(), seqMax.String())
	}
}
