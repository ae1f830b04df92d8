package lexmin

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

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

// mapLexminFlat is MapLexmin without the domain partitioning: every
// candidate folds into one accumulated relation. Kept as the reference
// implementation for differential tests.
func mapLexminFlat(m presburger.Map) (presburger.Map, error) {
	ctx := context.Background()
	candidates, err := lexminCandidates(ctx, m, parwork.InlineExec())
	if err != nil {
		return presburger.Map{}, err
	}
	result, err := foldMin(ctx, candidates)
	if err != nil || len(result.Basics()) == 0 {
		return presburger.EmptyMap(m.InSpace(), m.OutSpace()), err
	}
	return result, nil
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

// TestLexminDominanceOverflowIsUnsupported pins y to the larger of two
// non-unit lower bounds, (2^40+1)·y >= 2^40·x + 5 and
// (2^40+3)·y >= 2^61·x + 7, for 0 <= x <= 3 and y <= 2^23·x + 20. The
// dominance row between them needs (2^40+1)·2^61, beyond int64; an
// unchecked row wrapped and the minimum came back without an error.
func TestLexminDominanceOverflowIsUnsupported(t *testing.T) {
	const k = int64(1) << 40
	sp := presburger.NewSpace("S", "x")
	out := presburger.NewSpace("T", "y")
	bm := presburger.UniverseBasicMap(sp, out)
	w := bm.NCols()
	for _, c := range []presburger.Constraint{
		ineq(w, 0, 1, 0),             // x >= 0
		ineq(w, 3, -1, 0),            // x <= 3
		ineq(w, -5, -k, k+1),         // (2^40+1)·y >= 2^40·x + 5
		ineq(w, -7, -(1 << 61), k+3), // (2^40+3)·y >= 2^61·x + 7
		ineq(w, 20, 1<<23, -1),       // y <= 2^23·x + 20
	} {
		bm = bm.AddConstraint(c)
	}
	got, err := MapLexmin(presburger.MapFromBasic(bm))
	if !errors.Is(err, ErrUnsupported) {
		t.Fatalf("MapLexmin = %v, %v; want an error wrapping ErrUnsupported", got, err)
	}
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
		par, err := mapLexmin(context.Background(), m, ex)
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

	t.Run("chambers", func(t *testing.T) {
		// The chambers fold on the executor, one item each; the joined
		// result must not depend on which worker folded which chamber.
		m := chamberMap()
		cands, err := lexminCandidates(context.Background(), negateOutputs(m), parwork.InlineExec())
		if err != nil {
			t.Fatal(err)
		}
		chambers := partitionByDomain(cands)
		if len(chambers) < 3 {
			t.Fatalf("fixture folds in %d chambers, want at least 3", len(chambers))
		}
		for i, ch := range chambers {
			if len(ch) < 2 {
				t.Fatalf("chamber %d holds %d candidates, want at least 2", i, len(ch))
			}
		}
		checkLexmin(t, m, 2)
		want, err := MapLexmaxExec(context.Background(), m, parwork.InlineExec())
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2, 4, 8} {
			pool := parwork.NewPool(workers)
			got, err := MapLexmaxExec(context.Background(), m, pool)
			pool.Close()
			if err != nil {
				t.Fatalf("workers=%d: %v", workers, err)
			}
			if got.String() != want.String() {
				t.Fatalf("workers=%d: lexmax differs\npool:   %s\ninline: %s", workers, got, want)
			}
		}
	})

	t.Run("cancelled", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		for _, workers := range []int{1, 2, 8} {
			ex, release := parwork.NewExec(workers)
			done := make(chan error, 1)
			go func() {
				_, err := MapLexmaxExec(ctx, chamberMap(), ex)
				done <- err
			}()
			select {
			case err := <-done:
				release()
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
				}
			case <-time.After(10 * time.Second):
				t.Fatalf("workers=%d: MapLexmaxExec on a cancelled context did not return", workers)
			}
		}
	})
}

// chamberMap is a relation S(c, j) -> T(c2, j2) whose candidates fall into
// three chambers (c pinned to 0, 1 and 2). Each chamber holds two
// single-valued candidates, j2 = 7 + c - j on 0 <= j <= 7 and j2 = j + c on
// 2 <= j <= 9, which overlap on 2 <= j <= 7 and cross at j = 3 or 4, so
// every chamber's lexmin and lexmax fold does real combineMin work.
func chamberMap() presburger.Map {
	s := presburger.NewSpace("S", "c", "j")
	o := presburger.NewSpace("T", "c2", "j2")
	var bms []presburger.BasicMap
	for c := int64(0); c < 3; c++ {
		for _, p := range []struct{ lo, hi, a, b int64 }{{0, 7, -1, 7 + c}, {2, 9, 1, c}} {
			bm := presburger.UniverseBasicMap(s, o)
			w := bm.NCols()
			bm = bm.AddConstraint(eq(w, -c, 1, 0, 0, 0))
			bm = bm.AddConstraint(eq(w, 0, 1, 0, -1, 0))
			bm = bm.AddConstraint(ineq(w, -p.lo, 0, 1, 0, 0))
			bm = bm.AddConstraint(ineq(w, p.hi, 0, -1, 0, 0))
			bm = bm.AddConstraint(eq(w, p.b, 0, p.a, 0, -1))
			bms = append(bms, bm)
		}
	}
	return presburger.MapFromBasics(bms...)
}

// TestPartitionByDomainSeparatesDomainsOnly checks that chambers follow the
// domain signatures: two candidates on the same input box whose outputs are
// disjoint, by bounds and by parity, share a chamber (their domains
// overlap, so their minima must be folded), while a candidate whose input
// box misses theirs gets a chamber of its own.
func TestPartitionByDomainSeparatesDomainsOnly(t *testing.T) {
	s := presburger.NewSpace("S", "i")
	o := presburger.NewSpace("T", "j")
	// cand maps ilo <= i <= ilo+7 to jlo <= j <= jlo+3 with j ≡ r (mod 2),
	// the parity written j = 2·floor(j/2) + r.
	cand := func(ilo, jlo, r int64) presburger.Map {
		bm := presburger.UniverseBasicMap(s, o)
		w := bm.NCols()
		bm = bm.AddConstraint(ineq(w, -ilo, 1, 0))
		bm = bm.AddConstraint(ineq(w, ilo+7, -1, 0))
		bm = bm.AddConstraint(ineq(w, -jlo, 0, 1))
		bm = bm.AddConstraint(ineq(w, jlo+3, 0, -1))
		bm, div := bm.AddDiv(presburger.Vec{0, 0, 1}, 2)
		c := presburger.Constraint{C: presburger.NewVec(bm.NCols()), Eq: true}
		c.C[0], c.C[2], c.C[div] = -r, 1, -2
		return presburger.MapFromBasic(bm.AddConstraint(c))
	}
	low, high, apart := cand(0, 0, 0), cand(0, 10, 1), cand(20, 0, 0)
	chambers := partitionByDomain([]presburger.Map{low, high, apart})
	if len(chambers) != 2 || len(chambers[0]) != 2 || len(chambers[1]) != 1 {
		t.Fatalf("chambers %v, want {low, high} and {apart}", chambers)
	}
}
