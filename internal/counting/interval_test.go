package counting

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"haystack/internal/budget"
	"haystack/internal/presburger"
)

func TestIntervalBasics(t *testing.T) {
	iv := Exact(7)
	if !iv.IsExact() || iv.Width() != 0 || !iv.Contains(7) || iv.Contains(8) {
		t.Fatalf("Exact(7) misbehaves: %+v", iv)
	}
	sum := Interval{Lo: 1, Hi: 5}.Add(Interval{Lo: 2, Hi: 3})
	if sum != (Interval{Lo: 3, Hi: 8}) {
		t.Fatalf("Add = %+v", sum)
	}
	clamped := Interval{Lo: 4, Hi: 100}.ClampHi(10)
	if clamped != (Interval{Lo: 4, Hi: 10}) {
		t.Fatalf("ClampHi = %+v", clamped)
	}
	if got := (Interval{Lo: 12, Hi: 100}).ClampHi(10); got != (Interval{Lo: 10, Hi: 10}) {
		t.Fatalf("ClampHi below Lo = %+v", got)
	}
	if s := (Interval{Lo: 2, Hi: 9}).String(); s != "[2, 9]" {
		t.Fatalf("String = %q", s)
	}
}

func TestBoxCountUpperIsUpperBound(t *testing.T) {
	// Triangle 0 <= j <= i < 20: 210 points, box bound 400.
	tri := boxSet("S", 20, 20).AddConstraint(ineq(boxSet("S", 20, 20).NCols(), 0, 1, -1))
	hi, ok := BoxCountUpper(tri)
	if !ok {
		t.Fatal("bounded triangle must have a box bound")
	}
	exact, _ := tri.CountByScan()
	if hi < exact {
		t.Fatalf("box bound %d below exact count %d", hi, exact)
	}
	if hi != 400 {
		t.Fatalf("triangle box bound = %d, want 400", hi)
	}
}

func TestBoxBoundsViaProjection(t *testing.T) {
	// { (i,j) : 0 <= i < 10, i <= j <= i+3 }: j has no single-dimension
	// constant bounds, but the approximate projection onto j yields them.
	sp := presburger.NewSpace("S", "i", "j")
	full := presburger.UniverseBasicSet(sp)
	full = full.AddConstraint(ineq(full.NCols(), 0, 1, 0))  // i >= 0
	full = full.AddConstraint(ineq(full.NCols(), 9, -1, 0)) // i <= 9
	full = full.AddConstraint(ineq(full.NCols(), 0, -1, 1)) // j >= i
	full = full.AddConstraint(ineq(full.NCols(), 3, 1, -1)) // j <= i+3
	lo, hi, ok := BoxBounds(full)
	if !ok {
		t.Fatal("projection must recover bounds for j")
	}
	if lo[1] > 0 || hi[1] < 12 {
		t.Fatalf("j bounds [%d, %d] do not enclose [0, 12]", lo[1], hi[1])
	}
	exact, _ := full.CountByScan()
	upper, ok := BoxCountUpper(full)
	if !ok || upper < exact {
		t.Fatalf("box bound %d (ok=%v) below exact %d", upper, ok, exact)
	}
}

// TestCountIntervalSandwich is the package-level bounds sandwich: on random
// boxed sets with coupling constraints, large enough that the enumeration
// prefix stops at its 4096-point cap, a forced tiny budget must yield
// Lo <= exact <= Hi, and an ample budget must yield width 0.
func TestCountIntervalSandwich(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	meterTiny := budget.New(context.Background(), 1)
	// Per dimension count, the side-length range of the random boxes: every
	// set, coupled or not, has more than maxEnum points.
	sides := [][2]int{1: {4097, 6000}, 2: {91, 120}, 3: {30, 40}}
	for trial := 0; trial < 60; trial++ {
		ndim := rng.Intn(3) + 1
		bounds := make([]int64, ndim)
		for i := range bounds {
			lo, hi := sides[ndim][0], sides[ndim][1]
			bounds[i] = int64(lo + rng.Intn(hi-lo+1))
		}
		bs := boxSet("S", bounds...)
		// Couple dimensions so the box relaxation is not trivially exact.
		if ndim >= 2 && rng.Intn(2) == 0 {
			bs = bs.AddConstraint(ineq(bs.NCols(), 0, 1, -1))
		}
		exact, err := bs.CountByScan()
		if err != nil {
			t.Fatal(err)
		}
		s := presburger.SetFromBasic(bs)

		// Tiny budget: must still sandwich the truth, and a degraded
		// lower bound is the full enumeration prefix.
		iv, err := CountSetInterval(s, meterTiny.Op("test"))
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !iv.Contains(exact) {
			t.Fatalf("trial %d: interval %v does not contain exact %d", trial, iv, exact)
		}
		if !iv.IsExact() && iv.Lo != maxEnum {
			t.Fatalf("trial %d: degraded interval %v must start at the %d-point prefix", trial, iv, maxEnum)
		}

		// Ample budget: exact, width 0.
		iv, err = CountSetInterval(s, nil)
		if err != nil {
			t.Fatalf("trial %d ample: %v", trial, err)
		}
		if !iv.IsExact() || iv.Lo != exact {
			t.Fatalf("trial %d ample: got %v, want exact %d", trial, iv, exact)
		}
	}
}

func TestCountSetIntervalUnion(t *testing.T) {
	// Two overlapping boxes: [0,60)x[0,60) and [30,90)x[30,90), union =
	// 6300 points, more than the enumeration prefix covers.
	a := boxSet("S", 60, 60)
	b := boxSet("S", 90, 90)
	b = b.AddConstraint(ineq(b.NCols(), -30, 1, 0))
	b = b.AddConstraint(ineq(b.NCols(), -30, 0, 1))
	s := presburger.SetFromBasic(a).Union(presburger.SetFromBasic(b))
	exact, err := s.CountByScan()
	if err != nil {
		t.Fatal(err)
	}

	m := budget.New(context.Background(), 1)
	iv, err := CountSetInterval(s, m.Op("test"))
	if err != nil {
		t.Fatal(err)
	}
	if !iv.Contains(exact) {
		t.Fatalf("interval %v does not contain exact %d", iv, exact)
	}
	if iv.Lo < maxEnum {
		t.Fatalf("enumeration prefix must certify at least the cap: %v", iv)
	}

	iv, err = CountSetInterval(s, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !iv.IsExact() || iv.Lo != exact {
		t.Fatalf("ample budget: got %v, want exact %d", iv, exact)
	}
}

func TestCountIntervalCompleteScanIsExact(t *testing.T) {
	// Budget too small for the symbolic count, but the set is tiny: the
	// enumeration completes and the result must be exact despite degrading.
	bs := boxSet("S", 3, 3).AddConstraint(ineq(boxSet("S", 3, 3).NCols(), 0, 1, -1))
	exact, _ := bs.CountByScan()
	m := budget.New(context.Background(), 1)
	iv, err := CountSetInterval(presburger.SetFromBasic(bs), m.Op("test"))
	if err != nil {
		t.Fatal(err)
	}
	if !iv.IsExact() || iv.Lo != exact {
		t.Fatalf("got %v, want exact %d", iv, exact)
	}
}

func TestCountIntervalCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	m := budget.New(ctx, 1)
	bs := boxSet("S", 50, 50, 50)
	op := m.Op("test")
	// Drain the op so charges hit the context check.
	for i := 0; i < 2; i++ {
		_ = op.Charge(256)
	}
	_, err := CountSetInterval(presburger.SetFromBasic(bs), op)
	if err == nil || !budget.IsCancellation(err) {
		t.Fatalf("want cancellation error, got %v", err)
	}
}

func TestErrBudgetMatchesTypedExceeded(t *testing.T) {
	_, err := cardBasicSet(boxSet("S", 100, 100, 100).
		AddConstraint(ineq(boxSet("S", 100, 100, 100).NCols(), 0, 1, -1, 0)),
		0, presburger.NewSpace("S"), budget.LimitOp("parametric count", 1))
	if err == nil {
		t.Fatal("budget 1 must trip")
	}
	if !errors.Is(err, ErrBudget) || !errors.Is(err, budget.ErrExceeded) {
		t.Fatalf("budget error %v must match ErrBudget and budget.ErrExceeded", err)
	}
	var ex *budget.Exceeded
	if !errors.As(err, &ex) || ex.Stage == "" {
		t.Fatalf("budget error must carry provenance: %v", err)
	}
}
