package counting

import (
	"errors"
	"testing"

	"haystack/internal/budget"
	"haystack/internal/presburger"
)

// hugeCrossSet builds {x - m*y >= 0, 5x + y >= 10, x <= m+100, 0 <= y <= 4}
// with m = 2^61. Its true cardinality is m+200: one point (x,0) for each
// x in [2, m-1] and two points (x,0),(x,1) for each x in [m, m+100].
// Eliminating y by Fourier–Motzkin multiplies coefficients by m, which wraps
// int64; before the overflow-checked projection this produced contradictory
// scan bounds, a silent zero-point enumeration, and an unsound Exact(0)
// certificate from the interval tier.
func hugeCrossSet() presburger.BasicSet {
	const m = int64(1) << 61
	bs := presburger.UniverseBasicSet(presburger.NewSpace("S", "x", "y"))
	bs = bs.AddConstraint(ineq(bs.NCols(), 0, 1, -m))     // x - m*y >= 0
	bs = bs.AddConstraint(ineq(bs.NCols(), -10, 5, 1))    // 5x + y - 10 >= 0
	bs = bs.AddConstraint(ineq(bs.NCols(), m+100, -1, 0)) // x <= m + 100
	bs = bs.AddConstraint(ineq(bs.NCols(), 0, 0, 1))      // y >= 0
	bs = bs.AddConstraint(ineq(bs.NCols(), 4, 0, -1))     // y <= 4
	return bs
}

// TestHugeCoefficientCountNeverCertifiesWrong is the regression test for the
// elimination-overflow accounting bug: with coefficients near 2^61 every
// counting tier must either report the exact count, degrade to a typed
// error, or return a valid enclosing interval — never certify a wrong count.
func TestHugeCoefficientCountNeverCertifiesWrong(t *testing.T) {
	const m = int64(1) << 61
	const trueCount = m + 200
	bs := hugeCrossSet()

	n, err := countBasicSet(bs, nil)
	if err == nil {
		if n != trueCount {
			t.Errorf("countBasicSet = %d, want %d or a typed error", n, trueCount)
		}
	} else if !errors.Is(err, ErrUnsupported) && !errors.Is(err, ErrUnbounded) {
		t.Errorf("countBasicSet error is not typed: %v", err)
	}

	// The symbolic count leaves the fragment, and a nil op would let the
	// exact ladder enumerate all 2^61 points; a limited op sends it to the
	// certified interval instead.
	iv, err := CountSetInterval(presburger.SetFromBasic(bs), budget.LimitOp("huge cross set", maxEnum))
	if err == nil {
		if iv.Lo > trueCount || iv.Hi < trueCount {
			t.Errorf("interval [%d, %d] does not contain the true count %d",
				iv.Lo, iv.Hi, trueCount)
		}
		if iv.IsExact() && iv.Lo != trueCount {
			t.Errorf("interval certifies Exact(%d), true count is %d", iv.Lo, trueCount)
		}
	} else if !errors.Is(err, ErrUnsupported) && !errors.Is(err, ErrUnbounded) {
		t.Errorf("CountSetInterval error is not typed: %v", err)
	}
}

// TestHugeCoefficientScanFindsPoints asserts the scanner enumerates real
// points of the huge-coefficient set (it used to return nil after zero
// points) and that every reported point actually satisfies the constraints.
func TestHugeCoefficientScanFindsPoints(t *testing.T) {
	bs := hugeCrossSet()
	stop := errors.New("stop")
	var got [][]int64
	err := bs.Scan(func(p []int64) error {
		got = append(got, append([]int64(nil), p...))
		if len(got) >= 5 {
			return stop
		}
		return nil
	})
	if err != nil && !errors.Is(err, stop) {
		if !errors.Is(err, presburger.ErrUnbounded) {
			t.Fatalf("scan failed with untyped error: %v", err)
		}
		t.Skipf("scan degraded to typed ErrUnbounded: %v", err)
	}
	if len(got) == 0 {
		t.Fatal("scan completed with zero points on a non-empty set")
	}
	for _, p := range got {
		if !bs.Contains(p) {
			t.Errorf("scan reported %v, but Contains rejects it", p)
		}
	}
}

// TestHugeCoefficientContains exercises the arbitrary-precision fallback of
// point validation: evaluating 5x with x ≈ 2^61 overflows int64, so a wrapped
// verdict would mis-classify both points.
func TestHugeCoefficientContains(t *testing.T) {
	const m = int64(1) << 61
	bs := hugeCrossSet()
	if !bs.Contains([]int64{m + 100, 1}) {
		t.Error("Contains rejects (m+100, 1), which satisfies every constraint")
	}
	if bs.Contains([]int64{m + 100, 2}) {
		t.Error("Contains accepts (m+100, 2), which violates x - m*y >= 0")
	}
}

// TestEliminateByEqualityOverflowUnsupported substitutes x := 2^40*y (from
// the equality x - 2^40*y == 0) into the bound 2^40*x + y >= 0, whose y
// coefficient 1 + 2^80 wraps int64. The elimination must leave the supported
// fragment instead of returning the wrapped row.
func TestEliminateByEqualityOverflowUnsupported(t *testing.T) {
	const m = int64(1) << 40
	bs := presburger.UniverseBasicSet(presburger.NewSpace("S", "x", "y"))
	bs = bs.AddConstraint(eq(bs.NCols(), 0, 1, -m))  // x - m*y == 0
	bs = bs.AddConstraint(ineq(bs.NCols(), 0, m, 1)) // m*x + y >= 0
	s := newSystem(bs, 0)
	out, err := s.eliminateByEquality(0, 0)
	if !errors.Is(err, ErrUnsupported) {
		t.Fatalf("eliminateByEquality = %v, %v; want ErrUnsupported", out, err)
	}
}
