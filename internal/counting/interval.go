package counting

import (
	"errors"
	"fmt"
	"math"

	"haystack/internal/budget"
	"haystack/internal/presburger"
)

// Interval is a certified two-sided bound on an integer point count:
// the exact count is guaranteed to satisfy Lo <= count <= Hi. Exact counts
// are represented as width-0 intervals so every pipeline result carries
// coherent bounds.
type Interval struct {
	Lo, Hi int64
}

// Exact returns the width-0 interval [n, n].
func Exact(n int64) Interval { return Interval{Lo: n, Hi: n} }

// IsExact reports whether the interval pins a single value.
func (iv Interval) IsExact() bool { return iv.Lo == iv.Hi }

// Width returns Hi - Lo (0 for exact results), saturating on overflow.
func (iv Interval) Width() int64 { return satSub(iv.Hi, iv.Lo) }

// Contains reports whether n lies within the interval.
func (iv Interval) Contains(n int64) bool { return iv.Lo <= n && n <= iv.Hi }

// Add returns the interval sum (sound for sums of independent counts),
// saturating on overflow.
func (iv Interval) Add(o Interval) Interval {
	return Interval{Lo: satAdd(iv.Lo, o.Lo), Hi: satAdd(iv.Hi, o.Hi)}
}

// AddConst shifts both bounds by n.
func (iv Interval) AddConst(n int64) Interval { return iv.Add(Exact(n)) }

// ClampHi lowers Hi to hi if the current Hi exceeds it (used to intersect
// with an independently known upper bound; sound because the true count
// satisfies both).
func (iv Interval) ClampHi(hi int64) Interval {
	if iv.Hi > hi {
		iv.Hi = hi
	}
	if iv.Lo > iv.Hi {
		iv.Lo = iv.Hi
	}
	return iv
}

func (iv Interval) String() string {
	if iv.IsExact() {
		return fmt.Sprintf("%d", iv.Lo)
	}
	return fmt.Sprintf("[%d, %d]", iv.Lo, iv.Hi)
}

func satAdd(a, b int64) int64 {
	s := a + b
	if a > 0 && b > 0 && s < a {
		return math.MaxInt64
	}
	if a < 0 && b < 0 && s > a {
		return math.MinInt64
	}
	return s
}

func satSub(a, b int64) int64 { return satAdd(a, -b) }

func satMul(a, b int64) int64 {
	if a == 0 || b == 0 {
		return 0
	}
	p := a * b
	if p/b != a {
		if (a > 0) == (b > 0) {
			return math.MaxInt64
		}
		return math.MinInt64
	}
	return p
}

// DefaultMaxEnum is the default cap on the number of points the certified
// lower bound may enumerate when a symbolic count degrades.
const DefaultMaxEnum = 4096

// errEnumCap aborts a bounded scan once the enumeration cap is reached.
var errEnumCap = errors.New("counting: enumeration cap reached")

// BoxBounds returns per-dimension constant bounds of a box enclosing bs.
// It first harvests the constant bounds implied by single-dimension
// constraints (ConstBounds); dimensions still unbounded on a side are
// retried on the approximate projection of bs onto that dimension alone —
// the projection is a superset, so its constant bounds are valid for bs.
// ok is false if any dimension remains unbounded on either side.
func BoxBounds(bs presburger.BasicSet) (lo, hi []int64, ok bool) {
	n := bs.NDim()
	clo, chi, hasLo, hasHi := bs.ConstBounds()
	for d := 0; d < n; d++ {
		if hasLo[d] && hasHi[d] {
			continue
		}
		p := bs
		if d+1 < n {
			p = p.ProjectOutApprox(d+1, n-d-1)
		}
		if d > 0 {
			p = p.ProjectOutApprox(0, d)
		}
		plo, phi, pHasLo, pHasHi := p.ConstBounds()
		if !hasLo[d] && pHasLo[0] {
			clo[d], hasLo[d] = plo[0], true
		}
		if !hasHi[d] && pHasHi[0] {
			chi[d], hasHi[d] = phi[0], true
		}
		if !hasLo[d] || !hasHi[d] {
			return nil, nil, false
		}
	}
	return clo, chi, true
}

// BoxCountUpper returns a certified upper bound on the number of integer
// points of bs: the volume of its bounding box. Dropping every constraint
// that couples dimensions is a relaxation, so bs is contained in the box
// and the box volume over-approximates the count. ok is false when the box
// is unbounded (no finite certified upper bound available).
func BoxCountUpper(bs presburger.BasicSet) (int64, bool) {
	if bs.DefinitelyEmpty() {
		return 0, true
	}
	lo, hi, ok := BoxBounds(bs)
	if !ok {
		return 0, false
	}
	total := int64(1)
	for d := range lo {
		w := satSub(hi[d], lo[d]) // box side length - 1
		if w < 0 {
			return 0, true // empty box: lo > hi on some dimension
		}
		total = satMul(total, satAdd(w, 1))
	}
	return total, true
}

// enumCheckStride bounds how many enumerated points pass between two
// cancellation checks during a bounded scan.
const enumCheckStride = 1024

// scanLower enumerates up to maxEnum distinct points of scan (a closure
// over BasicSet.Scan or Set.Scan). Every enumerated point is a member of
// the set, so the returned count is a certified lower bound; complete is
// true when enumeration finished without hitting the cap, in which case the
// count is exact. A scan failure (e.g. an unbounded direction) ends the
// enumeration early: the prefix already seen remains a valid lower bound.
func scanLower(scan func(fn func([]int64) error) error, op *budget.Op, maxEnum int64) (count int64, complete bool, err error) {
	if maxEnum <= 0 {
		maxEnum = DefaultMaxEnum
	}
	scanErr := scan(func([]int64) error {
		count++
		if count%enumCheckStride == 0 {
			if cerr := op.Err(); cerr != nil {
				return cerr
			}
		}
		if count >= maxEnum {
			return errEnumCap
		}
		return nil
	})
	switch {
	case scanErr == nil:
		return count, true, nil
	case errors.Is(scanErr, errEnumCap):
		return count, false, nil
	case budget.IsCancellation(scanErr):
		return count, false, scanErr
	default:
		// Enumeration itself failed (unbounded set, unsupported fragment):
		// the points seen so far are still certified members.
		return count, false, nil
	}
}

// CountBasicSetInterval counts the integer points of bs, degrading to a
// certified interval when the symbolic count exceeds the budget operation
// or leaves the supported fragment. The lower bound is an enumeration
// prefix (every enumerated point is a distinct member); the upper bound is
// the bounding-box volume. Cancellation errors abort instead of degrading.
func CountBasicSetInterval(bs presburger.BasicSet, op *budget.Op, maxEnum int64) (Interval, error) {
	n, serr := CountBasicSet(bs, op)
	if serr == nil {
		return Exact(n), nil
	}
	if budget.IsCancellation(serr) {
		return Interval{}, serr
	}
	lo, complete, err := scanLower(bs.Scan, op, maxEnum)
	if err != nil {
		return Interval{}, err
	}
	if complete {
		return Exact(lo), nil
	}
	hi, ok := BoxCountUpper(bs)
	if !ok {
		return Interval{}, fmt.Errorf("no certified upper bound (unbounded box): %w", serr)
	}
	return Interval{Lo: lo, Hi: hi}, nil
}

// CountSetInterval counts the distinct integer points of s, degrading to a
// certified interval on budget or fragment failure. The degraded upper
// bound sums the per-basic-set box volumes of the coalesced union —
// overlap between basic sets only over-counts upward, so the sum stays a
// sound upper bound. The lower bound enumerates distinct points of the
// union (deduplicated) up to the cap; if enumeration completes the result
// is exact even though the symbolic count failed.
func CountSetInterval(s presburger.Set, op *budget.Op, maxEnum int64) (Interval, error) {
	n, serr := CountSet(s, op)
	if serr == nil {
		return Exact(n), nil
	}
	if budget.IsCancellation(serr) {
		return Interval{}, serr
	}
	lo, complete, err := scanLower(s.Scan, op, maxEnum)
	if err != nil {
		return Interval{}, err
	}
	if complete {
		return Exact(lo), nil
	}
	coalesced := s.Coalesce()
	var hi int64
	for _, bs := range coalesced.Basics() {
		bhi, ok := BoxCountUpper(bs)
		if !ok {
			return Interval{}, fmt.Errorf("no certified upper bound (unbounded box): %w", serr)
		}
		hi = satAdd(hi, bhi)
	}
	return Interval{Lo: lo, Hi: hi}, nil
}
