package counting

import (
	"errors"
	"fmt"

	"haystack/internal/budget"
	"haystack/internal/ints"
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
func (iv Interval) Width() int64 { return ints.SatSub(iv.Hi, iv.Lo) }

// Contains reports whether n lies within the interval.
func (iv Interval) Contains(n int64) bool { return iv.Lo <= n && n <= iv.Hi }

// Add returns the interval sum (sound for sums of independent counts),
// saturating on overflow.
func (iv Interval) Add(o Interval) Interval {
	return Interval{Lo: ints.SatAdd(iv.Lo, o.Lo), Hi: ints.SatAdd(iv.Hi, o.Hi)}
}

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

// maxEnum caps the points ScanPrefix visits.
const maxEnum = 4096

// errEnumCap ends a prefix scan once maxEnum points have been visited.
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
		w := ints.SatSub(hi[d], lo[d]) // box side length - 1
		if w < 0 {
			return 0, true // empty box: lo > hi on some dimension
		}
		total = ints.SatMul(total, ints.SatAdd(w, 1))
	}
	return total, true
}

// ScanPrefix visits the distinct integer points of s in scan order and
// stops after the first 4096. Every visited point is a member of s, so what
// visit tallies is a certified lower bound; complete reports that every
// point was visited (a set of exactly 4096 points completes). A scan the
// enumerator cannot finish, such as one along an unbounded direction, ends
// the prefix early. op is checked for cancellation before every point but
// never charged, and only cancellation fails the scan.
func ScanPrefix(s presburger.Set, op *budget.Op, visit func(point []int64)) (complete bool, err error) {
	var seen int64
	err = s.Scan(func(point []int64) error {
		if err := op.Err(); err != nil {
			return err
		}
		if seen >= maxEnum {
			return errEnumCap
		}
		seen++
		visit(point)
		return nil
	})
	if budget.IsCancellation(err) {
		return false, err
	}
	return err == nil, nil
}

// CountSetInterval is the certified form of CountSet: the exact count as a
// width-0 interval whenever CountSet succeeds, and a certified interval
// when it fails on the budget or outside the fragment. The degraded lower
// bound counts the ScanPrefix points (exact when the prefix completes); the
// upper bound is the smaller box-volume sum (boxUpper) of the coalesced
// union and of the basic sets as given. Cancellation fails it, and so does
// a degraded set without a finite box.
func CountSetInterval(s presburger.Set, op *budget.Op) (Interval, error) {
	n, serr := CountSet(s, op)
	if serr == nil {
		return Exact(n), nil
	}
	if budget.IsCancellation(serr) {
		return Interval{}, serr
	}
	var lo int64
	complete, err := ScanPrefix(s, op, func([]int64) { lo++ })
	if err != nil {
		return Interval{}, err
	}
	if complete {
		return Exact(lo), nil
	}
	// The coalesced union over-counts less, but coalescing may drop a
	// constant bound that the other constraints imply only through a div,
	// leaving no finite box; the basic sets as given bound the count too.
	hi, ok := boxUpper(s.Coalesce())
	if given, givenOK := boxUpper(s); givenOK && (!ok || given < hi) {
		hi, ok = given, true
	}
	if !ok {
		return Interval{}, fmt.Errorf("no certified upper bound (unbounded box): %w", serr)
	}
	return Interval{Lo: lo, Hi: hi}, nil
}

// boxUpper sums the box volumes of the basic sets of s, a certified upper
// bound on its distinct points (overlap only over-counts); ok is false when
// a basic set has no finite box.
func boxUpper(s presburger.Set) (int64, bool) {
	var hi int64
	for _, bs := range s.Basics() {
		n, ok := BoxCountUpper(bs)
		if !ok {
			return 0, false
		}
		hi = ints.SatAdd(hi, n)
	}
	return hi, true
}
