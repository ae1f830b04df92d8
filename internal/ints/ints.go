// Package ints provides exact integer helpers used throughout the
// polyhedral machinery: floor/ceil division, gcd/lcm, and a small exact
// rational type over int64.
//
// All arithmetic is checked: results that would overflow int64 panic with a
// descriptive message. The model operates on loop bounds and miss counts far
// below 2^63, so an overflow always indicates a programming error rather
// than a legitimate large value.
package ints

import (
	"fmt"
	"math"
)

// AddChecked returns a+b and panics on overflow.
func AddChecked(a, b int64) int64 {
	s := a + b
	if (a > 0 && b > 0 && s < 0) || (a < 0 && b < 0 && s >= 0) {
		panic(fmt.Sprintf("ints: overflow in %d + %d", a, b))
	}
	return s
}

// MulChecked returns a*b and panics on overflow.
func MulChecked(a, b int64) int64 {
	p, ok := TryMul(a, b)
	if !ok {
		panic(fmt.Sprintf("ints: overflow in %d * %d", a, b))
	}
	return p
}

// TryAdd returns a+b, reporting false on overflow instead of panicking.
// Use it where an overflow is a legitimate large value that the caller
// degrades on (bounded tier, unsupported-form fallback) rather than a
// programming error.
func TryAdd(a, b int64) (int64, bool) {
	s := a + b
	if (a > 0 && b > 0 && s < 0) || (a < 0 && b < 0 && s >= 0) {
		return 0, false
	}
	return s, true
}

// TrySub returns a-b, reporting false on overflow instead of panicking.
func TrySub(a, b int64) (int64, bool) {
	d := a - b
	// a = 0 counts as non-negative: 0 - MinInt64 wraps to MinInt64.
	if (b < 0 && a >= 0 && d < 0) || (b > 0 && a < 0 && d > 0) {
		return 0, false
	}
	return d, true
}

// TryMul returns a*b, reporting false on overflow instead of panicking.
func TryMul(a, b int64) (int64, bool) {
	if a == 0 || b == 0 {
		return 0, true
	}
	p := a * b
	// The quotient check misses exactly one wrap: MinInt64 * -1 wraps to
	// MinInt64, and Go defines MinInt64 / -1 as MinInt64, so p/b == a.
	if p/b != a || (a == minInt64 && b == -1) {
		return 0, false
	}
	return p, true
}

const minInt64 = -1 << 63

// SatAdd returns a+b, saturating at MaxInt64 or MinInt64 on overflow. Use
// the saturating helpers for counts and bounds where a clamped extreme is
// the right answer (certified upper bounds, heuristic scores).
func SatAdd(a, b int64) int64 {
	if s, ok := TryAdd(a, b); ok {
		return s
	}
	return saturate(a > 0)
}

// SatSub returns a-b, saturating at MaxInt64 or MinInt64 on overflow.
func SatSub(a, b int64) int64 {
	if d, ok := TrySub(a, b); ok {
		return d
	}
	return saturate(a >= 0)
}

// SatMul returns a*b, saturating at MaxInt64 or MinInt64 on overflow.
func SatMul(a, b int64) int64 {
	if p, ok := TryMul(a, b); ok {
		return p
	}
	return saturate((a > 0) == (b > 0))
}

// saturate returns the extreme an overflowing result clamps to.
func saturate(positive bool) int64 {
	if positive {
		return math.MaxInt64
	}
	return math.MinInt64
}

// Abs returns the absolute value of a.
func Abs(a int64) int64 {
	if a < 0 {
		return -a
	}
	return a
}

// Sign returns -1, 0, or 1 depending on the sign of a.
func Sign(a int64) int {
	switch {
	case a < 0:
		return -1
	case a > 0:
		return 1
	default:
		return 0
	}
}

// GCD returns the non-negative greatest common divisor of a and b.
// GCD(0, 0) is 0.
func GCD(a, b int64) int64 {
	a, b = Abs(a), Abs(b)
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// LCM returns the least common multiple of a and b. LCM(0, x) is 0.
func LCM(a, b int64) int64 {
	if a == 0 || b == 0 {
		return 0
	}
	g := GCD(a, b)
	return MulChecked(Abs(a)/g, Abs(b))
}

// FloorDiv returns floor(a/b). b must be non-zero.
func FloorDiv(a, b int64) int64 {
	if b == 0 {
		panic("ints: FloorDiv by zero")
	}
	q := a / b
	if (a%b != 0) && ((a < 0) != (b < 0)) {
		q--
	}
	return q
}

// CeilDiv returns ceil(a/b). b must be non-zero.
func CeilDiv(a, b int64) int64 {
	if b == 0 {
		panic("ints: CeilDiv by zero")
	}
	q := a / b
	if (a%b != 0) && ((a < 0) == (b < 0)) {
		q++
	}
	return q
}
