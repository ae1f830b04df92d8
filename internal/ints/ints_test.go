package ints

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

func TestFloorCeilDiv(t *testing.T) {
	cases := []struct {
		a, b, floor, ceil int64
	}{
		{7, 2, 3, 4},
		{-7, 2, -4, -3},
		{7, -2, -4, -3},
		{-7, -2, 3, 4},
		{6, 3, 2, 2},
		{-6, 3, -2, -2},
		{0, 5, 0, 0},
	}
	for _, c := range cases {
		if got := FloorDiv(c.a, c.b); got != c.floor {
			t.Errorf("FloorDiv(%d,%d) = %d, want %d", c.a, c.b, got, c.floor)
		}
		if got := CeilDiv(c.a, c.b); got != c.ceil {
			t.Errorf("CeilDiv(%d,%d) = %d, want %d", c.a, c.b, got, c.ceil)
		}
	}
}

func TestFloorDivProperty(t *testing.T) {
	f := func(a int32, b int32) bool {
		if b == 0 {
			return true
		}
		q := FloorDiv(int64(a), int64(b))
		r := int64(a) - q*int64(b)
		// remainder has the sign of b and |r| < |b|
		if b > 0 {
			return r >= 0 && r < int64(b)
		}
		return r <= 0 && r > int64(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCeilDivProperty(t *testing.T) {
	f := func(a int32, b int32) bool {
		if b == 0 {
			return true
		}
		return CeilDiv(int64(a), int64(b)) == -FloorDiv(-int64(a), int64(b))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestModProperty(t *testing.T) {
	f := func(a int32, b int32) bool {
		if b == 0 {
			return true
		}
		m := Mod(int64(a), int64(b))
		return m >= 0 && m < Abs(int64(b)) && (int64(a)-m)%int64(b) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGCDLCM(t *testing.T) {
	if GCD(0, 0) != 0 {
		t.Errorf("GCD(0,0) = %d", GCD(0, 0))
	}
	if GCD(12, 18) != 6 {
		t.Errorf("GCD(12,18) = %d", GCD(12, 18))
	}
	if GCD(-12, 18) != 6 {
		t.Errorf("GCD(-12,18) = %d", GCD(-12, 18))
	}
	if LCM(4, 6) != 12 {
		t.Errorf("LCM(4,6) = %d", LCM(4, 6))
	}
	if LCM(0, 5) != 0 {
		t.Errorf("LCM(0,5) = %d", LCM(0, 5))
	}
}

func TestGCDProperty(t *testing.T) {
	f := func(a, b int16) bool {
		g := GCD(int64(a), int64(b))
		if g == 0 {
			return a == 0 && b == 0
		}
		return int64(a)%g == 0 && int64(b)%g == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCheckedArithmetic(t *testing.T) {
	if AddChecked(2, 3) != 5 || SubChecked(2, 3) != -1 || MulChecked(6, 7) != 42 {
		t.Fatal("basic checked arithmetic wrong")
	}
	assertPanics(t, func() { AddChecked(math.MaxInt64, 1) })
	assertPanics(t, func() { SubChecked(math.MinInt64, 1) })
	assertPanics(t, func() { MulChecked(math.MaxInt64, 2) })
	assertPanics(t, func() { FloorDiv(1, 0) })
	assertPanics(t, func() { CeilDiv(1, 0) })
	assertPanics(t, func() { Mod(1, 0) })
}

func assertPanics(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("expected panic")
		}
	}()
	f()
}

func TestMinMaxSignAbs(t *testing.T) {
	if Min(3, -2) != -2 || Max(3, -2) != 3 {
		t.Fatal("Min/Max wrong")
	}
	if Sign(-5) != -1 || Sign(0) != 0 || Sign(9) != 1 {
		t.Fatal("Sign wrong")
	}
	if Abs(-7) != 7 || Abs(7) != 7 {
		t.Fatal("Abs wrong")
	}
}

func TestTryHelpers(t *testing.T) {
	cases := []struct {
		a, b int64
		add  bool // expect TryAdd ok
		mul  bool // expect TryMul ok
	}{
		{0, 0, true, true},
		{3, 4, true, true},
		{-3, 4, true, true},
		{math.MaxInt64, 1, false, true},
		{math.MinInt64, -1, false, false},
		{math.MaxInt64, 0, true, true},
		{math.MaxInt64, 2, false, false},
		{1 << 32, 1 << 32, true, false},
		{-(1 << 32), 1 << 32, true, false},
		// Around the 2^31 fast path of TryMul.
		{1<<31 - 1, -(1<<31 - 1), true, true},
		{1 << 31, 1 << 31, true, true},
		{-(1 << 31), 1 << 32, true, true},
		{1 << 31, 1 << 32, true, false},
		{math.MinInt64, 0, true, true},
		{1, math.MinInt64, true, true},
	}
	for _, c := range cases {
		if s, ok := TryAdd(c.a, c.b); ok != c.add {
			t.Errorf("TryAdd(%d,%d) ok=%v, want %v", c.a, c.b, ok, c.add)
		} else if ok && s != c.a+c.b {
			t.Errorf("TryAdd(%d,%d) = %d", c.a, c.b, s)
		}
		if p, ok := TryMul(c.a, c.b); ok != c.mul {
			t.Errorf("TryMul(%d,%d) ok=%v, want %v", c.a, c.b, ok, c.mul)
		} else if ok && p != c.a*c.b {
			t.Errorf("TryMul(%d,%d) = %d", c.a, c.b, p)
		}
	}
	if _, ok := TrySub(math.MinInt64, 1); ok {
		t.Error("TrySub(MinInt64, 1) should overflow")
	}
	if d, ok := TrySub(10, 4); !ok || d != 6 {
		t.Errorf("TrySub(10,4) = %d, %v", d, ok)
	}
	// The Try helpers must agree with the panicking ones wherever those
	// succeed.
	if v, ok := TryMul(1<<20, 1<<20); !ok || v != MulChecked(1<<20, 1<<20) {
		t.Error("TryMul disagrees with MulChecked")
	}
}

// Mod returns the mathematical modulus a mod b, always in [0, |b|).
func Mod(a, b int64) int64 {
	if b == 0 {
		panic("ints: Mod by zero")
	}
	m := a % b
	if m < 0 {
		m += Abs(b)
	}
	return m
}

// Min returns the smaller of a and b.
func Min(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// Max returns the larger of a and b.
func Max(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// SubChecked returns a-b and panics on overflow.
func SubChecked(a, b int64) int64 {
	d := a - b
	if (b < 0 && a > 0 && d < 0) || (b > 0 && a < 0 && d > 0) {
		panic(fmt.Sprintf("ints: overflow in %d - %d", a, b))
	}
	return d
}

// TestSaturatingHelpers pins SatAdd, SatSub and SatMul at the int64
// extremes, including the two wraps a bare overflow check misses:
// MinInt64 × -1 (the quotient check p/b == a passes) and 0 - MinInt64
// (the difference wraps to MinInt64).
func TestSaturatingHelpers(t *testing.T) {
	const maxI, minI = math.MaxInt64, math.MinInt64
	cases := []struct {
		a, b          int64
		add, sub, mul int64
	}{
		{3, 4, 7, -1, 12},
		{-3, 4, 1, -7, -12},
		{0, 0, 0, 0, 0},
		{maxI, 1, maxI, maxI - 1, maxI},
		{maxI, maxI, maxI, 0, maxI},
		{maxI, -1, maxI - 1, maxI, -maxI},
		{maxI, 2, maxI, maxI - 2, maxI},
		{maxI, -2, maxI - 2, maxI, minI},
		{minI, 1, minI + 1, minI, minI},
		{minI, -1, minI, minI + 1, maxI},
		{-1, minI, minI, maxI, maxI},
		{minI, minI, minI, 0, maxI},
		{minI, maxI, -1, minI, minI},
		{0, minI, minI, maxI, 0},
		{1, minI, minI + 1, maxI, minI},
		{-1, maxI, maxI - 1, minI, -maxI},
		{-2, maxI, maxI - 2, minI, minI},
		{1 << 32, 1 << 32, 1 << 33, 0, maxI},
		{-(1 << 32), 1 << 32, 0, -(1 << 33), minI},
	}
	for _, c := range cases {
		if got := SatAdd(c.a, c.b); got != c.add {
			t.Errorf("SatAdd(%d, %d) = %d, want %d", c.a, c.b, got, c.add)
		}
		if got := SatSub(c.a, c.b); got != c.sub {
			t.Errorf("SatSub(%d, %d) = %d, want %d", c.a, c.b, got, c.sub)
		}
		if got := SatMul(c.a, c.b); got != c.mul {
			t.Errorf("SatMul(%d, %d) = %d, want %d", c.a, c.b, got, c.mul)
		}
		if got := SatMul(c.b, c.a); got != c.mul {
			t.Errorf("SatMul(%d, %d) = %d, want %d (commuted)", c.b, c.a, got, c.mul)
		}
	}
}
