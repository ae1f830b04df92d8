package ints

import (
	"testing"
	"testing/quick"
)

func TestRatBasics(t *testing.T) {
	r := NewRat(6, 4)
	if r.Num() != 3 || r.Den() != 2 {
		t.Fatalf("NewRat(6,4) = %v, want 3/2", r)
	}
	if NewRat(3, -6).String() != "-1/2" {
		t.Fatalf("NewRat(3,-6) = %v", NewRat(3, -6))
	}
	if !RatInt(4).IsInt() || RatInt(4).Int() != 4 {
		t.Fatal("RatInt wrong")
	}
	if NewRat(7, 2).Floor() != 3 || NewRat(7, 2).Ceil() != 4 {
		t.Fatal("Floor/Ceil wrong")
	}
	if NewRat(-7, 2).Floor() != -4 || NewRat(-7, 2).Ceil() != -3 {
		t.Fatal("negative Floor/Ceil wrong")
	}
	var zero Rat
	if !zero.IsZero() || zero.Den() != 1 {
		t.Fatal("zero value of Rat is not 0/1")
	}
	if zero.Add(RatInt(3)).Cmp(RatInt(3)) != 0 {
		t.Fatal("zero value addition wrong")
	}
}

func TestRatArithmetic(t *testing.T) {
	a := NewRat(1, 3)
	b := NewRat(1, 6)
	if a.Add(b).Cmp(NewRat(1, 2)) != 0 {
		t.Errorf("1/3 + 1/6 = %v", a.Add(b))
	}
	if a.Sub(b).Cmp(NewRat(1, 6)) != 0 {
		t.Errorf("1/3 - 1/6 = %v", a.Sub(b))
	}
	if a.Mul(b).Cmp(NewRat(1, 18)) != 0 {
		t.Errorf("1/3 * 1/6 = %v", a.Mul(b))
	}
	if a.Div(b).Cmp(RatInt(2)) != 0 {
		t.Errorf("1/3 / 1/6 = %v", a.Div(b))
	}
	if a.Neg().Add(a).Cmp(Rat{}) != 0 {
		t.Errorf("a + (-a) != 0")
	}
}

func TestRatProperties(t *testing.T) {
	mk := func(n, d int16) Rat {
		if d == 0 {
			d = 1
		}
		return NewRat(int64(n), int64(d))
	}
	// Commutativity and associativity of addition.
	add := func(an, ad, bn, bd, cn, cd int16) bool {
		a, b, c := mk(an, ad), mk(bn, bd), mk(cn, cd)
		if a.Add(b).Cmp(b.Add(a)) != 0 {
			return false
		}
		return a.Add(b).Add(c).Cmp(a.Add(b.Add(c))) == 0
	}
	if err := quick.Check(add, nil); err != nil {
		t.Fatal(err)
	}
	// Distributivity.
	dist := func(an, ad, bn, bd, cn, cd int16) bool {
		a, b, c := mk(an, ad), mk(bn, bd), mk(cn, cd)
		return a.Mul(b.Add(c)).Cmp(a.Mul(b).Add(a.Mul(c))) == 0
	}
	if err := quick.Check(dist, nil); err != nil {
		t.Fatal(err)
	}
	// Floor is consistent with FloorDiv.
	floor := func(n int16, d int16) bool {
		if d == 0 {
			return true
		}
		r := NewRat(int64(n), int64(d))
		return r.Floor() == FloorDiv(int64(n), int64(d)) || int64(d) < 0 && r.Floor() == FloorDiv(-int64(n), -int64(d))
	}
	if err := quick.Check(floor, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRatDivByZeroPanics(t *testing.T) {
	assertPanics(t, func() { RatInt(1).Div(Rat{}) })
	assertPanics(t, func() { NewRat(1, 0) })
	assertPanics(t, func() { NewRat(1, 2).Int() })
}

// Floor returns the largest integer <= r.
func (r Rat) Floor() int64 { n, d := r.norm(); return FloorDiv(n, d) }

// Ceil returns the smallest integer >= r.
func (r Rat) Ceil() int64 { n, d := r.norm(); return CeilDiv(n, d) }
