package ints

import "fmt"

// Rat is an exact rational number with int64 numerator and positive int64
// denominator, always stored in lowest terms. The zero value is 0/1.
type Rat struct {
	num int64
	den int64 // > 0; 0 means the zero value and is treated as 1
}

// NewRat returns the rational num/den in lowest terms. den must be non-zero.
func NewRat(num, den int64) Rat {
	if den == 0 {
		panic("ints: rational with zero denominator")
	}
	if den < 0 {
		num, den = -num, -den
	}
	if num == 0 {
		return Rat{0, 1}
	}
	g := GCD(num, den)
	return Rat{num / g, den / g}
}

// RatInt returns the rational n/1.
func RatInt(n int64) Rat { return Rat{n, 1} }

func (r Rat) norm() (int64, int64) {
	if r.den == 0 {
		return r.num, 1
	}
	return r.num, r.den
}

// Num returns the numerator of r in lowest terms.
func (r Rat) Num() int64 { n, _ := r.norm(); return n }

// Den returns the (positive) denominator of r in lowest terms.
func (r Rat) Den() int64 { _, d := r.norm(); return d }

// IsZero reports whether r is zero.
func (r Rat) IsZero() bool { return r.Num() == 0 }

// IsInt reports whether r is an integer.
func (r Rat) IsInt() bool { return r.Den() == 1 }

// Int returns the integer value of r and panics if r is not an integer.
func (r Rat) Int() int64 {
	if !r.IsInt() {
		panic(fmt.Sprintf("ints: %v is not an integer", r))
	}
	return r.Num()
}

// Add returns r + s.
func (r Rat) Add(s Rat) Rat {
	rn, rd := r.norm()
	sn, sd := s.norm()
	g := GCD(rd, sd)
	// r.num*(sd/g) + s.num*(rd/g) over lcm
	num := AddChecked(MulChecked(rn, sd/g), MulChecked(sn, rd/g))
	den := MulChecked(rd/g, sd)
	return NewRat(num, den)
}

// Sub returns r - s.
func (r Rat) Sub(s Rat) Rat { return r.Add(s.Neg()) }

// Neg returns -r.
func (r Rat) Neg() Rat { n, d := r.norm(); return Rat{-n, d} }

// Mul returns r * s.
func (r Rat) Mul(s Rat) Rat {
	rn, rd := r.norm()
	sn, sd := s.norm()
	// Cross-reduce before multiplying to keep intermediates small.
	g1 := GCD(Abs(rn), sd)
	g2 := GCD(Abs(sn), rd)
	if g1 == 0 {
		g1 = 1
	}
	if g2 == 0 {
		g2 = 1
	}
	num := MulChecked(rn/g1, sn/g2)
	den := MulChecked(rd/g2, sd/g1)
	return NewRat(num, den)
}

// Div returns r / s. s must be non-zero.
func (r Rat) Div(s Rat) Rat {
	if s.IsZero() {
		panic("ints: rational division by zero")
	}
	sn, sd := s.norm()
	return r.Mul(Rat{sd, Abs(sn)}.scaleSign(Sign(sn)))
}

func (r Rat) scaleSign(s int) Rat {
	if s < 0 {
		return r.Neg()
	}
	return r
}

// Cmp compares r and s and returns -1, 0, or 1.
func (r Rat) Cmp(s Rat) int {
	d := r.Sub(s)
	return Sign(d.Num())
}

// String renders r as "n" or "n/d".
func (r Rat) String() string {
	n, d := r.norm()
	if d == 1 {
		return fmt.Sprintf("%d", n)
	}
	return fmt.Sprintf("%d/%d", n, d)
}
