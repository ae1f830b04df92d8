// Package presburger implements the integer set and map machinery the cache
// model is built on: named affine integer sets and maps ("isl-lite").
//
// A basic set is a conjunction of affine equality and inequality constraints
// over a tuple of integer dimensions plus local "div" variables, each of
// which is defined as the floor of an affine expression divided by a
// positive constant. A set is a finite union of basic sets in the same
// space; union sets and union maps group sets/maps across differently named
// spaces (statements, arrays, the schedule space).
//
// The operations mirror the subset of isl used by the HayStack model:
// intersection, union, subtraction, composition, inverse, domain/range
// projection, lexicographic order maps, fixing and projecting dimensions,
// point scanning, and emptiness checks. Operations are exact on the
// quasi-affine fragment produced by the model; an operation that would
// require general integer quantifier elimination returns ErrUnsupported so
// that callers can fall back to enumeration.
package presburger

import (
	"errors"
	"fmt"
	"strings"
)

// ErrUnsupported reports that an operation left the exactly-supported
// quasi-affine fragment. Callers fall back to enumeration.
var ErrUnsupported = errors.New("presburger: operation outside supported fragment")

// Space names a tuple of integer dimensions, e.g. the instances of statement
// "S0" with dimensions i and j, or the elements of array "A".
//
// The first NParam dimensions may be marked as symbolic program parameters:
// fixed-but-unknown values shared by every tuple of an execution rather than
// real tuple coordinates. Parameter dimensions take part in all set and map
// operations like ordinary dimensions (intersection, composition,
// subtraction, and coalescing carry them through unchanged), with one
// semantic difference: the lexicographic order maps (LexLT and friends)
// relate only tuples with equal parameter values and order the remaining
// dimensions, so lexmin/lexmax treat parameters as outermost fixed inputs.
type Space struct {
	Name string
	Dims []string
	// NParam is the number of leading dimensions that are symbolic program
	// parameters. It is carried metadata and does not affect space identity
	// (Equal compares name and arity only).
	NParam int
}

// NewSpace returns a space with the given tuple name and dimension names.
func NewSpace(name string, dims ...string) Space {
	return Space{Name: name, Dims: append([]string(nil), dims...)}
}

// NewParamSpace returns a space whose first nParam dimensions are symbolic
// parameters.
func NewParamSpace(name string, nParam int, dims ...string) Space {
	if nParam < 0 || nParam > len(dims) {
		panic("presburger: parameter count out of range")
	}
	return Space{Name: name, Dims: append([]string(nil), dims...), NParam: nParam}
}

// Dim returns the number of dimensions of the space.
func (s Space) Dim() int { return len(s.Dims) }

// Equal reports whether two spaces have the same name and arity.
// Dimension names are documentation only and do not affect identity.
func (s Space) Equal(o Space) bool {
	return s.Name == o.Name && len(s.Dims) == len(o.Dims)
}

func (s Space) String() string {
	return fmt.Sprintf("%s(%s)", s.Name, strings.Join(s.Dims, ","))
}

// Vec is an affine row vector over the column layout of a basic set or map:
// column 0 is the constant term, columns 1..ndim are the tuple dimensions,
// and the remaining columns are the local div variables. A row may be
// shorter than the column count of its owner; the missing columns read as
// zero. Read a coefficient through At, which needs no padded copy; Resized
// is for building a new row of a given width.
type Vec []int64

// NewVec returns a zero vector with n columns.
func NewVec(n int) Vec { return make(Vec, n) }

// Clone returns a copy of v.
func (v Vec) Clone() Vec { return append(Vec(nil), v...) }

// Resized returns a copy of v with n columns; new columns are zero.
func (v Vec) Resized(n int) Vec {
	w := make(Vec, n)
	copy(w, v)
	return w
}

// At returns the coefficient at column j; columns beyond the width of v
// read as zero.
func (v Vec) At(j int) int64 {
	if j < len(v) {
		return v[j]
	}
	return 0
}

// IsZero reports whether every entry of v is zero.
func (v Vec) IsZero() bool {
	for _, x := range v {
		if x != 0 {
			return false
		}
	}
	return true
}

// Neg returns -v.
func (v Vec) Neg() Vec {
	w := v.Clone()
	for i := range w {
		w[i] = -w[i]
	}
	return w
}
