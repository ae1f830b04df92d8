package presburger

import (
	"errors"
	"fmt"
	"math"

	"haystack/internal/ints"
)

// ErrUnbounded reports an attempt to enumerate a set with an unbounded
// dimension.
var ErrUnbounded = errors.New("presburger: cannot enumerate unbounded set")

// ErrStopScan can be returned by a scan callback to stop enumeration early
// without reporting an error to the caller of Scan.
var ErrStopScan = errors.New("presburger: stop scan")

// scanner enumerates the integer points of a basic set/map. Per-dimension
// bound constraints are precomputed once by rational projection, and the
// enumeration is exact whenever every dimension is bounded: a constraint
// without divs reaches the level of its innermost dimension unchanged (the
// projection passes rows that lack the eliminated column through) and is
// enforced there exactly by that level's integer bounds, so only the
// constraints that reference a div are checked at the leaf, and a
// constraint without any dimension is checked once before the scan. The
// projection keeps the rows it passes through ahead of the rows it derives
// and cuts its output at maxFMConstraints rows, so the pass-through is
// certain only for a basic whose own rows (constraints and div bounds) fit
// under the cut; a larger basic checks every constraint at the leaf.
type scanner struct {
	b *basic
	// levels[d] holds the constraints (over columns 0..dimCol(d)) that bound
	// dimension d once dimensions 0..d-1 are fixed.
	levels [][]Constraint
	// leaf holds the constraints that reference a div.
	leaf []Constraint
	// empty reports a constraint without dimensions or divs that fails.
	empty bool
}

func newScanner(b *basic) *scanner {
	s := &scanner{b: b}
	for _, c := range b.cons {
		dims, divs := false, false
		for j := 1; j < len(c.C); j++ {
			if c.C[j] != 0 {
				dims = dims || j <= b.ndim
				divs = divs || j > b.ndim
			}
		}
		switch {
		case divs:
			s.leaf = append(s.leaf, c)
		case !dims:
			s.empty = s.empty || (c.Eq && c.C[0] != 0) || (!c.Eq && c.C[0] < 0)
		}
	}
	if len(b.cons)+2*len(b.divs) > maxFMConstraints {
		s.leaf = b.cons
	}
	cons := b.materializedConstraints(nil)
	// Eliminate from the innermost column outwards, recording the systems.
	s.levels = make([][]Constraint, b.ndim)
	col := b.ncols() - 1
	for ; col > b.dimCol(b.ndim-1) && b.ndim > 0; col-- {
		cons = rationalEliminate(nil, cons, col)
	}
	for d := b.ndim - 1; d >= 0; d-- {
		var lvl []Constraint
		for _, c := range cons {
			if c.C[b.dimCol(d)] != 0 {
				lvl = append(lvl, c)
			}
		}
		s.levels[d] = lvl
		cons = rationalEliminate(nil, cons, b.dimCol(d))
	}
	return s
}

// bounds returns the integer bounds of dimension d given the fixed prefix.
func (s *scanner) bounds(d int, prefix []int64) (lo, hi int64, bounded bool) {
	col := s.b.dimCol(d)
	haveLo, haveHi := false, false
	for _, c := range s.levels[d] {
		a := c.C[col]
		if a == math.MinInt64 {
			return 0, 0, false
		}
		rest, ok := evalRest(c.C, s.b, d, prefix)
		if !ok {
			// Evaluating the bound would wrap int64. Reporting the dimension
			// unbounded turns that into a typed ErrUnbounded from scanLevel;
			// a wrapped bound could silently enumerate nothing (lo > hi) and
			// certify a non-empty set as empty.
			return 0, 0, false
		}
		if c.Eq {
			if rest%a != 0 {
				return 0, -1, true
			}
			v := -rest / a
			if !haveLo || v > lo {
				lo = v
			}
			if !haveHi || v < hi {
				hi = v
			}
			haveLo, haveHi = true, true
			continue
		}
		if a > 0 {
			v := ints.CeilDiv(-rest, a)
			if !haveLo || v > lo {
				lo = v
				haveLo = true
			}
		} else {
			v := ints.FloorDiv(rest, -a)
			if !haveHi || v < hi {
				hi = v
				haveHi = true
			}
		}
	}
	return lo, hi, haveLo && haveHi
}

func (s *scanner) scanLevel(d int, point []int64, fn func(point []int64) error) error {
	if d == s.b.ndim {
		if len(s.leaf) == 0 || s.b.satisfies(point, s.leaf) {
			return fn(point)
		}
		return nil
	}
	lo, hi, bounded := s.bounds(d, point[:d])
	if !bounded {
		return fmt.Errorf("%w: dimension %d", ErrUnbounded, d)
	}
	for v := lo; v <= hi; v++ {
		point[d] = v
		if err := s.scanLevel(d+1, point, fn); err != nil {
			return err
		}
	}
	return nil
}

// scanPoints enumerates every integer point of the basic set/map in
// lexicographic order of its dimensions and calls fn with the point (the
// slice is reused between calls).
func (b *basic) scanPoints(fn func(point []int64) error) error {
	if b.ndim == 0 {
		// All divs depend on constants only, so containment is decidable
		// by direct evaluation.
		if b.contains(nil) {
			return fn(nil)
		}
		return nil
	}
	s := newScanner(b)
	if s.empty {
		return nil
	}
	point := make([]int64, b.ndim)
	return s.scanLevel(0, point, fn)
}

// samplePoint returns one integer point of the basic set/map, or ok=false
// when the set is empty (or enumeration fails).
func (b *basic) samplePoint() (point []int64, ok bool) {
	var found []int64
	err := b.scanPoints(func(p []int64) error {
		found = append([]int64(nil), p...)
		return ErrStopScan
	})
	if err != nil && !errors.Is(err, ErrStopScan) {
		return nil, false
	}
	return found, found != nil
}
