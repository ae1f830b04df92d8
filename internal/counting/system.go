// Package counting implements symbolic cardinality computation for integer
// sets and maps: the role the Barvinok library plays for the original
// HayStack implementation.
//
// The engine counts by successive symbolic summation: the innermost counted
// dimension is summed out with Faulhaber formulas, splitting the domain on
// which lower/upper bound dominates and on residue classes whenever floor
// expressions (divs) depend on the summed dimension. The result is a
// piecewise quasi-polynomial in the parameter dimensions, exactly like the
// quasi-polynomials barvinok produces. Inputs outside the supported
// fragment report an error so that callers can fall back to enumeration,
// mirroring the hybrid strategy of the paper.
package counting

import (
	"errors"
	"fmt"

	"haystack/internal/ints"
	"haystack/internal/presburger"
	"haystack/internal/qpoly"
)

// ErrUnsupported reports that symbolic counting left the supported fragment.
var ErrUnsupported = errors.New("counting: outside supported fragment")

// ErrUnbounded reports an attempt to count an unbounded set.
var ErrUnbounded = errors.New("counting: unbounded set")

// system is the internal working state while summing out dimensions of one
// basic set. Column layout of all vectors: [const, dims..., divs...]. The
// first nParam dims are parameters (never summed); dims that have already
// been summed keep their column but are unreferenced.
//
// Rows follow the ownership rule of the presburger basics: a system owns
// every row it holds (newSystem and clone copy on entry), only a fresh
// clone is rewritten, and reads go through Vec.At. Rows may be shorter than
// ncols: adding a div widens the layout without padding the rows, whose
// missing columns read as zero.
type system struct {
	space  presburger.Space
	nParam int
	ndim   int
	divs   []presburger.Div
	cons   []presburger.Constraint
	poly   qpoly.QPoly // over ndim variables
}

func newSystem(bs presburger.BasicSet, nParam int) *system {
	return &system{
		space:  bs.Space(),
		nParam: nParam,
		ndim:   bs.NDim(),
		divs:   bs.Divs(),
		cons:   bs.Constraints(),
		poly:   qpoly.ConstInt(bs.NDim(), 1),
	}
}

func (s *system) ncols() int       { return 1 + s.ndim + len(s.divs) }
func (s *system) dimCol(i int) int { return 1 + i }
func (s *system) divCol(i int) int { return 1 + s.ndim + i }

func (s *system) clone() *system { return s.cloneWith(s.cons) }

// cloneWith copies s with cons in place of its constraints. All copied rows
// share one slab allocation; each row's capacity is clamped to its length,
// so an append to one reallocates instead of overwriting its neighbour.
func (s *system) cloneWith(cons []presburger.Constraint) *system {
	out := &system{space: s.space, nParam: s.nParam, ndim: s.ndim, poly: s.poly}
	total := 0
	for _, d := range s.divs {
		total += len(d.Num)
	}
	for _, c := range cons {
		total += len(c.C)
	}
	slab := make([]int64, total)
	row := func(v presburger.Vec) presburger.Vec {
		n := len(v)
		dst := slab[:n:n]
		slab = slab[n:]
		copy(dst, v)
		return dst
	}
	out.divs = make([]presburger.Div, len(s.divs))
	for i, d := range s.divs {
		out.divs[i] = presburger.Div{Num: row(d.Num), Den: d.Den}
	}
	out.cons = make([]presburger.Constraint, len(cons))
	for i, c := range cons {
		out.cons[i] = presburger.Constraint{C: row(c.C), Eq: c.Eq}
	}
	return out
}

// addDiv appends (or reuses) a div and returns its column index. num is
// only read: a new div gets its own copy, already at the widened layout.
// The other rows are not padded to the new width.
func (s *system) addDiv(num presburger.Vec, den int64) int {
	n := s.ncols()
	for i, d := range s.divs {
		if d.Den != den {
			continue
		}
		same := true
		for j := 0; j < n; j++ {
			if d.Num.At(j) != num.At(j) {
				same = false
				break
			}
		}
		if same {
			return s.divCol(i)
		}
	}
	row := presburger.NewVec(n + 1)
	copy(row, num[:min(len(num), n)])
	s.divs = append(s.divs, presburger.Div{Num: row, Den: den})
	return s.divCol(len(s.divs) - 1)
}

// toBasicSet converts the system's constraints back into a basic set over the
// full space (used for emptiness pruning).
func (s *system) toBasicSet() presburger.BasicSet {
	return presburger.NewBasicSet(s.space, s.divs, s.cons)
}

// debugAssert panics, under the haystackdebug build tag, when the system
// violates the presburger IR invariants: most importantly a div whose
// numerator references a later div, which has no floor-atom order.
func (s *system) debugAssert(context string) {
	if presburger.DebugInvariantsEnabled() {
		presburger.DebugAssertBasicSet(s.toBasicSet(), "counting "+context)
	}
}

// definitelyEmpty reports whether the constraint system is detectably empty.
func (s *system) definitelyEmpty() bool { return s.toBasicSet().DefinitelyEmpty() }

// fanOutEstimate scores how many sub-systems summing out dim is expected to
// produce: the residue period of the floors that depend on it times the
// number of (lower, upper) bound pairs. Dimensions eliminable through an
// equality (and free of floor dependence) score 1. The estimate steers the
// summation order; it never affects correctness.
func (s *system) fanOutEstimate(dim int) int64 {
	// The estimate multiplies residue periods by bound pairs by coupling
	// penalties; with adversarial coefficients the raw products (and the
	// checked LCM, which panics) overflow int64. Saturating keeps the
	// heuristic ordered — a saturated estimate just means "sum this last".
	satMul := func(a, b int64) int64 {
		p, ok := ints.TryMul(a, b)
		if !ok {
			return int64(^uint64(0) >> 1) // saturate at MaxInt64
		}
		return p
	}
	satLCM := func(a, b int64) int64 {
		if a == 0 || b == 0 {
			return 0
		}
		g := ints.GCD(a, b)
		return satMul(ints.Abs(a)/g, ints.Abs(b))
	}
	col := s.dimCol(dim)
	var period int64 = 1
	if s.hasDimDependentFloors(dim) {
		for _, d := range s.divs {
			if d.Num.At(col) != 0 {
				period = satLCM(period, d.Den)
			}
		}
		for _, a := range s.poly.Atoms {
			if 1+dim < len(a.Num) && a.Num[1+dim] != 0 {
				period = satLCM(period, a.Den)
			}
		}
		if period == 1 {
			period = 8 // transitive floor dependence: several split rounds
		}
	}
	var lowers, uppers int64
	penalty := int64(1)
	hasEq := false
	for _, c := range s.cons {
		cc := c.C
		a := cc.At(col)
		switch {
		case a == 0:
			continue
		case c.Eq:
			hasEq = true
		case a > 0:
			lowers++
		default:
			uppers++
		}
		if c.Eq || a == 1 || a == -1 {
			continue
		}
		// A non-unit bound becomes a floor expression of the surviving
		// dimensions when the sum telescopes. If the bound couples another
		// counted dimension, that dimension will residue-split by roughly
		// |a| classes when its own turn comes — weigh the full factor. A
		// floor over parameters only is harmless (parameters are never
		// summed), but still worth losing ties over.
		w := int64(2)
		for d := s.nParam; d < s.ndim; d++ {
			if d != dim && cc.At(s.dimCol(d)) != 0 {
				w = ints.Abs(a)
				break
			}
		}
		if penalty < 1<<20 {
			penalty = satMul(penalty, w)
		}
	}
	if hasEq && period == 1 {
		return 1
	}
	pairs := satMul(lowers, uppers)
	if hasEq || pairs == 0 {
		pairs = 1
	}
	return satMul(satMul(period, pairs), penalty)
}

// divDependsOnDim reports, per div, whether its numerator references the
// dimension directly or through another div.
func (s *system) divDependsOnDim(dim int) []bool {
	col := s.dimCol(dim)
	dep := make([]bool, len(s.divs))
	for i, d := range s.divs {
		num := d.Num
		if num.At(col) != 0 {
			dep[i] = true
			continue
		}
		for j := 0; j < i; j++ {
			if dep[j] && num.At(s.divCol(j)) != 0 {
				dep[i] = true
				break
			}
		}
	}
	return dep
}

// vecToQPoly converts an affine column vector (over [const, dims, divs]) into
// a quasi-polynomial over the dims, turning div references into floor atoms.
// It returns the polynomial together with the (possibly extended) carrier
// polynomial whose atom table now holds the needed atoms; callers that want
// to combine the result with an existing polynomial simply Add them (atom
// tables merge by structural identity).
func (s *system) vecToQPoly(v presburger.Vec) (qpoly.QPoly, error) {
	p := qpoly.ConstInt(s.ndim, v.At(0))
	for i := 0; i < s.ndim; i++ {
		if c := v.At(s.dimCol(i)); c != 0 {
			p = p.Add(qpoly.Var(s.ndim, i).Scale(ints.RatInt(c)))
		}
	}
	for i := range s.divs {
		if c := v.At(s.divCol(i)); c != 0 {
			carrier, idx, err := s.ensureDivAtom(qpoly.Zero(s.ndim), i)
			if err != nil {
				return qpoly.QPoly{}, err
			}
			p = p.Add(carrier.AtomPoly(idx).Scale(ints.RatInt(c)))
		}
	}
	return p, nil
}

// ensureDivAtom extends poly with a floor atom mirroring div i (recursively
// creating atoms for the divs it references) and returns the updated
// polynomial and the atom index. A div whose numerator references a later
// div has no atom order and leaves the supported fragment.
func (s *system) ensureDivAtom(poly qpoly.QPoly, i int) (qpoly.QPoly, int, error) {
	num := s.divs[i].Num
	for j := i; j < len(s.divs); j++ {
		if num.At(s.divCol(j)) != 0 {
			return qpoly.QPoly{}, 0, fmt.Errorf("%w: div references later div", ErrUnsupported)
		}
	}
	refIdx := map[int]int{}
	for j := 0; j < i; j++ {
		if num.At(s.divCol(j)) != 0 {
			var err error
			if poly, refIdx[j], err = s.ensureDivAtom(poly, j); err != nil {
				return qpoly.QPoly{}, 0, err
			}
		}
	}
	full := make([]int64, 1+s.ndim+len(poly.Atoms))
	full[0] = num.At(0)
	for v := 0; v < s.ndim; v++ {
		full[1+v] = num.At(s.dimCol(v))
	}
	for j, idx := range refIdx {
		full[1+s.ndim+idx] += num.At(s.divCol(j))
	}
	poly, idx := poly.WithAtom(full, s.divs[i].Den)
	return poly, idx, nil
}

// String renders the system for debugging.
func (s *system) String() string {
	return fmt.Sprintf("system{%v, poly=%s}", s.toBasicSet(), s.poly.StringWithNames(s.space.Dims))
}
