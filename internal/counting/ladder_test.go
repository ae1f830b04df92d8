package counting

import (
	"errors"
	"testing"

	"haystack/internal/budget"
	"haystack/internal/presburger"
)

// durbinPiece is a minimized capacity miss set of PolyBench durbin at MINI
// with a 512-byte cache:
//
//	{ k : e0 = floor(k/8), e1 = floor((k - 1 - 8e0)/8), e2 = floor((k - 1)/8),
//	      e0 - e1 + e2 >= 7, k <= 39 }
//
// It has 8 points (k = 32..39). Splitting k into residue classes rewrites
// e0 and then e1, whose numerator references e0: the rewrite has to keep
// every div in its column, or a div ends up referencing a later one.
func durbinPiece() presburger.BasicSet {
	sp := presburger.NewSpace("S1", "k")
	divs := []presburger.Div{
		{Num: presburger.Vec{0, 1, 0, 0, 0}, Den: 8},
		{Num: presburger.Vec{-1, 1, -8, 0, 0}, Den: 8},
		{Num: presburger.Vec{-1, 1, 0, 0, 0}, Den: 8},
	}
	cons := []presburger.Constraint{
		{C: presburger.Vec{39, -1, 0, 0, 0}},
		{C: presburger.Vec{-7, 0, 1, -1, 1}},
	}
	return presburger.NewBasicSet(sp, divs, cons)
}

func TestDurbinPieceCountsByEnumeration(t *testing.T) {
	bs := durbinPiece()
	want, err := bs.CountByScan()
	if err != nil || want != 8 {
		t.Fatalf("scan = %d, %v; want 8 points", want, err)
	}
	if got, err := countBasicSet(bs, nil); err != nil || got != want {
		t.Fatalf("symbolic count = %d, %v; want %d", got, err, want)
	}
	got, err := CountSet(presburger.SetFromBasic(bs), nil)
	if err != nil || got != want {
		t.Fatalf("CountSet = %d, %v; want %d", got, err, want)
	}
}

// nestedFloorSet is { i : 0 <= i <= 20, floor(floor(i/2)/3) >= 1 }, 15
// points. Splitting i by the inner floor leaves the outer floor with a
// coefficient its denominator does not divide, which the symbolic counter
// reports as outside its fragment.
func nestedFloorSet() presburger.BasicSet {
	sp := presburger.NewSpace("S", "i")
	divs := []presburger.Div{
		{Num: presburger.Vec{0, 1, 0, 0}, Den: 2},
		{Num: presburger.Vec{0, 0, 1, 0}, Den: 3},
	}
	cons := []presburger.Constraint{
		{C: presburger.Vec{0, 1, 0, 0}},
		{C: presburger.Vec{20, -1, 0, 0}},
		{C: presburger.Vec{-1, 0, 0, 1}},
	}
	return presburger.NewBasicSet(sp, divs, cons)
}

// TestCountSetLadder walks the rungs of the counting ladder: a symbolic
// count, enumeration after a fragment failure, a budget trip that is
// returned without enumerating, and the certified interval's enumeration
// prefix with its box upper bound.
func TestCountSetLadder(t *testing.T) {
	triangle := boxSet("S", 20, 20).AddConstraint(ineq(boxSet("S", 20, 20).NCols(), 0, 1, -1))
	cases := []struct {
		name  string
		set   presburger.BasicSet
		limit int64
		// interval selects CountSetInterval instead of CountSet.
		interval bool
		want     Interval
		wantErr  error
		// Bounds on the cost units charged to the operation.
		minUsed, maxUsed int64
	}{
		{name: "symbolic", set: triangle, limit: 1 << 20, want: Exact(210), maxUsed: 10},
		{name: "unsupported enumerates", set: nestedFloorSet(), limit: 1 << 20, want: Exact(15), minUsed: 15, maxUsed: 100},
		{name: "budget trip", set: boxSet("S", 20, 20, 20), limit: 1, wantErr: ErrBudget, maxUsed: 10},
		{name: "interval prefix and box", set: boxSet("S", 20, 20, 20), limit: 1, interval: true,
			want: Interval{Lo: maxEnum, Hi: 8000}, maxUsed: 10},
		{name: "interval prefix completes at the cap", set: boxSet("S", 16, 16, 16), limit: 1, interval: true,
			want: Exact(maxEnum), maxUsed: 10},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			op := budget.LimitOp("ladder", tc.limit)
			s := presburger.SetFromBasic(tc.set)
			var got Interval
			var err error
			if tc.interval {
				got, err = CountSetInterval(s, op)
			} else {
				var n int64
				n, err = CountSet(s, op)
				got = Exact(n)
			}
			switch {
			case tc.wantErr != nil:
				if !errors.Is(err, tc.wantErr) {
					t.Fatalf("error = %v, want %v", err, tc.wantErr)
				}
			case err != nil:
				t.Fatal(err)
			case got != tc.want:
				t.Fatalf("count = %v, want %v", got, tc.want)
			}
			if used := op.Used(); used < tc.minUsed || used > tc.maxUsed {
				t.Fatalf("op charged %d units, want [%d, %d]", used, tc.minUsed, tc.maxUsed)
			}
		})
	}
}

// fuzzReader hands out fuzz bytes, reading zeros once they run out.
type fuzzReader []byte

func (r *fuzzReader) next() int64 {
	if len(*r) == 0 {
		return 0
	}
	b := (*r)[0]
	*r = (*r)[1:]
	return int64(b)
}

// coef reads a small signed coefficient.
func (r *fuzzReader) coef() int64 { return int64(int8(r.next())) }

// basicSet decodes a basic set over ndim dimensions: up to three divs (each
// over the dimensions and the earlier divs), one to six constraints, and a
// bounding box that keeps the set small enough to enumerate.
func (r *fuzzReader) basicSet(sp presburger.Space) presburger.BasicSet {
	ndim := sp.Dim()
	ndivs := int(r.next() % 4)
	ncons := 1 + int(r.next()%6)
	divs := make([]presburger.Div, ndivs)
	for i := range divs {
		den := 2 + r.next()%7
		num := presburger.NewVec(1 + ndim + ndivs)
		for j := 0; j < 1+ndim+i; j++ {
			num[j] = r.coef()
		}
		divs[i] = presburger.Div{Num: num, Den: den}
	}
	var cons []presburger.Constraint
	for i := 0; i < ncons; i++ {
		eq := r.next()%4 == 0
		c := presburger.NewVec(1 + ndim + ndivs)
		for j := range c {
			c[j] = r.coef()
		}
		cons = append(cons, presburger.Constraint{C: c, Eq: eq})
	}
	side := int64(48)
	if ndim == 3 {
		side = 20
	}
	for d := 0; d < ndim; d++ {
		lo := presburger.NewVec(1 + ndim + ndivs)
		lo[0], lo[1+d] = r.next()%9, 1 // x_d >= -(b % 9)
		hi := presburger.NewVec(1 + ndim + ndivs)
		hi[0], hi[1+d] = r.next()%side, -1 // x_d <= b % side
		cons = append(cons, presburger.Constraint{C: lo}, presburger.Constraint{C: hi})
	}
	return presburger.NewBasicSet(sp, divs, cons)
}

// durbinPieceSeed encodes durbinPiece in the fuzz format, over the two
// dimensions (k, a) of the statement with a = 0.
var durbinPieceSeed = []byte{
	0,    // two dimensions
	3, 2, // three divs, three constraints
	8 - 2, 0, 1, 0, // e0 = floor(k/8)
	8 - 2, 0xff, 1, 0, 0xf8, // e1 = floor((-1 + k - 8e0)/8)
	8 - 2, 0xff, 1, 0, 0, 0, // e2 = floor((-1 + k)/8)
	1, 39, 0xff, 0, 0, 0, 0, // 39 - k >= 0
	0, 0, 0, 1, 0, 0, 0, // a = 0
	1, 0xf9, 0, 0, 1, 0xff, 1, // -7 + e0 - e1 + e2 >= 0
	8, 47, 8, 47, // box: -8 <= k, a <= 47
}

// durbinSeed encodes the durbin piece before minimization in the fuzz
// format: durbinPieceSeed with the extra constraint k - 1 - 8e0 >= 0.
var durbinSeed = []byte{
	0,    // two dimensions
	3, 3, // three divs, four constraints
	8 - 2, 0, 1, 0, // e0 = floor(k/8)
	8 - 2, 0xff, 1, 0, 0xf8, // e1 = floor((-1 + k - 8e0)/8)
	8 - 2, 0xff, 1, 0, 0, 0, // e2 = floor((-1 + k)/8)
	1, 39, 0xff, 0, 0, 0, 0, // 39 - k >= 0
	0, 0, 0, 1, 0, 0, 0, // a = 0
	1, 0xff, 1, 0, 0xf8, 0, 0, // -1 + k - 8e0 >= 0
	1, 0xf9, 0, 0, 1, 0xff, 1, // -7 + e0 - e1 + e2 >= 0
	8, 47, 8, 47, // box: -8 <= k, a <= 47
}

// FuzzCountSet checks the counting ladder on small sets with divs against
// enumeration: CountSet must equal CountByScan, and CountSetInterval under
// a one-unit budget must contain that count.
func FuzzCountSet(f *testing.F) {
	f.Add(durbinSeed)
	f.Add([]byte{1, 1, 2, 2, 3, 1, 0, 0, 1, 0, 0xfe, 1, 2, 1, 0, 0, 0, 1, 5, 9, 3, 12, 0, 17})
	f.Add(append(append([]byte{}, durbinSeed...), 0, 2, 0, 1, 0, 3, 40))
	f.Add(durbinPieceSeed)
	f.Fuzz(func(t *testing.T, data []byte) {
		r := fuzzReader(data)
		dims := []string{"i0", "i1", "i2"}[:2+r.next()%2]
		sp := presburger.NewSpace("S", dims...)
		s := presburger.SetFromBasic(r.basicSet(sp))
		if len(r) > 0 {
			s = s.Union(presburger.SetFromBasic(r.basicSet(sp)))
		}
		want, err := s.CountByScan()
		if err != nil {
			t.Skip(err)
		}
		got, err := CountSet(s, nil)
		if err != nil || got != want {
			t.Fatalf("CountSet = %d, %v; enumeration counts %d\nset: %v", got, err, want, s)
		}
		iv, err := CountSetInterval(s, budget.LimitOp("fuzz", 1))
		if err != nil || !iv.Contains(want) {
			t.Fatalf("CountSetInterval = %v, %v; enumeration counts %d\nset: %v", iv, err, want, s)
		}
	})
}
