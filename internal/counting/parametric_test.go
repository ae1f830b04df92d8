package counting

import (
	"fmt"
	"math/rand"
	"testing"

	"haystack/internal/presburger"
)

// randomParamSet builds a random basic set whose first nParam dimensions are
// symbolic parameters and whose remaining counted dimensions form boxes or
// wedges with parameter-dependent bounds: every counted dimension d gets
// 0 <= d and d < a*P + b (a box against a scaled parameter), and wedge
// variants additionally relate counted dimensions to each other
// (d_i <= d_{i-1}) or to a parameter offset. Parameters are constrained to
// be at least one, mirroring the context set of a parametric program.
func randomParamSet(rng *rand.Rand, nParam, nCount int) presburger.BasicSet {
	dims := make([]string, 0, nParam+nCount)
	for i := 0; i < nParam; i++ {
		dims = append(dims, fmt.Sprintf("P%d", i))
	}
	for i := 0; i < nCount; i++ {
		dims = append(dims, fmt.Sprintf("i%d", i))
	}
	sp := presburger.NewParamSpace("R", nParam, dims...)
	bs := presburger.UniverseBasicSet(sp)
	w := bs.NCols()
	// P_j >= 1.
	for j := 0; j < nParam; j++ {
		c := presburger.Constraint{C: presburger.NewVec(w)}
		c.C[1+j] = 1
		c.C[0] = -1
		bs = bs.AddConstraint(c)
	}
	for d := 0; d < nCount; d++ {
		col := 1 + nParam + d
		// Lower bound: i_d >= lo with a small constant lo.
		lo := presburger.Constraint{C: presburger.NewVec(w)}
		lo.C[col] = 1
		lo.C[0] = -rng.Int63n(3)
		bs = bs.AddConstraint(lo)
		// Upper bound: i_d < a*P_j + b (exclusive), i.e. a*P_j + b - 1 - i_d >= 0.
		hi := presburger.Constraint{C: presburger.NewVec(w)}
		hi.C[col] = -1
		pj := rng.Intn(nParam)
		hi.C[1+pj] = 1 + rng.Int63n(2) // coefficient 1 or 2
		hi.C[0] = rng.Int63n(4) - 1
		bs = bs.AddConstraint(hi)
		// Wedge: relate to the previous counted dimension half the time.
		if d > 0 && rng.Intn(2) == 0 {
			wc := presburger.Constraint{C: presburger.NewVec(w)}
			wc.C[1+nParam+d-1] = 1
			wc.C[col] = -1
			bs = bs.AddConstraint(wc) // i_d <= i_{d-1}
		}
	}
	return bs
}

// TestCardBasicSetParametricRandom cross-checks parametric counting against
// brute-force enumeration: for random boxes and wedges with one or two
// parameter dimensions, the piecewise quasi-polynomial returned by
// cardBasicSet, evaluated at sampled parameter values, must equal the point
// count of the set with the parameters fixed to those values.
func TestCardBasicSetParametricRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	cases := 60
	if testing.Short() {
		cases = 25
	}
	for ci := 0; ci < cases; ci++ {
		nParam := 1 + rng.Intn(2)
		nCount := 1 + rng.Intn(3)
		bs := randomParamSet(rng, nParam, nCount)
		paramDims := make([]string, nParam)
		for i := range paramDims {
			paramDims[i] = fmt.Sprintf("P%d", i)
		}
		paramSpace := presburger.NewParamSpace("Params", nParam, paramDims...)
		card, err := cardBasicSet(bs, nParam, paramSpace, nil)
		if err != nil {
			t.Fatalf("case %d (%v): cardBasicSet: %v", ci, bs, err)
		}
		for trial := 0; trial < 6; trial++ {
			point := make([]int64, nParam)
			for i := range point {
				point[i] = 1 + rng.Int63n(9)
			}
			fixed := bs
			for i, v := range point {
				fixed = fixed.FixDim(i, v)
			}
			want, err := fixed.CountByScan()
			if err != nil {
				t.Fatalf("case %d: CountByScan at %v: %v", ci, point, err)
			}
			// The brute-force count includes the parameter dimensions as
			// single-valued columns, so it equals the count of the remaining
			// dimensions directly.
			got := card.EvalInt(point)
			if got != want {
				t.Errorf("case %d at %v: parametric count %d, brute force %d\nset: %v\ncard: %v",
					ci, point, got, want, bs, card)
			}
		}
	}
}

// TestCardSetParametricUnion checks union semantics of the parametric set
// counter: two overlapping parametric boxes must count every point once for
// every sampled parameter value.
func TestCardSetParametricUnion(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for ci := 0; ci < 20; ci++ {
		nParam := 1 + rng.Intn(2)
		nCount := 1 + rng.Intn(2)
		a := randomParamSet(rng, nParam, nCount)
		b := randomParamSet(rng, nParam, nCount)
		s := presburger.SetFromBasic(a).Union(presburger.SetFromBasic(b))
		paramDims := make([]string, nParam)
		for i := range paramDims {
			paramDims[i] = fmt.Sprintf("P%d", i)
		}
		paramSpace := presburger.NewParamSpace("Params", nParam, paramDims...)
		card, err := CardSet(s, nParam, paramSpace, nil)
		if err != nil {
			t.Fatalf("case %d: CardSet: %v", ci, err)
		}
		for trial := 0; trial < 4; trial++ {
			point := make([]int64, nParam)
			for i := range point {
				point[i] = 1 + rng.Int63n(7)
			}
			fa := a
			fb := b
			for i, v := range point {
				fa = fa.FixDim(i, v)
				fb = fb.FixDim(i, v)
			}
			want, err := presburger.SetFromBasic(fa).Union(presburger.SetFromBasic(fb)).CountByScan()
			if err != nil {
				t.Fatalf("case %d: CountByScan: %v", ci, err)
			}
			if got := card.EvalInt(point); got != want {
				t.Errorf("case %d at %v: parametric union count %d, brute force %d", ci, point, got, want)
			}
		}
	}
}
