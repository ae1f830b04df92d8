package presburger

import "testing"

// parityStripe builds { x : 0 <= x < n, x ≡ r (mod m) } as a basic set with
// one div and one modulo equality — the shape the set-associative residue
// partition produces for every array space.
func parityStripe(n, m, r int64) BasicSet {
	sp := NewSpace("S", "x")
	bs := UniverseBasicSet(sp)
	bs = bs.AddConstraint(Constraint{C: Vec{0, 1}})
	bs = bs.AddConstraint(Constraint{C: Vec{n - 1, -1}})
	bs, u := bs.AddDiv(Vec{0, 1}, m)
	c := Constraint{C: NewVec(bs.NCols()), Eq: true}
	c.C[0] = -r
	c.C[1] = 1
	c.C[u] = -m
	return bs.AddConstraint(c)
}

// TestResidueClassesSeparateStripes checks the congruence part of the
// signature on the residue stripes it exists for: two stripes of the same
// modulus with different residues are provably disjoint, while the same
// residue (even over a different box) is not. As a map whose outputs carry
// the stripe, the domains share every input, so the domain signatures keep
// no class and do not separate.
func TestResidueClassesSeparateStripes(t *testing.T) {
	even := parityStripe(20, 2, 0).Signature()
	odd := parityStripe(20, 2, 1).Signature()
	evenAgain := parityStripe(12, 2, 0).Signature()
	if len(even.res) == 0 || len(odd.res) == 0 {
		t.Fatalf("stripes yield no residue classes: even=%v odd=%v", even.res, odd.res)
	}
	if !even.Separate(odd) {
		t.Errorf("x≡0 and x≡1 (mod 2) must be separate: %v vs %v", even.res, odd.res)
	}
	if even.Separate(evenAgain) {
		t.Errorf("two x≡0 (mod 2) stripes must not be separate: %v vs %v", even.res, evenAgain.res)
	}
	if even.Separate(even) {
		t.Error("a signature must not be separate from itself")
	}
	in := NewSpace("I")
	asMap := func(bs BasicSet) BasicMap {
		return NewBasicMap(in, bs.Space(), bs.Divs(), bs.Constraints())
	}
	evenMap, oddMap := asMap(parityStripe(20, 2, 0)), asMap(parityStripe(20, 2, 1))
	if res := evenMap.DomainSignature().res; len(res) != 0 {
		t.Errorf("an output stripe yields domain residue classes: %v", res)
	}
	if evenMap.DomainSignature().Separate(oddMap.DomainSignature()) {
		t.Error("maps striped only on their outputs must not have separate domains")
	}
}

// TestResidueClassesSoundOnStripes cross-checks the signature pointwise:
// when Separate says two stripes cannot overlap, their intersection must
// scan empty for every residue pair of moduli 2, 3, and 4.
func TestResidueClassesSoundOnStripes(t *testing.T) {
	for _, m := range []int64{2, 3, 4} {
		for r1 := int64(0); r1 < m; r1++ {
			for r2 := int64(0); r2 < m; r2++ {
				a := parityStripe(24, m, r1)
				b := parityStripe(24, m, r2)
				if !a.Signature().Separate(b.Signature()) {
					continue
				}
				n, err := SetFromBasic(a).Intersect(SetFromBasic(b)).CountByScan()
				if err != nil {
					t.Fatalf("m=%d r1=%d r2=%d: %v", m, r1, r2, err)
				}
				if n != 0 {
					t.Errorf("m=%d: signature separates r=%d and r=%d but stripes share %d points", m, r1, r2, n)
				}
			}
		}
	}
}

// TestResidueClassesIgnoreDivFreeEqualities asserts a plain equality without
// div variables contributes no residue class: x = 5 pins a value, not a
// congruence, and a spurious class would wrongly separate overlapping sets.
// The pin lands in the box instead.
func TestResidueClassesIgnoreDivFreeEqualities(t *testing.T) {
	sp := NewSpace("S", "x")
	bs := UniverseBasicSet(sp)
	c := Constraint{C: Vec{-5, 1}, Eq: true}
	sig := bs.AddConstraint(c).Signature()
	if len(sig.res) != 0 {
		t.Errorf("div-free equality produced residue classes: %v", sig.res)
	}
	if lo, hi := sig.Bounds(0); lo != 5 || hi != 5 {
		t.Errorf("x = 5 boxes x to [%d, %d], want [5, 5]", lo, hi)
	}
}
