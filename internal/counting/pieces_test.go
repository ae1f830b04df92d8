package counting

import (
	"testing"

	"haystack/internal/ints"
	"haystack/internal/presburger"
	"haystack/internal/qpoly"
)

// TestMapCardPiecesSumMatchesMerged pins the lazy-sum contract the
// set-associative classifier relies on: the pointwise sum of the per-basic
// cards returned by mapCardPieces equals the merged MapCard result at
// every domain point — including points where overlapping basic maps were
// made disjoint by subtraction.
func TestMapCardPiecesSumMatchesMerged(t *testing.T) {
	// Overlapping union {S(i)->T(j): 0<=j<=i} ∪ {S(i)->T(j): 0<=j<5} over
	// 0<=i<20, plus a stripe of even outputs {S(i)->T(j): j=2k, 0<=j<=i} to
	// put a div-carrying card in the bag.
	s := presburger.NewSpace("S", "i")
	o := presburger.NewSpace("T", "j")
	mk := func() presburger.BasicMap {
		bm := presburger.UniverseBasicMap(s, o)
		bm = bm.AddConstraint(ineq(bm.NCols(), 0, 1, 0))
		bm = bm.AddConstraint(ineq(bm.NCols(), 19, -1, 0))
		bm = bm.AddConstraint(ineq(bm.NCols(), 0, 0, 1))
		return bm
	}
	a := mk().AddConstraint(ineq(mk().NCols(), 0, 1, -1))
	b := mk().AddConstraint(ineq(mk().NCols(), 4, 0, -1))
	c := mk().AddConstraint(ineq(mk().NCols(), 0, 1, -1))
	cd, u := c.AddDiv(presburger.Vec{0, 0, 1}, 2)
	even := presburger.Constraint{C: presburger.NewVec(cd.NCols()), Eq: true}
	even.C[2] = 1
	even.C[u] = -2
	c = cd.AddConstraint(even)
	m := presburger.MapFromBasics(a, b, c)

	merged, err := MapCard(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	pieces, err := mapCardPieces(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(pieces) < 2 {
		t.Fatalf("expected multiple disjoint cards, got %d", len(pieces))
	}
	summands, err := MapCardSummands(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	bag := qpoly.NewBag(summands)
	for i := int64(0); i < 22; i++ {
		pt := []int64{i}
		var sum ints.Rat
		for _, card := range pieces {
			sum = sum.Add(card.Eval(pt))
		}
		if want := ints.NewRat(merged.EvalInt(pt), 1); sum.Cmp(want) != 0 {
			t.Errorf("i=%d: lazy sum %v, merged %v", i, sum, want)
		}
		// The raw summand form evaluated through the box-filtered bag must
		// agree with both, and its threshold form must bracket the sum
		// exactly.
		if got := bag.EvalSum(pt); got.Cmp(sum) != 0 {
			t.Errorf("i=%d: summand bag sum %v, card sum %v", i, got, sum)
		}
		for _, limit := range []int64{0, 1, 4, 9, 12, 40} {
			lr := ints.NewRat(limit, 1)
			if got, want := bag.SumExceeds(pt, lr), sum.Cmp(lr) > 0; got != want {
				t.Errorf("i=%d limit=%d: SumExceeds=%v, want %v", i, limit, got, want)
			}
		}
	}
}
