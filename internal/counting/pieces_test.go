package counting

import (
	"testing"

	"haystack/internal/ints"
	"haystack/internal/presburger"
	"haystack/internal/qpoly"
)

// TestCardSetSummandsSumMatchesMerged pins the lazy-sum contract the
// set-associative classifier relies on: on a map counted as its wrapped
// set, the pointwise sum of the per-basic cards of the disjoint
// decomposition and the sum of the CardSetSummands bag both equal the
// merged CardSet result at every domain point — including points where
// overlapping basic maps were made disjoint by subtraction.
func TestCardSetSummandsSumMatchesMerged(t *testing.T) {
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
	w := presburger.MapFromBasics(a, b, c).AsSet()

	merged, err := CardSet(w, 1, s, nil)
	if err != nil {
		t.Fatal(err)
	}
	var pieces []qpoly.PwQPoly
	for _, bs := range disjointBasicSets(w) {
		card, err := cardBasicSet(bs, 1, s, nil)
		if err != nil {
			t.Fatal(err)
		}
		pieces = append(pieces, card)
	}
	if len(pieces) < 2 {
		t.Fatalf("expected multiple disjoint cards, got %d", len(pieces))
	}
	summands, err := CardSetSummands(w, 1, s, nil)
	if err != nil {
		t.Fatal(err)
	}
	bag := qpoly.NewBag(summands)
	sums := map[int64]ints.Rat{}
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
		// agree with both.
		if got := bag.EvalSum(pt); got.Cmp(sum) != 0 {
			t.Errorf("i=%d: summand bag sum %v, card sum %v", i, got, sum)
		}
		sums[i] = sum
	}
	// Its threshold form, swept over 0 <= i <= 21, must count exactly the
	// points whose sum exceeds the limit.
	dom := presburger.SetFromBasic(presburger.NewBasicSet(s, nil, []presburger.Constraint{
		ineq(2, 0, 1), ineq(2, 21, -1),
	}))
	for _, limit := range []int64{0, 1, 4, 9, 12, 40} {
		lr := ints.NewRat(limit, 1)
		var want int64
		for _, sum := range sums {
			if sum.Cmp(lr) > 0 {
				want++
			}
		}
		got, points, err := bag.CountExceeding(dom, lr, func() error { return nil })
		if err != nil || got != want || points != 22 {
			t.Errorf("limit=%d: CountExceeding = (%d, %d points, %v), want (%d, 22 points)", limit, got, points, err, want)
		}
	}
}
