package presburger_test

import (
	"math/rand"
	"testing"

	"haystack/internal/presburger"
)

// randomBasicMap draws a basic map S(i, j) -> L(l) inside the box
// 0 <= i, j, l <= 5: up to three random constraints with coefficients in
// [-2, 2] and, half of the time, the cache-line div floor((i + l)/2) that
// one of them may reference.
func randomBasicMap(rng *rand.Rand) presburger.BasicMap {
	in := presburger.NewSpace("S", "i", "j")
	out := presburger.NewSpace("L", "l")
	var divs []presburger.Div
	if rng.Intn(2) == 0 {
		divs = append(divs, presburger.Div{Num: presburger.Vec{0, 1, 0, 1}, Den: 2})
	}
	ncols := 4 + len(divs)
	var cons []presburger.Constraint
	for n := rng.Intn(4); len(cons) < n; {
		c := presburger.NewVec(ncols)
		c[0] = int64(rng.Intn(9) - 2)
		nonzero := false
		for j := 1; j < ncols; j++ {
			c[j] = int64(rng.Intn(5) - 2)
			nonzero = nonzero || c[j] != 0
		}
		if nonzero {
			cons = append(cons, presburger.Constraint{C: c, Eq: rng.Intn(5) == 0})
		}
	}
	for d := 1; d <= 3; d++ {
		lo, hi := presburger.NewVec(ncols), presburger.NewVec(ncols)
		lo[d] = 1
		hi[0], hi[d] = 5, -1
		cons = append(cons, presburger.Constraint{C: lo}, presburger.Constraint{C: hi})
	}
	return presburger.NewBasicMap(in, out, divs, cons)
}

func randomMap(rng *rand.Rand) presburger.Map {
	bms := []presburger.BasicMap{randomBasicMap(rng)}
	if rng.Intn(2) == 0 {
		bms = append(bms, randomBasicMap(rng))
	}
	return presburger.MapFromBasics(bms...)
}

// requireSameSet fails unless got and want have equal spaces and
// pairwise structurally equal basic sets in the same order.
func requireSameSet(t *testing.T, op string, got, want presburger.Set) {
	t.Helper()
	if !got.Space().Equal(want.Space()) {
		t.Fatalf("%s: space %v, want %v", op, got.Space(), want.Space())
	}
	gb, wb := got.Basics(), want.Basics()
	if len(gb) != len(wb) {
		t.Fatalf("%s: %d basic sets, want %d\ngot  %v\nwant %v", op, len(gb), len(wb), got, want)
	}
	for i := range gb {
		if !gb[i].StructurallyEqual(wb[i]) {
			t.Fatalf("%s: basic set %d differs\ngot  %v\nwant %v", op, i, gb[i], wb[i])
		}
	}
}

// TestMapOpsMatchWrappedSetOps pins the rule that a map is combined as its
// wrapped set: on random union maps, Subtract, Intersect and Coalesce of
// the maps, wrapped with AsSet, are structurally equal to the same Set
// operations on the wrapped operands. It also checks that AsSet shares no
// state a set operation could mutate: the operands render unchanged after
// every wrapped operation.
func TestMapOpsMatchWrappedSetOps(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	split, met := 0, 0
	for iter := 0; iter < 200; iter++ {
		m, o := randomMap(rng), randomMap(rng)
		before := m.String() + o.String()
		ms, os := m.AsSet(), o.AsSet()
		sub, meet := m.Subtract(o), m.Intersect(o)
		requireSameSet(t, "Subtract", sub.AsSet(), ms.Subtract(os))
		requireSameSet(t, "Intersect", meet.AsSet(), ms.Intersect(os))
		requireSameSet(t, "Coalesce", m.Coalesce().AsSet(), ms.Coalesce())
		requireSameSet(t, "Union", m.Union(o).AsSet(), ms.Union(os))
		if len(sub.Basics()) > 1 {
			split++
		}
		if !meet.DefinitelyEmpty() {
			met++
		}
		if after := m.String() + o.String(); after != before {
			t.Fatalf("iteration %d: wrapped set operations changed the operands\nbefore %s\nafter  %s", iter, before, after)
		}
		for _, bm := range m.Basics() {
			if err := bm.CheckInvariants(); err != nil {
				t.Fatalf("iteration %d: %v", iter, err)
			}
		}
	}
	// The draw must exercise the subtraction chain and the pairwise loop,
	// not only empty operands.
	if split < 20 || met < 50 {
		t.Fatalf("weak draw: %d differences of several basic maps, %d non-empty intersections", split, met)
	}
}
