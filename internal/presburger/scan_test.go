package presburger_test

import (
	"fmt"
	"math/rand"
	"testing"

	"haystack/internal/presburger"
)

// boxPoints returns the points of bs in [0, fuzzBoxHi]^ndim by brute force,
// each checked against every constraint, in lexicographic order.
func boxPoints(ndim int, bs presburger.BasicSet) [][]int64 {
	var out [][]int64
	forEachBoxPoint(ndim, func(p []int64) {
		if bs.Contains(p) {
			out = append(out, append([]int64(nil), p...))
		}
	})
	return out
}

func scannedPoints(t *testing.T, bs presburger.BasicSet) [][]int64 {
	t.Helper()
	var out [][]int64
	if err := bs.Scan(func(p []int64) error {
		out = append(out, append([]int64(nil), p...))
		return nil
	}); err != nil {
		t.Fatalf("Scan(%v): %v", bs, err)
	}
	return out
}

// TestScanMatchesBoxEnumeration checks the scanner, which checks only the
// div-bearing constraints at its leaves, against brute-force enumeration of
// the decoder's bounding box with the full membership test: on the
// FuzzSimplify seeds and on random sets with a div.
func TestScanMatchesBoxEnumeration(t *testing.T) {
	inputs := setSeeds(t)
	rng := rand.New(rand.NewSource(25))
	for i := 0; i < 2000; i++ {
		data := make([]byte, 2+rng.Intn(40))
		rng.Read(data)
		data[1] |= 1 // a div
		inputs = append(inputs, data)
	}
	for _, data := range inputs {
		ndim, rest, ok := decodeDims(data)
		if !ok {
			continue
		}
		bs := decodeBasicSet(ndim, rest)
		got, want := scannedPoints(t, bs), boxPoints(ndim, bs)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("Scan of %v\n got  %v\n want %v", bs, got, want)
		}
	}
}

// TestScanConstantConstraints checks that a constraint over no dimension is
// still enforced: the scan never reaches it through a level.
func TestScanConstantConstraints(t *testing.T) {
	sp := fuzzSpace(1)
	box := []presburger.Constraint{
		{C: presburger.Vec{0, 1}},
		{C: presburger.Vec{3, -1}},
	}
	for _, tc := range []struct {
		row  presburger.Constraint
		want int
	}{
		{presburger.Constraint{C: presburger.Vec{-1, 0}}, 0},
		{presburger.Constraint{C: presburger.Vec{1, 0}, Eq: true}, 0},
		{presburger.Constraint{C: presburger.Vec{2, 0}}, 4},
		{presburger.Constraint{C: presburger.Vec{0, 0}, Eq: true}, 4},
	} {
		bs := presburger.NewBasicSet(sp, nil, append([]presburger.Constraint{tc.row}, box...))
		if got := len(scannedPoints(t, bs)); got != tc.want {
			t.Errorf("%v: %d points, want %d", bs, got, tc.want)
		}
	}
}
