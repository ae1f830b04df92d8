package presburger

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// refCoalSig is coalEntry.sig as it was computed with a map-backed
// constraint index: the div signature, then the constraint hashes sorted by
// value, then the dimension count.
func refCoalSig(b *basic) uint64 {
	sorted := make([]uint64, len(b.cons))
	for i, c := range b.cons {
		sorted[i] = constraintHash(c)
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	sig := hashDivs(b) ^ 0x9e3779b97f4a7c15
	for _, h := range sorted {
		sig = fnvMix(sig, h)
	}
	return fnvMix(sig, uint64(b.ndim))
}

// diffCoalEntry checks the coalescer's entry index of b against brute
// force: the signature against refCoalSig, and hasConstraintHashed against
// a scan of every constraint, for each constraint of b and for variants
// that are not in b (constant shifted, kind flipped).
func diffCoalEntry(b *basic) error {
	e := newCoalEntry(b)
	if want := refCoalSig(b); e.sig != want {
		return fmt.Errorf("sig %#x, reference %#x\nin: %s", e.sig, want, b.render(nil))
	}
	scan := func(c Constraint) bool {
		for _, o := range b.cons {
			if constraintsEqual(o, c) {
				return true
			}
		}
		return false
	}
	for _, c := range b.cons {
		shifted := c.Clone()
		shifted.C[0]++
		for _, q := range []Constraint{c, shifted, {C: c.C, Eq: !c.Eq}} {
			if got, want := e.hasConstraintHashed(constraintHash(q), q), scan(q); got != want {
				return fmt.Errorf("hasConstraintHashed(%v, eq %v) = %v, scan %v\nin: %s", q.C, q.Eq, got, want, b.render(nil))
			}
		}
	}
	return nil
}

func TestCoalEntryMatchesReferenceOnRandomBasics(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	repeated := 0
	for trial, b := range parallelDivBasics(24, 2000) {
		// Exact repeats give hash runs longer than one.
		for i, n := 0, rng.Intn(3); i < n; i++ {
			b.cons = append(b.cons, b.cons[rng.Intn(len(b.cons))].Clone())
			repeated++
		}
		if err := diffCoalEntry(b); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
	if repeated == 0 {
		t.Fatal("no repeated constraint; the hash runs went untested")
	}
}
