package reusedist

import (
	"math/rand"
	"testing"
	"testing/quick"

	"haystack/internal/cachesim"
	"haystack/internal/scop"
)

func TestPaperExampleDistances(t *testing.T) {
	// Trace of Figure 4 (element-sized lines): M0 M1 M2 M3 M3 M2 M1 M0.
	p := NewProfiler()
	for _, l := range []int64{0, 1, 2, 3, 3, 2, 1, 0} {
		p.Access(l)
	}
	pr := p.Profile()
	if pr.Compulsory != 4 {
		t.Fatalf("compulsory = %d, want 4", pr.Compulsory)
	}
	// Distances of the second accesses: M3 -> 1, M2 -> 2, M1 -> 3, M0 -> 4.
	want := map[int64]int64{1: 1, 2: 1, 3: 1, 4: 1}
	for d, n := range want {
		if pr.Histogram[d] != n {
			t.Fatalf("histogram[%d] = %d, want %d (full histogram %v)", d, pr.Histogram[d], n, pr.Histogram)
		}
	}
	// With cache capacity 2 lines, the accesses with distance 3 and 4 miss.
	if got := pr.MissesForCapacity(2); got != 4+2 {
		t.Fatalf("misses for capacity 2 = %d, want 6", got)
	}
	if got := pr.CapacityMissesFor(2); got != 2 {
		t.Fatalf("capacity misses = %d, want 2", got)
	}
	if pr.DistinctLines() != 4 {
		t.Fatalf("distinct lines = %d", pr.DistinctLines())
	}
}

func TestAgainstFullyAssociativeSimulator(t *testing.T) {
	// The profile must predict exactly the misses of a fully associative LRU
	// cache of any capacity, for random traces.
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 20; trial++ {
		numLines := 1 + rng.Intn(40)
		trace := make([]int64, 3000)
		for i := range trace {
			// Mix sequential and random reuse.
			if rng.Intn(2) == 0 {
				trace[i] = int64(i % numLines)
			} else {
				trace[i] = int64(rng.Intn(numLines))
			}
		}
		prof := NewProfiler()
		for _, l := range trace {
			prof.Access(l)
		}
		pr := prof.Profile()
		for _, capLines := range []int64{1, 2, 3, 5, 8, 13, 21, 34} {
			h, err := cachesim.NewHierarchy(cachesim.Config{LineSize: 64, Levels: []cachesim.LevelConfig{
				{Name: "L1", SizeBytes: capLines * 64, Ways: 0, Policy: cachesim.LRU},
			}})
			if err != nil {
				t.Fatal(err)
			}
			for _, l := range trace {
				h.Access(l*64, false)
			}
			sim := h.Results().Levels[0]
			if got := pr.MissesForCapacity(capLines); got != sim.Misses {
				t.Fatalf("trial %d capacity %d: profile predicts %d misses, simulator %d",
					trial, capLines, got, sim.Misses)
			}
			if pr.Compulsory != sim.Compulsory {
				t.Fatalf("trial %d: compulsory mismatch %d vs %d", trial, pr.Compulsory, sim.Compulsory)
			}
		}
	}
}

func TestCompactionKeepsDistancesExact(t *testing.T) {
	// Force many compactions by using a tiny initial tree indirectly: long
	// trace with few distinct lines.
	p := NewProfiler()
	const lines = 7
	const n = 100000
	for i := 0; i < n; i++ {
		p.Access(int64(i % lines))
	}
	pr := p.Profile()
	if pr.Compulsory != lines {
		t.Fatalf("compulsory = %d", pr.Compulsory)
	}
	// Every non-cold access has distance exactly `lines`.
	if pr.Histogram[lines] != n-lines {
		t.Fatalf("histogram = %v", pr.Histogram)
	}
}

func TestMonotonicityProperty(t *testing.T) {
	// Misses are monotonically non-increasing in the capacity (inclusion
	// property of LRU).
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := NewProfiler()
		for i := 0; i < 2000; i++ {
			p.Access(int64(rng.Intn(50)))
		}
		pr := p.Profile()
		prev := pr.MissesForCapacity(1)
		for c := int64(2); c <= 60; c++ {
			cur := pr.MissesForCapacity(c)
			if cur > prev {
				return false
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestProfileProgram(t *testing.T) {
	p := scop.NewProgram("sweep")
	a := p.NewArray("A", scop.ElemFloat64, 256)
	i := scop.V("i")
	r := scop.V("r")
	p.Add(scop.For(r, scop.C(0), scop.C(3),
		scop.For(i, scop.C(0), scop.C(256), scop.Stmt("S0", scop.Read(a, scop.X(i))))))
	layout := scop.NewLayout(p, scop.LayoutNatural, 64)
	cp, err := scop.Compile(p, layout)
	if err != nil {
		t.Fatal(err)
	}
	pr := ProfileProgram(cp, 64)
	if pr.Accesses != 3*256 {
		t.Fatalf("accesses = %d", pr.Accesses)
	}
	if pr.Compulsory != 32 {
		t.Fatalf("compulsory = %d, want 32 lines", pr.Compulsory)
	}
	// The array spans 32 lines; with capacity >= 32 only the cold misses
	// remain, below that every repeated sweep misses again.
	if pr.MissesForCapacity(32) != 32 {
		t.Fatalf("misses at capacity 32 = %d", pr.MissesForCapacity(32))
	}
	if pr.MissesForCapacity(16) != 32*3 {
		t.Fatalf("misses at capacity 16 = %d, want 96", pr.MissesForCapacity(16))
	}
}

// DistinctLines returns the number of distinct lines in the trace (equal to
// the number of compulsory misses).
func (pr Profile) DistinctLines() int64 { return pr.Compulsory }
